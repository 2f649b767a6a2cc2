"""Pair statistics, level partitions, and the shared rule builder."""

import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (builder_rules, oriented_items,
                       ref_deterministic_partition, ref_randomized_partition,
                       replaced_weight, sides, symbol_rank, total_weight)
from rlslp.grammar import RunRule, SeqRule
from rlslp.naive import pair_stats_string, recompress_string
from rlslp.partition import (PairMaps, Partition, PartitionError,
                             PartitionSource, RlslpBuilder,
                             RoundRecord, deterministic_partition,
                             output_ids, randomized_partition, round_limit)
from rlslp.pipeline import StatsReport

A, B, C = 97, 98, 99  # level symbols of terminals -97, -98, -99


def pair_maps(triples, alphabet) -> PairMaps:
    """Pair counts from (x, y, weight) triples of level symbols in the
    alphabet, a collection of them."""
    syms = np.sort(np.array(list(alphabet), dtype=np.int64))
    x, y, w = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    return PairMaps(syms, np.searchsorted(syms, x), np.searchsorted(syms, y),
                    w)


def test_symbol_rank_orders_terminals_before_rules():
    assert symbol_rank(-1) == 1
    assert symbol_rank(-256) == 256
    assert symbol_rank(1) == 257
    assert symbol_rank(-97) < symbol_rank(-98) < symbol_rank(5)
    # the array converter the program uses inverts that order
    assert output_ids(np.array([1, 256, 257, 97, 98, 261])).tolist() == \
        [-1, -256, 1, -97, -98, 5]


def test_pair_maps_recover_orientation():
    pm = pair_maps([(A, B, 3), (B, A, 5), (A, C, 2)], [A, B, C])
    assert dict(oriented_items(pm)) == {(A, B): 3, (B, A): 5, (A, C): 2}
    assert total_weight(pm) == 10


def test_two_symbol_cut_takes_everything():
    pm = pair_maps([(A, B, 10)], [A, B])
    part = deterministic_partition(pm)
    assert replaced_weight(pm, part) == 10


def _exhaustive_best(pm: PairMaps, alphabet) -> int:
    syms = sorted(alphabet)
    best = 0
    for bits in itertools.product([True, False], repeat=len(syms)):
        part = Partition(dict(zip(syms, bits)))
        best = max(best, replaced_weight(pm, part))
    return best


def test_triangle_against_exhaustive_search():
    pm = pair_maps([(A, B, 3), (B, C, 3), (A, C, 3)], [A, B, C])
    assert _exhaustive_best(pm, [A, B, C]) == 6
    part = deterministic_partition(pm)
    got = replaced_weight(pm, part)
    assert got * 4 >= total_weight(pm)
    # the greedy is not optimal here (cuts one edge of three), but it
    # clears the quarter bar; pin its value so drift is visible
    assert got == 3


def test_quarter_guarantee_random_instances():
    rng = random.Random(300)
    for _ in range(300):
        syms = rng.sample(range(1, 257), rng.randint(2, 12))
        pm = pair_maps([(*rng.sample(syms, 2), rng.randint(1, 50))
                        for _ in range(rng.randint(1, 30))], syms)
        part = deterministic_partition(pm)
        assert set(sides(part)) == set(syms)
        assert replaced_weight(pm, part) * 4 >= total_weight(pm)
        best = _exhaustive_best(pm, syms)
        assert replaced_weight(pm, part) <= best


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(st.integers(1, 256), st.integers(1, 256),
              st.integers(1, 100)),
    min_size=1, max_size=25).filter(
        lambda ps: any(x != y for x, y, _ in ps)))
def test_quarter_guarantee_property(pairs):
    alphabet = {s for x, y, _ in pairs for s in (x, y)}
    # a self pair can never cross a two-coloring
    pm = pair_maps([(x, y, w) for x, y, w in pairs if x != y], alphabet)
    part = deterministic_partition(pm)
    assert replaced_weight(pm, part) * 4 >= total_weight(pm)


def test_tables_without_pairs_partition_their_alphabet():
    one = pair_stats_string(np.array([5]))
    assert one.syms.tolist() == [5]
    assert len(one.first) == len(one.second) == len(one.weight) == 0
    assert deterministic_partition(one).syms.tolist() == [5]
    part = deterministic_partition(pair_maps([], []))
    assert len(part.syms) == len(part.left) == 0


def test_randomized_partition_is_seed_stable():
    syms = list(range(1, 21))
    p1 = randomized_partition(syms, random.Random(7))
    p2 = randomized_partition(syms, random.Random(7))
    p3 = randomized_partition(syms, random.Random(8))
    assert sides(p1) == sides(p2)
    assert set(sides(p1)) == set(syms)
    assert sides(p1) != sides(p3)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(0, 1), st.integers(2, 3000)), st.floats(0, 1),
       st.sampled_from(["list", "set", "array"]),
       st.integers(0, 2**32 - 1))
@example(0, 0.0, "array", 0)
@example(1, 1.0, "list", 0)
@example(1, 0.0, "set", 1)
def test_partitions_match_reference(size, terminal_share, form, seed):
    rng = random.Random(seed)
    terms = min(256, round(size * terminal_share))
    syms = (rng.sample(range(1, 257), terms)
            + rng.sample(range(257, 4 * size + 257), size - terms))
    rng.shuffle(syms)
    triples = [(rng.choice(syms), rng.choice(syms), rng.randint(1, 1000))
               for _ in range(rng.randint(0, 3 * size))]
    alphabet = {"list": syms, "set": set(syms),
                "array": np.array(syms, dtype=np.int64)}[form]
    pm = pair_maps(triples, alphabet)
    got = deterministic_partition(pm)
    assert sides(got) == sides(ref_deterministic_partition(pm))
    ours, theirs = random.Random(seed), random.Random(seed)
    got = randomized_partition(alphabet, ours)
    assert sides(got) == sides(ref_randomized_partition(alphabet, theirs))
    assert ours.getstate() == theirs.getstate()


def test_partition_rejects_keys_that_are_not_level_symbols():
    # level symbols start at 1; a key below would index the side table
    # from its end, or its slot 0 that stands for no symbol
    for bad in (0, -1, -257, -10**6):
        with pytest.raises(PartitionError, match=str(bad)):
            Partition({A: True, bad: False})
    with pytest.raises(PartitionError, match="-300"):
        Partition({A: True, -300: False, 0: True})
    with pytest.raises(PartitionError):
        recompress_string(bytes([255, 0]), source=PartitionSource(
            injected=[Partition({0: True, 1: False})]))


def test_mixed_strategy_alternates():
    syms = [A, B, C]
    pm = pair_maps([(A, B, 4), (B, C, 1)], syms)
    src = PartitionSource(strategy="mixed", seed=11)
    first = src.next_partition(pm)
    second = src.next_partition(pm)
    assert sides(first) == sides(deterministic_partition(pm))
    assert sides(second) == sides(randomized_partition(syms,
                                                      random.Random(11)))
    assert src.pcomp_rounds == 2
    assert [sides(p) for p in src.log] == [sides(first), sides(second)]


def test_make_partition_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        PartitionSource(strategy="bogus")


def test_injected_partitions_replay_then_exhaust():
    parts = [Partition({A: True, B: False}), Partition({A: False, B: True})]
    src = PartitionSource(injected=parts)
    pm = pair_maps([(A, B, 1)], [A, B])
    assert sides(src.next_partition(pm)) == sides(parts[0])
    assert sides(src.next_partition(pm)) == sides(parts[1])
    with pytest.raises(PartitionError):
        src.next_partition(pm)
    assert src.log == parts


def test_round_records_json_frozen():
    records = [
        RoundRecord(round=1, phase="bcomp", length_after=5, new_rules=2),
        RoundRecord(round=2, phase="pcomp", length_after=3, new_rules=1,
                    replaced_weight=2, total_weight=4, work_size=9),
    ]
    untimed = {"seconds": 0.0, "nocc_s": 0.0, "pair_count_s": 0.0,
               "partition_s": 0.0, "rewrite_s": 0.0, "level_lengths_s": 0.0}
    assert json.loads(StatsReport(rounds=records).to_json()) == {
        "stages": [],
        "counts": {},
        "rounds": [
            {"round": 1, "phase": "bcomp", "length_after": 5,
             "new_rules": 2, "replaced_weight": 0, "total_weight": 0,
             "work_size": 0, **untimed},
            {"round": 2, "phase": "pcomp", "length_after": 3,
             "new_rules": 1, "replaced_weight": 2, "total_weight": 4,
             "work_size": 9, **untimed},
        ],
    }


def test_partition_side_table_by_rank():
    part = Partition({A: True, B: False, 261: False})
    syms = np.array([A, B, C, 261, 262, 10**6, 0, -2])
    assert part.sides_of(syms).tolist() == [1, -1, 0, -1, 0, 0, 0, 0]


def keys(*pairs):
    """The two int64 key arrays of (a, b) pairs."""
    a, b = zip(*pairs)
    return np.array(a), np.array(b)


def test_builder_assigns_run_ids_in_sorted_order():
    b = RlslpBuilder()
    ids = b.add_runs(*keys((A, 2), (B, 3), (A, 2)))
    assert output_ids(ids).tolist() == [2, 1, 2]
    assert builder_rules(b) == [RunRule(-B, 3), RunRule(-A, 2)]
    assert b.productions == 2


def test_builder_pair_ids_are_per_round():
    b = RlslpBuilder()
    first = b.add_pairs(*keys((A, B)))
    second = b.add_pairs(*keys((A, B)))
    assert output_ids(first).tolist() == [1]
    assert output_ids(second).tolist() == [2]
    assert builder_rules(b) == [SeqRule((-A, -B)), SeqRule((-A, -B))]


def test_builder_finish_wraps_unless_start_is_last():
    b = RlslpBuilder()
    b.add_runs(*keys((A, 3)))
    g = b.finish(1)
    assert g.rules == [RunRule(-A, 3)]

    b2 = RlslpBuilder()
    b2.add_runs(*keys((A, 3), (B, 2)))
    g2 = b2.finish(1)
    assert g2.rules[-1] == SeqRule((1,))

    b3 = RlslpBuilder()
    g3 = b3.finish(-A)
    assert g3.rules == [SeqRule((-A,))]


def test_round_limit_tracks_log():
    assert round_limit(1) == 64 * 1 + 64
    assert round_limit(2) == 64 * 2 + 64
    assert round_limit(1 << 20) == 64 * 21 + 64
    assert round_limit(0) == round_limit(1)
