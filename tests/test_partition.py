"""Pair statistics, level partitions, and the shared rule builder."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlslp.grammar import RunRule, SeqRule
from rlslp.partition import (PairMaps, Partition, PartitionError,
                             PartitionSource, RlslpBuilder,
                             deterministic_partition, make_partition,
                             randomized_partition, records_to_tsv,
                             replaced_weight, round_limit, symbol_rank)

A, B, C = -97, -98, -99  # terminals a, b, c


def pair_maps(triples) -> PairMaps:
    """Pair counts from (x, y, weight) triples."""
    pm = PairMaps()
    pm.add_arrays(*map(np.array, zip(*triples)))
    return pm


def test_symbol_rank_orders_terminals_before_rules():
    assert symbol_rank(-1) == 1
    assert symbol_rank(-256) == 256
    assert symbol_rank(1) == 257
    assert symbol_rank(-97) < symbol_rank(-98) < symbol_rank(5)


def test_pair_maps_recover_orientation():
    pm = pair_maps([(A, B, 3), (B, A, 5), (A, C, 2)])
    assert dict(pm.oriented_items()) == {(A, B): 3, (B, A): 5, (A, C): 2}
    assert pm.total_weight() == 10


def test_two_symbol_cut_takes_everything():
    pm = pair_maps([(A, B, 10)])
    part = deterministic_partition(pm, [A, B])
    assert replaced_weight(pm, part) == 10


def _exhaustive_best(pm: PairMaps, alphabet) -> int:
    syms = sorted(alphabet)
    best = 0
    for bits in itertools.product([True, False], repeat=len(syms)):
        part = Partition(dict(zip(syms, bits)))
        best = max(best, replaced_weight(pm, part))
    return best


def test_triangle_against_exhaustive_search():
    pm = pair_maps([(A, B, 3), (B, C, 3), (A, C, 3)])
    assert _exhaustive_best(pm, [A, B, C]) == 6
    part = deterministic_partition(pm, [A, B, C])
    got = replaced_weight(pm, part)
    assert got * 4 >= pm.total_weight()
    # the greedy is not optimal here (cuts one edge of three), but it
    # clears the quarter bar; pin its value so drift is visible
    assert got == 3


def test_quarter_guarantee_random_instances():
    rng = random.Random(300)
    for _ in range(300):
        syms = rng.sample(range(-256, 0), rng.randint(2, 12))
        pm = pair_maps([(*rng.sample(syms, 2), rng.randint(1, 50))
                        for _ in range(rng.randint(1, 30))])
        part = deterministic_partition(pm, syms)
        assert set(part.sides) == set(syms)
        assert replaced_weight(pm, part) * 4 >= pm.total_weight()
        best = _exhaustive_best(pm, syms)
        assert replaced_weight(pm, part) <= best


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(st.integers(-256, -1), st.integers(-256, -1),
              st.integers(1, 100)),
    min_size=1, max_size=25).filter(
        lambda ps: any(x != y for x, y, _ in ps)))
def test_quarter_guarantee_property(pairs):
    alphabet = {s for x, y, _ in pairs for s in (x, y)}
    # a self pair can never cross a two-coloring
    pm = pair_maps([(x, y, w) for x, y, w in pairs if x != y])
    part = deterministic_partition(pm, alphabet)
    assert replaced_weight(pm, part) * 4 >= pm.total_weight()


def test_randomized_partition_is_seed_stable():
    syms = list(range(-20, 0))
    p1 = randomized_partition(syms, random.Random(7))
    p2 = randomized_partition(syms, random.Random(7))
    p3 = randomized_partition(syms, random.Random(8))
    assert p1.sides == p2.sides
    assert set(p1.sides) == set(syms)
    assert p1.sides != p3.sides


def test_mixed_strategy_alternates():
    pm = pair_maps([(A, B, 4), (B, C, 1)])
    syms = [A, B, C]
    src = PartitionSource(strategy="mixed", seed=11)
    first = src.next_partition(pm, syms)
    second = src.next_partition(pm, syms)
    assert first.sides == deterministic_partition(pm, syms).sides
    assert second.sides == randomized_partition(syms,
                                                random.Random(11)).sides
    assert src.pcomp_rounds == 2
    assert [p.sides for p in src.log] == [first.sides, second.sides]


def test_make_partition_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        make_partition(PairMaps(), [A], "bogus", random.Random(0), 0)
    with pytest.raises(ValueError):
        PartitionSource(strategy="bogus")


def test_injected_partitions_replay_then_exhaust():
    parts = [Partition({A: True, B: False}), Partition({A: False, B: True})]
    src = PartitionSource(injected=parts)
    pm = pair_maps([(A, B, 1)])
    assert src.next_partition(pm, [A, B]).sides == parts[0].sides
    assert src.next_partition(pm, [A, B]).sides == parts[1].sides
    with pytest.raises(PartitionError):
        src.next_partition(pm, [A, B])
    assert src.log == parts


def test_records_to_tsv_frozen():
    from rlslp.partition import RoundRecord
    records = [
        RoundRecord(round=1, phase="bcomp", length_after=5, new_rules=2),
        RoundRecord(round=2, phase="pcomp", length_after=3, new_rules=1,
                    replaced_weight=2, total_weight=4, work_size=9),
    ]
    assert records_to_tsv(records) == (
        "round\tphase\tmetric\tvalue\n"
        "1\tbcomp\tlength_after\t5\n"
        "1\tbcomp\tnew_rules\t2\n"
        "2\tpcomp\tlength_after\t3\n"
        "2\tpcomp\tnew_rules\t1\n"
        "2\tpcomp\treplaced_weight\t2\n"
        "2\tpcomp\ttotal_weight\t4\n"
        "2\tpcomp\twork_size\t9\n"
    )


def test_records_to_tsv_seconds_row_only_when_timed():
    from rlslp.partition import RoundRecord
    timed = RoundRecord(round=0, phase="bcomp", length_after=5,
                        new_rules=2, work_size=9, seconds=0.25)
    assert records_to_tsv([timed]).endswith(
        "0\tbcomp\twork_size\t9\n0\tbcomp\tseconds\t0.250000\n")
    untimed = RoundRecord(round=0, phase="bcomp", length_after=5,
                          new_rules=2)
    assert "seconds" not in records_to_tsv([untimed])


def test_partition_side_table_by_rank():
    from rlslp.partition import sides_of
    part = Partition({A: True, B: False, 5: False})
    syms = np.array([A, B, C, 5, 6, 10**6])
    assert sides_of(part.side_table(), syms).tolist() == [1, -1, 0, -1, 0, 0]


def keys(*pairs):
    """The two int64 key arrays of (a, b) pairs."""
    a, b = zip(*pairs)
    return np.array(a), np.array(b)


def test_builder_assigns_run_ids_in_sorted_order():
    b = RlslpBuilder()
    ids = b.add_runs(*keys((A, 2), (B, 3), (A, 2)))
    assert ids.tolist() == [2, 1, 2]
    assert b.rules == [RunRule(B, 3), RunRule(A, 2)]
    assert b.productions == 2


def test_builder_pair_ids_are_per_round():
    b = RlslpBuilder()
    first = b.add_pairs(*keys((A, B)))
    second = b.add_pairs(*keys((A, B)))
    assert first.tolist() == [1]
    assert second.tolist() == [2]
    assert b.rules == [SeqRule((A, B)), SeqRule((A, B))]


def test_builder_finish_wraps_unless_start_is_last():
    b = RlslpBuilder()
    b.add_runs(*keys((A, 3)))
    g = b.finish(1)
    assert g.rules == [RunRule(A, 3)]

    b2 = RlslpBuilder()
    b2.add_runs(*keys((A, 3), (B, 2)))
    g2 = b2.finish(1)
    assert g2.rules[-1] == SeqRule((1,))

    b3 = RlslpBuilder()
    g3 = b3.finish(A)
    assert g3.rules == [SeqRule((A,))]


def test_round_limit_tracks_log():
    assert round_limit(1) == 64 * 1 + 64
    assert round_limit(2) == 64 * 2 + 64
    assert round_limit(1 << 20) == 64 * 21 + 64
    assert round_limit(0) == round_limit(1)
