"""String-level recompression reference engine."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutated_text, random_text
from reference import builder_rules, oriented_items, total_weight
from rlslp.grammar import RunRule, SeqRule, expand, validate
from rlslp.naive import (bcomp_string, pair_stats_string, pcomp_string,
                         recompress_string, text_to_levels)
from rlslp.partition import Partition, RlslpBuilder, output_ids


def term(ch: str) -> int:
    return -(ord(ch) + 1)


def level(ch: str) -> int:
    """Level symbol (rank) of terminal term(ch)."""
    return ord(ch) + 1


def test_text_to_levels_maps_bytes_to_terminals():
    assert output_ids(text_to_levels(b"abc")).tolist() == [
        term("a"), term("b"), term("c")]
    assert output_ids(text_to_levels(b"\x00")).tolist() == [-1]
    assert text_to_levels(b"").tolist() == []


def test_bcomp_replaces_only_the_long_run():
    b = RlslpBuilder()
    out = bcomp_string(text_to_levels(b"abaaaaba"), b)
    assert output_ids(out).tolist() == [term("a"), term("b"), 1, term("b"),
                                        term("a")]
    assert builder_rules(b) == [RunRule(term("a"), 4)]


def test_bcomp_leaves_runless_text_alone():
    b = RlslpBuilder()
    out = bcomp_string(text_to_levels(b"abc"), b)
    assert output_ids(out).tolist() == [term("a"), term("b"), term("c")]
    assert b.productions == 0


def test_bcomp_two_runs_sorted_ids():
    b = RlslpBuilder()
    out = bcomp_string(text_to_levels(b"aabb"), b)
    # ids are handed out in sorted key order, in output ids; b comes
    # before a here because terminals sort by symbol value, not byte
    # value
    assert builder_rules(b) == [RunRule(term("b"), 2), RunRule(term("a"), 2)]
    assert output_ids(out).tolist() == [2, 1]


def test_bcomp_against_manual_scan():
    rng = random.Random(400)
    for _ in range(200):
        t = random_text(rng, max_len=300)
        if not t:
            continue
        b = RlslpBuilder()
        out = bcomp_string(text_to_levels(t), b)
        # replay: expand run symbols back and compare
        rules = builder_rules(b)
        expanded: list[int] = []
        for sym in output_ids(out).tolist():
            if sym > 0:
                rule = rules[sym - 1]
                expanded.extend([rule.base] * rule.exponent)
            else:
                expanded.append(sym)
        assert expanded == output_ids(text_to_levels(t)).tolist()
        # no two adjacent symbols equal afterwards
        assert all(out[i] != out[i + 1] for i in range(len(out) - 1))


def test_pair_stats_counts_and_alphabet():
    s = text_to_levels(b"abab")
    maps = pair_stats_string(s)
    assert set(maps.syms) == {level("a"), level("b")}
    assert dict(oriented_items(maps)) == {
        (level("a"), level("b")): 2, (level("b"), level("a")): 1}
    assert total_weight(maps) == 3


def test_pcomp_replaces_crossing_pairs():
    b = RlslpBuilder()
    part = Partition({level("a"): True, level("b"): False})
    out = pcomp_string(text_to_levels(b"abab"), part, b)
    assert output_ids(out).tolist() == [1, 1]
    assert builder_rules(b) == [SeqRule((term("a"), term("b")))]


def test_pcomp_trailing_symbol_survives():
    b = RlslpBuilder()
    part = Partition({level("a"): True, level("b"): False})
    out = pcomp_string(text_to_levels(b"aba"), part, b)
    assert output_ids(out).tolist() == [1, term("a")]


def test_pcomp_one_sided_partition_is_identity():
    s = text_to_levels(b"abab")
    for sides in ({level("a"): True, level("b"): True},
                  {level("a"): False, level("b"): False}):
        b = RlslpBuilder()
        out = pcomp_string(s, Partition(sides), b)
        assert out.tolist() == s.tolist()
        assert b.productions == 0


def test_records_alternate_phases():
    res = recompress_string(b"abracadabra" * 20, strategy="mixed", seed=1)
    for i, rec in enumerate(res.records):
        assert rec.round == i
        assert rec.phase == ("bcomp" if i % 2 == 0 else "pcomp")
    assert res.records[-1].length_after == 1


def test_det_round_shrinks_by_a_quarter():
    rng = random.Random(401)
    for _ in range(40):
        t = random_text(rng, max_len=2000)
        if len(t) < 2:
            continue
        res = recompress_string(t, strategy="det")
        recs = res.records
        for i in range(0, len(recs) - 1, 2):
            n1 = recs[i].length_after      # after bcomp
            n2 = recs[i + 1].length_after  # after det pcomp
            assert 4 * n2 <= 3 * n1 + 1
        # phase lengths never increase
        lengths = [len(t)] + [r.length_after for r in recs]
        assert all(b <= a for a, b in zip(lengths, lengths[1:]))


def test_single_byte_needs_no_rounds():
    res = recompress_string(b"x")
    assert res.records == []
    assert res.grammar.rules == [SeqRule((term("x"),))]
    assert expand(res.grammar) == b"x"


def test_empty_text_rejected():
    with pytest.raises(ValueError):
        recompress_string(b"")


def test_round_trip_all_strategies():
    rng = random.Random(402)
    for strategy in ("det", "rand", "mixed"):
        for _ in range(60):
            t = random_text(rng, max_len=1200)
            if not t:
                continue
            res = recompress_string(t, strategy=strategy, seed=9)
            assert validate(res.grammar).ok
            assert expand(res.grammar) == t


def test_run_exponents_cover_whole_runs():
    res = recompress_string(b"a" * 1000)
    assert RunRule(term("a"), 1000) in res.grammar.rules
    assert expand(res.grammar) == b"a" * 1000


def test_seed_reproducibility_and_trace():
    t = mutated_text(random.Random(403), base_len=20, total_len=2000)
    r1 = recompress_string(t, strategy="rand", seed=5, collect_trace=True)
    r2 = recompress_string(t, strategy="rand", seed=5, collect_trace=True)
    assert r1.grammar.rules == r2.grammar.rules
    assert len(r1.trace) == len(r2.trace) == len(r1.records)
    for a, b in zip(r1.trace, r2.trace):
        assert np.array_equal(a, b)
    r3 = recompress_string(t, strategy="rand", seed=6)
    assert len(r3.partitions) >= 1  # logged for replay


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=1, max_size=300),
       st.sampled_from(["det", "rand", "mixed"]))
def test_round_trip_property(t, strategy):
    res = recompress_string(t, strategy=strategy, seed=3)
    assert expand(res.grammar) == t
