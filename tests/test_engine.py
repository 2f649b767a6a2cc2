"""Grammar-level recompression engine.

The string-level engine in naive.py is the oracle throughout: the
grammar engine must produce the same level strings, the same telemetry,
and the same output rules when fed the same partitions.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (mutated_text, random_rlslp, random_seq_grammar,
                      random_text)
from rlslp.engine import (LevelGrammar, _enc, bcomp,
                          collect_pair_frequencies, compute_nocc, dec, pcomp,
                          recompress)
from rlslp.grammar import (Grammar, GrammarError, RunRule, SeqRule,
                           decode_grammar, expand, expansion_lengths,
                           validate)
from rlslp.lz import parse_bentley_mcilroy
from rlslp.naive import (bcomp_string, pair_stats_string, pcomp_string,
                         recompress_string, text_to_levels)
from rlslp.partition import (STRATEGIES, ConvergenceError, Partition,
                             PartitionSource, RlslpBuilder,
                             randomized_partition)
from rlslp.pipeline import PipelineConfig, run_pipeline
from rlslp.slg import lz_to_slg, prune_slp, slg_to_slp


def term(ch: str) -> int:
    return -(ord(ch) + 1)


A, B = term("a"), term("b")


def slp_of(t: bytes) -> Grammar:
    return prune_slp(slg_to_slp(lz_to_slg(parse_bentley_mcilroy(t, 8))))


# --- symbol encoding ---------------------------------------------------


def test_enc_dec_frozen():
    assert _enc(np.array([A, 1, 5])).tolist() == [A, -257, -261]
    assert dec(-257) == 1
    assert dec(A) == A


@given(st.one_of(st.integers(-256, -1), st.integers(1, 10**9)))
def test_enc_dec_round_trip(sym):
    entry = int(_enc(np.array([sym]))[0])
    assert entry < 0
    assert dec(entry) == sym


# --- level grammar import ----------------------------------------------


def test_from_slp_expands_run_rules_by_doubling():
    g = Grammar([SeqRule((A, B)), RunRule(1, 1000), SeqRule((B, 2, A))])
    lg = LevelGrammar.from_slp(g)
    assert lg.level_string().tolist() == text_to_levels(expand(g)).tolist()
    # 1000 = 0b1111101000: nine doublings and five partial products
    assert len(lg) == 1 + 9 + 5 + 1
    assert LevelGrammar.from_slp(
        Grammar([RunRule(A, 3)])).level_string().tolist() == [A, A, A]
    with pytest.raises(GrammarError):
        LevelGrammar.from_slp(Grammar([RunRule(A, 1)]))


def test_recompress_accepts_run_length_grammars():
    rng = random.Random(512)
    for i in range(150):
        g = random_rlslp(rng)
        if expansion_lengths(g)[-1] > 20000:
            continue
        text = expand(g)
        rg = recompress(g, strategy="mixed", seed=i)
        assert expand(rg.grammar) == text
        assert rg.grammar.rules == recompress_string(
            text, strategy="mixed", seed=i).grammar.rules


def test_recompress_accepts_pipeline_output(tmp_path):
    text = mutated_text(random.Random(509), 40, 3000) + b"a" * 700
    inp, out = tmp_path / "in.bin", tmp_path / "out.slgf"
    inp.write_bytes(text)
    run_pipeline(inp, out, PipelineConfig(block_size=8))
    g = decode_grammar(out.read_bytes())
    assert any(isinstance(r, RunRule) for r in g.rules)
    res = recompress(g, strategy="mixed", seed=3)
    assert validate(res.grammar).ok
    assert expand(res.grammar) == text
    # imported run rules leave the level string as it was, so the
    # result equals the string engine's
    assert res.grammar.rules == recompress_string(
        text, strategy="mixed", seed=3).grammar.rules


def test_from_slp_drops_unreachable_rules():
    g = Grammar([SeqRule((A, B)), SeqRule((B, B)), SeqRule((1, A))])
    lg = LevelGrammar.from_slp(g)
    assert len(lg) == 2
    assert lg.level_string().tolist() == [A, B, A]


def test_from_slp_round_trips_a_deep_comb():
    # slg_to_slp makes one long rule a left comb, one layer per symbol
    rng = random.Random(513)
    t = bytes(rng.choice(b"abc") for _ in range(20000))
    g = slg_to_slp(Grammar([SeqRule(tuple(-(c + 1) for c in t))]))
    lg = LevelGrammar.from_slp(g)
    assert len(lg.layers) == 20000
    assert lg.level_string().tolist() == text_to_levels(t).tolist()
    assert expand(recompress(g).grammar) == t


def test_level_string_matches_expansion():
    rng = random.Random(500)
    for _ in range(150):
        g = random_seq_grammar(rng)
        lg = LevelGrammar.from_slp(g)
        assert lg.level_string().tolist() == text_to_levels(
            expand(g)).tolist()
        flat = lg.flattened()
        assert len(flat) == 1
        assert flat.level_string().tolist() == lg.level_string().tolist()


def test_level_lengths_frozen():
    lg = LevelGrammar.from_slp(
        Grammar([SeqRule((A, B)), SeqRule((1, 1, A))]))
    lengths, size = lg.level_lengths()
    assert lengths.tolist() == [0, 2, 5]
    assert size == 5


# --- bcomp --------------------------------------------------------------


def test_bcomp_frozen_ids_and_level():
    g = Grammar([SeqRule((A, A)), SeqRule((1, A)), SeqRule((B, B)),
                 SeqRule((3, B)), SeqRule((2, 4)), SeqRule((5, 1))])
    assert expand(g) == b"aaabbbaa"
    builder = RlslpBuilder()
    out = bcomp(LevelGrammar.from_slp(g), builder)
    assert builder.rules == [RunRule(B, 3), RunRule(A, 2), RunRule(A, 3)]
    assert out.level_string().tolist() == [3, 1, 2]


def test_bcomp_matches_string_engine():
    rng = random.Random(502)
    for _ in range(150):
        t = random_text(rng, max_len=600)
        if not t:
            continue
        slp = slp_of(t)
        bg, bs = RlslpBuilder(), RlslpBuilder()
        out = bcomp(LevelGrammar.from_slp(slp), bg)
        want = bcomp_string(text_to_levels(t), bs)
        got = out.level_string()
        assert got.tolist() == want.tolist()
        assert bg.rules == bs.rules
        assert all(got[i] != got[i + 1] for i in range(len(got) - 1))


def test_bcomp_runs_across_rule_boundaries_frozen():
    g = Grammar([SeqRule((A, A, A, B)), SeqRule((B, B, A, A)),
                 SeqRule((1, 2))])
    builder = RlslpBuilder()
    out = bcomp(LevelGrammar.from_slp(g), builder)
    assert builder.rules == [RunRule(B, 3), RunRule(A, 2), RunRule(A, 3)]
    assert out.level_string().tolist() == [3, 1, 2]
    builder = RlslpBuilder()
    out = bcomp(LevelGrammar.from_slp(Grammar([SeqRule((A, B))])), builder)
    assert builder.rules == []
    assert out.level_string().tolist() == [A, B]


def test_bcomp_long_run_across_children():
    # a^1000 = a^512 a^256 a^128 a^64 a^32 a^8, each built by doubling,
    # so the run spans six children and its length exceeds a byte
    rules = [SeqRule((A, A))]
    for _ in range(8):
        rules.append(SeqRule((len(rules), len(rules))))
    rules.append(SeqRule((9, 8, 7, 6, 5, 3)))
    rules.append(SeqRule((B, 10, B, 1, 10)))
    g = Grammar(rules)
    bg, bs = RlslpBuilder(), RlslpBuilder()
    out = bcomp(LevelGrammar.from_slp(g), bg)
    want = bcomp_string(text_to_levels(expand(g)), bs)
    assert out.level_string().tolist() == want.tolist()
    assert bg.rules == bs.rules == [RunRule(A, 1000), RunRule(A, 1002)]
    assert want.tolist() == [B, 1, B, 2]


def level_runs(g: Grammar) -> list[tuple[int, int]]:
    """The maximal runs of g's level string, as bcomp replaces them:
    a run rule's id stands for (base, exponent), any other symbol for
    a run of one."""
    builder = RlslpBuilder()
    out = bcomp(LevelGrammar.from_slp(g), builder).level_string().tolist()
    runs = []
    for s in out:
        r = builder.rules[s - 1] if s > 0 else None
        runs.append((r.base, r.exponent) if isinstance(r, RunRule)
                    else (s, 1))
    return runs


def boundary_runs(g: Grammar, j: int
                  ) -> tuple[tuple[int, int], tuple[int, int]]:
    """Maximal prefix and suffix run of rule j's level expansion."""
    runs = level_runs(Grammar(g.rules[:j]))
    return runs[0], runs[-1]


def test_run_vector_overflow_entries():
    # run lengths above a byte and at its edge, each merged across
    # child boundaries, come out of run replacement whole
    g = Grammar([SeqRule((B,) * 150), SeqRule((A,) * 127),
                 SeqRule((1,) + (B,) * 105),
                 SeqRule((A, A, A, 1, 1, 2, 2, 3))])
    runs = level_runs(g)
    assert len(runs) == 4
    assert runs == [(A, 3), (B, 300), (A, 254), (B, 255)]


def test_compute_runs_frozen():
    g = Grammar([SeqRule((A, A, A, B)), SeqRule((B, B, A, A)),
                 SeqRule((1, 2))])
    assert boundary_runs(g, 1) == ((A, 3), (B, 1))
    assert boundary_runs(g, 2) == ((B, 2), (A, 2))
    assert boundary_runs(g, 3) == ((A, 3), (A, 2))


def test_compute_runs_single_pair_rule():
    g = Grammar([SeqRule((A, B))])
    assert boundary_runs(g, 1) == ((A, 1), (B, 1))


def test_compute_runs_long_run_exceeds_byte():
    g = Grammar([SeqRule((A,) * 300)])
    assert boundary_runs(g, 1) == ((A, 300), (A, 300))


def _comb(rng: random.Random, depth: int) -> Grammar:
    """Left-deep chain: every rule extends the previous one by a short
    run, so the height equals the rule count."""
    rules = [SeqRule((A,))]
    for j in range(1, depth):
        sym = rng.choice((A, B, term("c")))
        rules.append(SeqRule((j,) + (sym,) * rng.randint(1, 3)))
    return Grammar(rules)


def _unbalanced_grammars(rng: random.Random):
    made = 0
    while made < 60:
        g = random_seq_grammar(rng, max_rules=40, max_rhs=6)
        if expansion_lengths(g)[-1] > 20000:
            continue
        yield g
        if made % 6 == 0:
            yield _comb(rng, rng.randint(50, 300))
        made += 1


def test_layered_sweeps_match_string_engine_on_unbalanced_grammars():
    rng = random.Random(510)
    for g in _unbalanced_grammars(rng):
        text = expand(g)
        bg, bs = RlslpBuilder(), RlslpBuilder()
        lg = bcomp(LevelGrammar.from_slp(g), bg)
        s = bcomp_string(text_to_levels(text), bs)
        assert lg.level_string().tolist() == s.tolist()
        assert bg.rules == bs.rules
        if len(s) < 2:
            continue
        pairs, alphabet = collect_pair_frequencies(lg, compute_nocc(lg))
        want_pairs, want_alphabet = pair_stats_string(s)
        assert set(alphabet) == set(want_alphabet)
        assert dict(pairs.oriented_items()) == dict(
            want_pairs.oriented_items())
        part = randomized_partition(alphabet, random.Random(rng.random()))
        out = pcomp(lg, part, bg)
        assert out.level_string().tolist() == pcomp_string(
            s, part, bs).tolist()
        assert bg.rules == bs.rules


def test_recompress_lock_step_on_unbalanced_grammars():
    rng = random.Random(511)
    for i, g in enumerate(_unbalanced_grammars(rng)):
        text = expand(g)
        rs = recompress_string(text, strategy="rand", seed=i,
                               collect_trace=True)
        rg = recompress(g, strategy="rand", seed=i, collect_trace=True)
        assert [t.tolist() for t in rg.trace] == [t.tolist()
                                                 for t in rs.trace]
        assert rg.grammar.rules == rs.grammar.rules


# --- occurrence counts and pair statistics -----------------------------


def test_nocc_frozen():
    g = Grammar([SeqRule((A, B)), SeqRule((1, 1)), SeqRule((2, 2))])
    occ = compute_nocc(LevelGrammar.from_slp(g))
    assert occ.tolist() == [0, 4, 2, 1]


def test_nocc_single_rule():
    occ = compute_nocc(LevelGrammar.from_slp(Grammar([SeqRule((A, B))])))
    assert occ.tolist() == [0, 1]


def test_nocc_against_tree_walk():
    rng = random.Random(503)
    checked = 0
    while checked < 200:
        lg = LevelGrammar.from_slp(random_seq_grammar(rng))
        m = len(lg)
        nodes = [0] * (m + 1)
        for j in range(1, m + 1):
            nodes[j] = 1 + sum(nodes[e] for e in lg.rhs(j) if e > 0)
        if nodes[m] > 10000:
            continue
        counts = [0] * (m + 1)
        stack = [m]
        while stack:
            j = stack.pop()
            counts[j] += 1
            for e in lg.rhs(j):
                if e > 0:
                    stack.append(e)
        assert compute_nocc(lg).tolist() == counts
        checked += 1


def test_pair_frequencies_frozen():
    g = Grammar([SeqRule((A, B)), SeqRule((A, B)), SeqRule((1, 2))])
    lg = LevelGrammar.from_slp(g)
    maps, alphabet = collect_pair_frequencies(lg, compute_nocc(lg))
    assert set(alphabet) == {A, B}
    assert dict(maps.oriented_items()) == {(A, B): 2, (B, A): 1}


def test_pair_frequencies_match_level_string():
    rng = random.Random(504)
    for _ in range(200):
        lg = LevelGrammar.from_slp(random_seq_grammar(rng))
        lengths, _ = lg.level_lengths()
        if lengths[-1] > 50000:
            continue
        maps, alphabet = collect_pair_frequencies(lg, compute_nocc(lg))
        s = lg.level_string()
        want_maps, want_alpha = pair_stats_string(s)
        assert set(alphabet) == set(want_alpha)
        assert dict(maps.oriented_items()) == dict(want_maps.oriented_items())
        assert maps.total_weight() == len(s) - 1


# --- pcomp --------------------------------------------------------------


def test_pcomp_matches_string_engine():
    rng = random.Random(505)
    for _ in range(300):
        t = random_text(rng, max_len=500)
        if len(t) < 2:
            continue
        bg, bs = RlslpBuilder(), RlslpBuilder()
        lg = bcomp(LevelGrammar.from_slp(slp_of(t)), bg)
        s = bcomp_string(text_to_levels(t), bs)
        if len(s) < 2:
            continue
        _, alphabet = pair_stats_string(s)
        part = randomized_partition(alphabet, random.Random(rng.random()))
        out = pcomp(lg, part, bg)
        want = pcomp_string(s, part, bs)
        assert out.level_string().tolist() == want.tolist()
        assert bg.rules == bs.rules


# --- full runs ----------------------------------------------------------


def test_recompress_single_byte():
    res = recompress(Grammar([SeqRule((A,))]))
    assert res.records == []
    assert res.grammar.rules == [SeqRule((A,))]
    assert expand(res.grammar) == b"a"


def test_recompress_trace_frozen():
    res = recompress(slp_of(b"abaaaaba"), collect_trace=True)
    assert res.trace[0].tolist() == [A, B, 1, B, A]
    assert res.grammar.rules[0] == RunRule(A, 4)
    assert expand(res.grammar) == b"abaaaaba"


def test_recompress_empty_grammar_rejected():
    with pytest.raises(GrammarError):
        recompress(Grammar([]))


def test_recompress_no_convergence_is_typed(monkeypatch):
    import rlslp.engine
    monkeypatch.setattr(rlslp.engine, "round_limit", lambda n: 1)
    with pytest.raises(ConvergenceError, match="within 1 phases"):
        recompress(slp_of(b"abracadabra"))


def test_recompress_records_phase_seconds():
    res = recompress(slp_of(b"abracadabra" * 20))
    assert res.records and all(r.seconds > 0 for r in res.records)


def test_recompress_round_trips():
    rng = random.Random(506)
    texts = [b"a", b"a" * 5000, b"ab" * 700, bytes(range(256)) * 3]
    texts += [random_text(rng, max_len=1500) for _ in range(60)]
    texts += [mutated_text(rng, 30, 2500) for _ in range(20)]
    for t in texts:
        if not t:
            continue
        res = recompress(slp_of(t), strategy="mixed", seed=13)
        assert validate(res.grammar).ok
        assert expand(res.grammar) == t


def test_lock_step_with_string_engine():
    rng = random.Random(507)
    mismatches = 0
    for i in range(150):
        t = random_text(rng, max_len=500)
        if not t:
            continue
        strategy = ("det", "rand", "mixed")[i % 3]
        rs = recompress_string(t, strategy=strategy, seed=i,
                               collect_trace=True)
        rg = recompress(slp_of(t), strategy=strategy, seed=i,
                        collect_trace=True)
        assert len(rs.trace) == len(rg.trace)
        for a, b in zip(rs.trace, rg.trace):
            if not np.array_equal(a, b):
                mismatches += 1
                break
        assert rg.grammar.rules == rs.grammar.rules
        for x, y in zip(rg.records, rs.records):
            assert (x.round, x.phase, x.length_after, x.new_rules,
                    x.replaced_weight, x.total_weight) == \
                   (y.round, y.phase, y.length_after, y.new_rules,
                    y.replaced_weight, y.total_weight)
        assert all(r.work_size > 0 for r in rg.records)
    assert mismatches == 0


def test_injected_partitions_reproduce_string_run():
    rng = random.Random(508)
    for _ in range(30):
        t = mutated_text(rng, 25, rng.randint(100, 2000))
        rs = recompress_string(t, strategy="mixed", seed=77)
        src = PartitionSource(injected=rs.partitions)
        rg = recompress(slp_of(t), source=src)
        assert rg.grammar.rules == rs.grammar.rules


def _random_sides(rng: random.Random, t: bytes, count: int):
    """Partitions over the terminals of t and the rule ids up to len(t),
    more than recompressing t can make (each new rule shortens the level
    string): each symbol left, right or on neither side."""
    syms = [-(c + 1) for c in sorted(set(t))] + list(range(1, len(t) + 1))
    return [Partition({s: rng.random() < 0.5 for s in syms
                       if rng.random() < 0.9}) for _ in range(count)]


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.binary(min_size=1, max_size=120),
                 st.lists(st.integers(97, 99), min_size=1,
                          max_size=150).map(bytes)),
       st.integers(0, 2**32 - 1))
def test_run_keys_never_repeat_across_rounds(t, seed):
    results = []
    for strategy in STRATEGIES:
        results.append(recompress_string(t, strategy=strategy, seed=seed))
        results.append(recompress(slp_of(t), strategy=strategy, seed=seed))
    parts = _random_sides(random.Random(seed), t, 150)
    rs = recompress_string(t, source=PartitionSource(injected=parts))
    rg = recompress(slp_of(t), source=PartitionSource(injected=parts))
    assert rg.grammar.rules == rs.grammar.rules
    for res in results + [rs, rg]:
        runs = [r for r in res.grammar.rules if isinstance(r, RunRule)]
        assert len(set(runs)) == len(runs)


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=1, max_size=250), st.integers(0, 2**32 - 1))
def test_engine_equality_property(t, seed):
    rs = recompress_string(t, strategy="mixed", seed=seed)
    rg = recompress(slp_of(t), strategy="mixed", seed=seed)
    assert rg.grammar.rules == rs.grammar.rules
    assert expand(rg.grammar) == t
