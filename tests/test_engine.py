"""Grammar-level recompression engine.

The string-level engine in naive.py is the oracle throughout: the
grammar engine must produce the same level strings, the same telemetry,
and the same output rules when fed the same partitions.
"""

import inspect
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (mutated_text, random_rlslp, random_seq_grammar,
                      random_text)
from rlslp.engine import (LevelGrammar, bcomp, collect_pair_frequencies,
                          compute_nocc, inline, pcomp, recompress)
from rlslp.dataset import gen_dataset, load_sample
from rlslp.grammar import (Grammar, GrammarError, RunRule, SeqRule,
                           decode_grammar, expand, expansion_lengths,
                           validate)
from rlslp.lz import parse_bentley_mcilroy
from rlslp.naive import (bcomp_string, pair_stats_string, pcomp_string,
                         recompress_string, text_to_levels)
from rlslp.partition import (STRATEGIES, ConvergenceError, Partition,
                             PartitionSource, RlslpBuilder, output_ids,
                             randomized_partition)
from rlslp.pipeline import PipelineConfig, run_pipeline
from rlslp.slg import lz_to_slg, prune_slp
from reference import (builder_rules, oriented_items, ref_inline,
                       ref_slg_to_slp, replaced_weight, rhs, sides,
                       symbol_rank, total_weight)


def term(ch: str) -> int:
    return -(ord(ch) + 1)


A, B, C, D = term("a"), term("b"), term("c"), term("d")


def slp_of(t: bytes) -> Grammar:
    return prune_slp(lz_to_slg(parse_bentley_mcilroy(t, 8)))


# --- symbol encoding ---------------------------------------------------


def test_enc_dec_frozen():
    # a working entry stores output symbol s as -symbol_rank(s), and
    # output_ids reads the rank back
    assert [-symbol_rank(s) for s in (A, 1, 5)] == [A, -257, -261]
    assert output_ids(-np.array([-257])).tolist() == [1]
    assert output_ids(-np.array([A])).tolist() == [A]
    assert rhs(LevelGrammar.from_slp(Grammar([SeqRule((A, B))])), 1) == \
        [A, B]


@given(st.one_of(st.integers(-256, -1), st.integers(1, 10**9)))
def test_enc_dec_round_trip(sym):
    entry = -symbol_rank(sym)
    assert entry < 0
    assert output_ids(-np.array([entry])).tolist() == [sym]


# --- level grammar import ----------------------------------------------


def test_from_slp_expands_run_rules_by_doubling():
    g = Grammar([SeqRule((A, B)), RunRule(1, 1000), SeqRule((B, 2, A))])
    lg = LevelGrammar.from_slp(g)
    assert lg.level_string().tolist() == text_to_levels(expand(g)).tolist()
    # 1000 = 0b1111101000: nine doublings and five partial products
    assert len(lg) == 1 + 9 + 5 + 1
    assert output_ids(LevelGrammar.from_slp(
        Grammar([RunRule(A, 3)])).level_string()).tolist() == [A, A, A]
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
    assert output_ids(lg.level_string()).tolist() == [A, B, A]


def with_dead_rules(g: Grammar, rng: random.Random) -> Grammar:
    """g with one to five rules its start does not reach inserted at
    random places before the start, the first a run rule of exponent
    2^64 - 1."""
    m = len(g)
    at = sorted(rng.randrange(m) for _ in range(rng.randint(1, 5)))
    rules: list = []
    new = [0] * (m + 1)

    def sym() -> int:
        if rules and rng.random() < 0.5:
            return rng.randint(1, len(rules))
        return -rng.randint(1, 4)

    def ref(s: int) -> int:
        return s if s < 0 else new[s]

    for i, rule in enumerate(g.rules, start=1):
        for k in range(at.count(i - 1)):
            first = k == 0 and at[0] == i - 1
            rules.append(RunRule(sym(), 2**64 - 1) if first
                         else SeqRule((sym(), sym())))
        if isinstance(rule, RunRule):
            rules.append(RunRule(ref(rule.base), rule.exponent))
        else:
            rules.append(SeqRule(tuple(map(ref, rule.rhs))))
        new[i] = len(rules)
    return Grammar(rules)


def test_from_slp_prunes_before_doubling(monkeypatch):
    import rlslp.engine
    exponents = []

    def power(join, x, q):
        exponents.append(q)
        return rlslp.grammar.power(join, x, q)

    monkeypatch.setattr(rlslp.engine, "power", power)
    rng = random.Random(523)
    for _ in range(300):
        g = with_dead_rules(random_rlslp(rng), rng)
        assert len(prune_slp(g)) < len(g)
        lg, ref = LevelGrammar.from_slp(g), LevelGrammar.from_slp(prune_slp(g))
        assert np.array_equal(lg.ptr, ref.ptr)
        assert np.array_equal(lg.ent, ref.ent)
        assert lg.layers == ref.layers
    # a dead run rule is dropped, never doubled
    assert exponents and 2**64 - 1 not in exponents


def test_from_slp_round_trips_a_deep_comb():
    # ref_slg_to_slp makes one long rule a left comb, one layer per symbol
    rng = random.Random(513)
    t = bytes(rng.choice(b"abc") for _ in range(20000))
    g = ref_slg_to_slp(Grammar([SeqRule(tuple(-(c + 1) for c in t))]))
    lg = LevelGrammar.from_slp(g)
    assert len(lg.layers) == 20000
    assert lg.level_string().tolist() == text_to_levels(t).tolist()
    assert expand(recompress(g).grammar) == t


# --- inlining single-use rules ------------------------------------------


@st.composite
def slps(draw) -> Grammar:
    """Grammars whose import has run rules made by doubling, rules
    referenced more than once, or a left comb of single-use rules."""
    if draw(st.booleans()):
        t = draw(st.lists(st.sampled_from((A, B, C)), min_size=1,
                          max_size=200))
        return ref_slg_to_slp(Grammar([SeqRule(tuple(t))]))
    rules = []
    for i in range(1, draw(st.integers(1, 10)) + 1):
        sym = st.integers(-3, -1)
        if i > 1:
            sym = st.one_of(sym, st.integers(1, i - 1))
        if draw(st.integers(0, 3)) == 0:
            rules.append(RunRule(draw(sym), draw(st.integers(2, 9))))
        else:
            rules.append(SeqRule(tuple(draw(st.lists(sym, min_size=1,
                                                     max_size=4)))))
    return Grammar(rules)


@settings(max_examples=200, deadline=None)
@given(slps())
def test_inline_matches_reference(g):
    assume(expansion_lengths(g)[-1] <= 20000)
    lg = LevelGrammar.from_slp(g)
    out = inline(lg)
    m = len(out)
    assert out.level_string().tolist() == lg.level_string().tolist()
    rules, layers = ref_inline([rhs(lg, j) for j in range(1, len(lg) + 1)])
    assert [rhs(out, j) for j in range(1, m + 1)] == rules
    assert out.layers == layers
    # no rule but the start is referenced once, and the start not at all
    refs = np.bincount(out.ent[out.ent > 0], minlength=m + 1)
    assert (refs[1:m] >= 2).all() and refs[m] == 0
    assert inline(out) is out
    layer = np.searchsorted(out.layers, np.arange(m + 1)) - 1
    for j in range(1, m + 1):
        assert all(layer[e] < layer[j] for e in rhs(out, j) if e > 0)
    assert out.layers[-2] == m - 1


def test_inline_flattens_a_deep_comb():
    rng = random.Random(513)
    t = bytes(rng.choice(b"abc") for _ in range(20000))
    g = ref_slg_to_slp(Grammar([SeqRule(tuple(-(c + 1) for c in t))]))
    lg = inline(LevelGrammar.from_slp(g))
    assert len(lg) == 1 and lg.layers == [0, 1]
    # a level symbol r is stored as -r
    assert rhs(lg, 1) == (-text_to_levels(t)).tolist()


def test_level_string_matches_expansion():
    rng = random.Random(500)
    for _ in range(150):
        g = random_seq_grammar(rng)
        lg = LevelGrammar.from_slp(g)
        assert lg.level_string().tolist() == text_to_levels(
            expand(g)).tolist()


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
    assert builder_rules(builder) == [RunRule(B, 3), RunRule(A, 2),
                                      RunRule(A, 3)]
    assert output_ids(out.level_string()).tolist() == [3, 1, 2]


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
        assert builder_rules(bg) == builder_rules(bs)
        assert all(got[i] != got[i + 1] for i in range(len(got) - 1))


def test_bcomp_runs_across_rule_boundaries_frozen():
    g = Grammar([SeqRule((A, A, A, B)), SeqRule((B, B, A, A)),
                 SeqRule((1, 2))])
    builder = RlslpBuilder()
    out = bcomp(LevelGrammar.from_slp(g), builder)
    assert builder_rules(builder) == [RunRule(B, 3), RunRule(A, 2),
                                      RunRule(A, 3)]
    assert output_ids(out.level_string()).tolist() == [3, 1, 2]
    builder = RlslpBuilder()
    out = bcomp(LevelGrammar.from_slp(Grammar([SeqRule((A, B))])), builder)
    assert builder_rules(builder) == []
    assert output_ids(out.level_string()).tolist() == [A, B]


def test_bcomp_finds_a_run_across_a_rule_boundary():
    # bb lies between rules 1 and 2, inside no rule's entries
    lg = LevelGrammar.from_slp(
        Grammar([SeqRule((A, B)), SeqRule((B, C)), SeqRule((1, 2))]))
    builder = RlslpBuilder()
    out = bcomp(lg, builder)
    assert out is not lg
    assert builder_rules(builder) == [RunRule(B, 2)]
    assert output_ids(out.level_string()).tolist() == [A, 1, C]


def test_bcomp_keeps_the_runs_of_an_uncrossed_rule():
    # no occurrence of rule 1 has an a next to it, so it keeps its
    # boundary runs and survives as a rule of its own
    g = Grammar([SeqRule((A, B, B, A)), SeqRule((1, C, 1, D, D))])
    bg, bs = RlslpBuilder(), RlslpBuilder()
    out = bcomp(LevelGrammar.from_slp(g), bg)
    assert builder_rules(bg) == [RunRule(D, 2), RunRule(B, 2)]
    assert (len(out), len(out.ent)) == (2, 7)
    assert rhs(out, 1) == [A, -258, A]
    assert rhs(out, 2) == [1, C, 1, -257]
    want = bcomp_string(text_to_levels(expand(g)), bs)
    assert out.level_string().tolist() == want.tolist()
    assert builder_rules(bg) == builder_rules(bs)


def test_bcomp_keeps_exactly_the_grammars_without_runs():
    rng = random.Random(514)
    kept = rewritten = 0
    for i in range(400):
        lg = LevelGrammar.from_slp(random_seq_grammar(
            rng, sigma=rng.choice((2, 3, 4))))
        if i % 2:
            lg = inline(lg)
        if i % 3 and len(lg.level_string()) >= 2:
            # a later round's grammar, over fresh pair symbols
            lg = bcomp(lg, RlslpBuilder())
            alphabet = collect_pair_frequencies(lg, compute_nocc(lg)).syms
            part = randomized_partition(alphabet, random.Random(i))
            lg = pcomp(lg, part, RlslpBuilder())
        s = lg.level_string()
        bg, bs = RlslpBuilder(), RlslpBuilder()
        out = bcomp(lg, bg)
        want = bcomp_string(s, bs)
        assert (out is lg) == (bs.productions == 0)
        assert out.level_string().tolist() == want.tolist()
        assert builder_rules(bg) == builder_rules(bs)
        kept += out is lg
        rewritten += out is not lg
    assert kept > 50 and rewritten > 50


def test_recompress_laps_kept_run_rounds():
    res = recompress(slp_of(mutated_text(random.Random(515), 30, 3000)))
    on_grammar = _grammar_rounds(res.records)
    kept = [r for r in res.records[:on_grammar]
            if r.phase == "bcomp" and r.new_rules == 0]
    assert kept
    assert all(r.rewrite_s > 0 and r.level_lengths_s > 0 for r in kept)


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
    assert builder_rules(bg) == builder_rules(bs) == [RunRule(A, 1000),
                                                      RunRule(A, 1002)]
    assert output_ids(want).tolist() == [B, 1, B, 2]


def level_runs(g: Grammar) -> list[tuple[int, int]]:
    """The maximal runs of g's level string, as bcomp replaces them:
    a run rule's id stands for (base, exponent), any other symbol for
    a run of one."""
    builder = RlslpBuilder()
    out = bcomp(LevelGrammar.from_slp(g), builder).level_string()
    rules = builder_rules(builder)
    runs = []
    for s in output_ids(out).tolist():
        r = rules[s - 1] if s > 0 else None
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


def same_table(a, b) -> bool:
    """Whether two pair tables are equal array for array."""
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("syms", "first", "second", "weight"))


def test_layered_sweeps_match_string_engine_on_unbalanced_grammars():
    rng = random.Random(510)
    for g in _unbalanced_grammars(rng):
        text = expand(g)
        bg, bs = RlslpBuilder(), RlslpBuilder()
        lg = bcomp(LevelGrammar.from_slp(g), bg)
        s = bcomp_string(text_to_levels(text), bs)
        assert lg.level_string().tolist() == s.tolist()
        assert builder_rules(bg) == builder_rules(bs)
        if len(s) < 2:
            continue
        pairs = collect_pair_frequencies(lg, compute_nocc(lg))
        want_pairs = pair_stats_string(s)
        assert set(pairs.syms) == set(want_pairs.syms)
        assert dict(oriented_items(pairs)) == dict(
            oriented_items(want_pairs))
        assert same_table(pairs, want_pairs)
        part = randomized_partition(pairs.syms, random.Random(rng.random()))
        out = pcomp(lg, part, bg)
        assert out.level_string().tolist() == pcomp_string(
            s, part, bs).tolist()
        assert builder_rules(bg) == builder_rules(bs)


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
            nodes[j] = 1 + sum(nodes[e] for e in rhs(lg, j) if e > 0)
        if nodes[m] > 10000:
            continue
        counts = [0] * (m + 1)
        stack = [m]
        while stack:
            j = stack.pop()
            counts[j] += 1
            for e in rhs(lg, j):
                if e > 0:
                    stack.append(e)
        assert compute_nocc(lg).tolist() == counts
        checked += 1


def test_pair_frequencies_frozen():
    g = Grammar([SeqRule((A, B)), SeqRule((A, B)), SeqRule((1, 2))])
    lg = LevelGrammar.from_slp(g)
    maps = collect_pair_frequencies(lg, compute_nocc(lg))
    assert set(output_ids(maps.syms)) == {A, B}
    a, b = symbol_rank(A), symbol_rank(B)
    assert dict(oriented_items(maps)) == {(a, b): 2, (b, a): 1}


def test_pair_frequencies_match_level_string():
    rng = random.Random(504)
    for _ in range(200):
        lg = LevelGrammar.from_slp(random_seq_grammar(rng))
        lengths, _ = lg.level_lengths()
        if lengths[-1] > 50000:
            continue
        maps = collect_pair_frequencies(lg, compute_nocc(lg))
        s = lg.level_string()
        want_maps = pair_stats_string(s)
        assert set(maps.syms) == set(want_maps.syms)
        assert dict(oriented_items(maps)) == dict(oriented_items(want_maps))
        assert same_table(maps, want_maps)
        assert total_weight(maps) == len(s) - 1


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
        alphabet = pair_stats_string(s).syms
        part = randomized_partition(alphabet, random.Random(rng.random()))
        out = pcomp(lg, part, bg)
        want = pcomp_string(s, part, bs)
        assert out.level_string().tolist() == want.tolist()
        assert builder_rules(bg) == builder_rules(bs)


def test_pcomp_keeps_an_uncrossed_right_side_first_symbol():
    # b is on the right side but follows no left-side symbol, so it
    # stays in rule 1, which survives as [b, (ac)]
    g = Grammar([SeqRule((B, A, C)), SeqRule((1, D, 1))])
    part = Partition({symbol_rank(A): True, symbol_rank(B): False,
                      symbol_rank(C): False, symbol_rank(D): False})
    bg, bs = RlslpBuilder(), RlslpBuilder()
    out = pcomp(LevelGrammar.from_slp(g), part, bg)
    assert builder_rules(bg) == [SeqRule((A, C))]
    assert (len(out), len(out.ent)) == (2, 5)
    assert rhs(out, 1) == [B, -257]
    assert rhs(out, 2) == [1, D, 1]
    want = pcomp_string(text_to_levels(expand(g)), part, bs)
    assert out.level_string().tolist() == want.tolist()
    assert builder_rules(bg) == builder_rules(bs)


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


def test_recompress_empty_reachable_rule_rejected():
    for g in (Grammar([SeqRule(())]),
              Grammar([SeqRule(()), SeqRule((1, -1))])):
        with pytest.raises(GrammarError, match="rule 1: empty rhs"):
            recompress(g)


def test_recompress_invalid_grammar_names_the_rule():
    for g, rule in ((Grammar([SeqRule((-300, -1, -300))]), 1),
                    (Grammar([SeqRule((-1, -2)), SeqRule((1, 5))]), 2),
                    (Grammar([SeqRule((0, -1))]), 1)):
        with pytest.raises(GrammarError, match=f"^rule {rule}: "):
            recompress(g)


def test_recompress_no_convergence_is_typed(monkeypatch):
    import rlslp.engine
    monkeypatch.setattr(rlslp.engine, "round_limit", lambda n: 1)
    with pytest.raises(ConvergenceError, match="within 1 phases"):
        recompress(slp_of(b"abracadabra"))


def test_recompress_records_phase_seconds():
    res = recompress(slp_of(b"abracadabra" * 20))
    assert res.records and all(r.seconds > 0 for r in res.records)


def _grammar_rounds(records) -> int:
    """How many leading rounds ran on the working grammar: up to the
    first whose level string is no longer than the grammar, for an input
    whose level string starts out longer."""
    return next((i + 1 for i, r in enumerate(records)
                 if r.length_after <= r.work_size), len(records))


def test_recompress_splits_phase_seconds():
    res = recompress(slp_of(b"abracadabra" * 20))
    on_grammar = _grammar_rounds(res.records)
    assert 0 < on_grammar < len(res.records)
    for i, r in enumerate(res.records):
        parts = (r.nocc_s + r.pair_count_s + r.partition_s + r.rewrite_s
                 + r.level_lengths_s)
        assert parts == pytest.approx(r.seconds)
        pair_round = r.phase == "pcomp"
        assert r.rewrite_s > 0
        assert (r.pair_count_s > 0, r.partition_s > 0) == (pair_round,
                                                          pair_round)
        if i < on_grammar:
            assert r.level_lengths_s > 0
            assert (r.nocc_s > 0) == pair_round
        else:
            # string rounds count no occurrences and no level lengths
            assert r.nocc_s == r.level_lengths_s == 0


def test_recompress_hands_over_where_string_fits_grammar():
    g = slp_of(mutated_text(random.Random(510), 30, 3000))
    lengths, size = LevelGrammar.from_slp(g).level_lengths()
    assert lengths[-1] > size
    records = recompress(g).records
    on_grammar = _grammar_rounds(records)
    assert 0 < on_grammar < len(records)
    # grammar rounds carry the grammar size, string rounds len(s)
    assert all(r.level_lengths_s > 0 for r in records[:on_grammar])
    assert all(r.work_size == r.length_after and r.level_lengths_s == 0
               for r in records[on_grammar:])


def test_engine_work_tracks_the_grammar_not_the_text():
    # the paper's central claim, on deterministic counts: two texts 16x
    # apart with the same expected mutation count.  256 KiB gives 25,803
    # rules and a summed work of 521,506; 4 MiB gives 41,888 and
    # 1,325,953, so 1.6x the rules and 2.5x the work.  Work that tracked
    # the text would grow 16x.
    def counts(size: int) -> tuple[int, int]:
        text = gen_dataset(load_sample(), size, 1e-4 * (16 << 20) / size, 31)
        g = lz_to_slg(parse_bentley_mcilroy(text, 50))
        return len(g), sum(r.work_size for r in recompress(g).records)

    small_rules, small_work = counts(256 << 10)
    big_rules, big_work = counts(4 << 20)
    assert big_rules < 4 * small_rules
    assert big_work < 4 * small_work


def test_rules_stay_shared_on_the_acceptance_corpus():
    # the grammar rounds of recompress, by hand; after each, every rule
    # but the start is referenced at least twice, and the working
    # grammar stays below the 27,267 entries it peaked at when every
    # rule handed its boundaries up, crossed or not
    text = gen_dataset(load_sample(), 4 << 20, mutation_rate=1e-5, seed=21)
    g = prune_slp(lz_to_slg(parse_bentley_mcilroy(text, 50)))
    records = recompress(g, "mixed", 42).records
    lg = inline(LevelGrammar.from_slp(g))
    source = PartitionSource("mixed", 42)
    builder = RlslpBuilder()
    lengths, size = lg.level_lengths()
    peak = size
    i = 0
    while lengths[-1] > size:
        if i % 2 == 0:
            lg = bcomp(lg, builder)
        else:
            pairs = collect_pair_frequencies(lg, compute_nocc(lg))
            lg = pcomp(lg, source.next_partition(pairs), builder)
        refs = np.bincount(lg.ent[lg.ent > 0], minlength=len(lg) + 1)
        assert refs[1:-1].min(initial=2) >= 2
        lengths, size = lg.level_lengths()
        assert (lengths[-1], size) == (records[i].length_after,
                                       records[i].work_size)
        peak = max(peak, size)
        i += 1
    assert i == _grammar_rounds(records) == 48
    assert peak < 27267


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
    """Partitions over the level symbols of the terminals of t and of
    the rule ids up to len(t), more than recompressing t can make (each
    new rule shortens the level string): each symbol left, right or on
    neither side."""
    syms = [c + 1 for c in sorted(set(t))] + list(range(257, len(t) + 257))
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


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.binary(min_size=2, max_size=150),
                 st.lists(st.integers(97, 99), min_size=2,
                          max_size=150).map(bytes)),
       st.integers(0, 2**32 - 1))
def test_pair_round_weights_are_the_length_drop(t, seed):
    parts = _random_sides(random.Random(seed), t, 150)
    results = []
    for strategy in STRATEGIES + (None,):
        for engine, arg in ((recompress_string, t), (recompress, slp_of(t))):
            source = (PartitionSource(injected=parts) if strategy is None
                      else PartitionSource(strategy, seed))
            results.append(engine(arg, source=source, collect_trace=True))
    for res in results:
        # round i is a pair round for odd i, with partition i // 2
        for i in range(1, len(res.records), 2):
            rec = res.records[i]
            before = res.records[i - 1].length_after
            assert rec.replaced_weight == before - rec.length_after
            assert rec.total_weight == before - 1
            # the partition's crossing weight on the level string before
            levels = [symbol_rank(x) for x in res.trace[i - 1].tolist()]
            pairs = pair_stats_string(np.array(levels))
            assert replaced_weight(pairs, res.partitions[i // 2]) == \
                rec.replaced_weight


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=1, max_size=250), st.integers(0, 2**32 - 1))
def test_engine_equality_property(t, seed):
    rs = recompress_string(t, strategy="mixed", seed=seed)
    rg = recompress(slp_of(t), strategy="mixed", seed=seed)
    assert rg.grammar.rules == rs.grammar.rules
    assert expand(rg.grammar) == t


def test_engines_share_one_entry_contract():
    # one signature: after the input, the same parameter names, order
    # and defaults
    def params(engine):
        return [(p.name, p.kind, p.default) for p in
                list(inspect.signature(engine).parameters.values())[1:]]

    assert params(recompress) == params(recompress_string)
    t = mutated_text(random.Random(24), base_len=300, total_len=3000)
    for engine, arg in ((recompress_string, t), (recompress, slp_of(t))):
        for strategy, seed in (("det", 5), ("rand", 5), ("mixed", 7)):
            a = engine(arg, strategy, seed)
            b = engine(arg, strategy=strategy, seed=seed)
            assert a.grammar.rules == b.grammar.rules
            assert [sides(p) for p in a.partitions] == \
                [sides(p) for p in b.partitions]
    # one admission gate: the import refuses the empty grammar with the
    # error recompress raises for it
    with pytest.raises(GrammarError) as gate:
        LevelGrammar.from_slp(Grammar())
    with pytest.raises(GrammarError) as entry:
        recompress(Grammar())
    assert str(gate.value) == str(entry.value) == \
        "cannot recompress an empty grammar"
