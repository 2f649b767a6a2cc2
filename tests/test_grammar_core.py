"""Grammar container: validation, expansion, sizes, serialization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import memo_sizes, random_rlslp
from reference import ref_expand
from rlslp import cli, grammar
from rlslp.engine import recompress
from rlslp.grammar import (FormatError, Grammar, GrammarError, RunRule,
                           SeqRule, decode_grammar, encode_grammar, expand,
                           expansion_lengths, grammar_size, iter_expansion,
                           term, validate)
from rlslp.slg import prune_slp

A, B = term(ord("a")), term(ord("b"))


def test_validate_accepts_single_binary_rule():
    assert validate(Grammar([SeqRule((-1, -2))])).ok


def test_validate_rejects_forward_reference():
    report = validate(Grammar([SeqRule((2,)), SeqRule((-1,))]))
    assert not report.ok
    assert report.rule_index == 1


def test_validate_rejects_degenerate_run():
    assert not validate(Grammar([RunRule(-1, 1)])).ok


def test_validate_rejects_self_reference_zero_and_empty():
    assert not validate(Grammar([SeqRule((1,))])).ok
    assert not validate(Grammar([SeqRule((0,))])).ok
    assert not validate(Grammar([SeqRule(())])).ok


def test_validate_rejects_terminal_outside_alphabet():
    assert not validate(Grammar([SeqRule((-3,))], alphabet_size=2)).ok
    assert validate(Grammar([SeqRule((-2,))], alphabet_size=2)).ok


def test_validate_rejects_alphabet_above_bytes():
    g = Grammar([SeqRule((-1, -2))], alphabet_size=400)
    report = validate(g)
    assert not report.ok and report.rule_index == 0
    assert "alphabet size 400" in report.message
    assert validate(Grammar([SeqRule((-1,))], alphabet_size=256)).ok
    with pytest.raises(GrammarError, match="alphabet size 400"):
        expand(g)
    # the one raising form names no rule for a fault outside the rules
    message = "^alphabet size 400 outside 0..256$"
    with pytest.raises(GrammarError, match=message):
        prune_slp(g)
    with pytest.raises(GrammarError, match=message):
        recompress(g)


def test_decode_rejects_alphabet_above_bytes():
    blob = encode_grammar(Grammar([SeqRule((-1,))], alphabet_size=400))
    with pytest.raises(FormatError, match="alphabet size 400"):
        decode_grammar(blob)


def test_expand_run_rule():
    # -2 is 'a' (byte 1), -3 is 'b' (byte 2): Run over the pair gives abab
    g = Grammar([SeqRule((-2, -3)), RunRule(1, 2)])
    assert expand(g) == bytes([1, 2, 1, 2])


def test_expand_single_terminal():
    assert expand(Grammar([SeqRule((-1,))])) == b"\x00"


def test_expand_named_rule_index():
    g = Grammar([SeqRule((A,)), SeqRule((B,)), SeqRule((1, 2))])
    assert expand(g, 1) == b"a"
    assert expand(g, 2) == b"b"
    assert expand(g) == b"ab"


def test_expansion_lengths_examples():
    assert expansion_lengths(Grammar([SeqRule((-1, -1))]))[1] == 2
    lens = expansion_lengths(Grammar([SeqRule((-1, -2)), RunRule(1, 3)]))
    assert lens[1:] == [2, 6]


def test_expansion_lengths_overflow_rejected():
    rules = [SeqRule((-1, -1))]
    for _ in range(70):
        rules.append(RunRule(len(rules), 2))
    with pytest.raises(GrammarError):
        expansion_lengths(Grammar(rules))


def test_expansion_lengths_rejects_invalid_grammars():
    # the lengths are indexed by symbol, so a terminal outside the
    # alphabet or a forward reference must not reach them
    for rules in ([SeqRule((-1,)), SeqRule((1, -300))],
                  [SeqRule((2,)), SeqRule((-1,))]):
        with pytest.raises(GrammarError):
            expansion_lengths(Grammar(rules))


def test_oversized_dead_rules_do_not_block_expansion(tmp_path):
    # rules 1-3 expand past 2^63-1, but the start rule never reaches them
    g = Grammar([RunRule(-4, 2**64 - 8), RunRule(1, 2),
                 SeqRule((2, -3, -2, -1)), RunRule(-3, 4)])
    assert validate(g).ok
    assert expand(g) == b"\x02" * 4
    grammar_path, text_path = tmp_path / "g.slgf", tmp_path / "text"
    grammar_path.write_bytes(encode_grammar(g))
    text_path.write_bytes(b"\x02" * 4)
    assert cli.main(["verify", str(grammar_path), str(text_path)]) == 0
    with pytest.raises(GrammarError):
        expand(g, 3)
    with pytest.raises(GrammarError):
        expand(Grammar([RunRule(-4, 2**64 - 8), SeqRule((1, 1))]))


def test_lengths_monotone_under_reference():
    rng = random.Random(5)
    for _ in range(50):
        g = random_rlslp(rng)
        lens = expansion_lengths(g)
        for i, rule in enumerate(g.rules, start=1):
            refs = (rule.base,) if isinstance(rule, RunRule) else rule.rhs
            for s in refs:
                if s > 0:
                    assert lens[i] >= lens[s]


def _size(g):
    s = grammar_size(g)
    return s.size, s.productions


def test_grammar_size_counts():
    assert _size(Grammar([SeqRule((-1, -2))])) == (2, 1)
    # a run rule counts as size 2 regardless of exponent
    assert _size(Grammar([SeqRule((-1, -2)), RunRule(1, 5)])) == (4, 2)
    assert _size(Grammar([])) == (0, 0)


def test_size_at_least_productions():
    rng = random.Random(6)
    for _ in range(50):
        g = random_rlslp(rng)
        size = grammar_size(g)
        assert size.size >= size.productions
        all_unary = all(isinstance(r, RunRule) or len(r.rhs) == 1
                        for r in g.rules)
        assert (size.size == size.productions) == (all_unary and not any(
            isinstance(r, RunRule) for r in g.rules))


def test_encode_single_terminal_frozen_stream():
    # 4 magic + 1 version + 8 alphabet + 8 count + (1 kind + 8 len + 8 sym)
    blob = encode_grammar(Grammar([SeqRule((-1,))]))
    expected = (b"SLGF" + bytes([1])
                + (256).to_bytes(8, "little")
                + (1).to_bytes(8, "little")
                + bytes([0])
                + (1).to_bytes(8, "little")
                + (-1).to_bytes(8, "little", signed=True))
    assert blob == expected
    assert len(blob) == 38


def test_decode_rejects_bad_streams():
    blob = encode_grammar(Grammar([SeqRule((-1,))]))
    with pytest.raises(FormatError):
        decode_grammar(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        decode_grammar(blob[:4] + bytes([9]) + blob[5:])
    with pytest.raises(FormatError):
        decode_grammar(blob[:-1])
    with pytest.raises(FormatError):
        decode_grammar(blob + b"\x00")
    with pytest.raises(FormatError):
        decode_grammar(b"")


def test_decode_validates_grammar():
    blob = encode_grammar(Grammar([SeqRule((2,)), SeqRule((-1,))]))
    with pytest.raises(FormatError):
        decode_grammar(blob)


def test_codec_round_trip_corpus():
    rng = random.Random(7)
    for _ in range(100):
        g = random_rlslp(rng)
        back = decode_grammar(encode_grammar(g))
        assert back.rules == g.rules
        assert back.alphabet_size == g.alphabet_size


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**63))
def test_codec_round_trip_run_exponents(exp):
    g = Grammar([SeqRule((-1,)), RunRule(1, max(2, exp))])
    assert decode_grammar(encode_grammar(g)).rules == g.rules


def test_iter_expansion_streams_deep_chains():
    rules = [SeqRule((A,))]
    for i in range(1, 4000):
        rules.append(SeqRule((i, B)))
    g = Grammar(rules)
    out = b"".join(iter_expansion(g))
    assert out == b"a" + b"b" * 3999


def test_iter_expansion_matches_expand():
    rng = random.Random(8)
    for _ in range(80):
        g = random_rlslp(rng)
        assert b"".join(iter_expansion(g)) == ref_expand(g)


def test_iter_expansion_large_run_chunked():
    g = Grammar([SeqRule((A, B)), RunRule(1, 100000)])
    chunks = list(iter_expansion(g))
    assert all(len(c) <= 65536 for c in chunks)
    assert b"".join(chunks) == b"ab" * 100000


def test_iter_expansion_chunks_stay_within_64k():
    # a memoized piece of up to 64 KiB after a buffer of almost 32 KiB
    # is flushed on its own, not appended into a chunk of up to 96 KiB
    for head, piece in ((30000, 61440), (32767, 65536), (2, 65536),
                        (20000, 20000)):
        g = Grammar([RunRule(B, head), RunRule(A, piece), SeqRule((1, 2)),
                     SeqRule((3, 1, 3))])
        chunks = list(iter_expansion(g))
        assert max(map(len, chunks)) <= 65536
        assert b"".join(chunks) == ref_expand(g)


def test_iter_expansion_rejects_over_long_start_on_first_next():
    # rule k expands to 2^k bytes, so rule 64 is one past 2^63-1
    g = Grammar([SeqRule((A, B))] + [RunRule(i, 2) for i in range(1, 64)])
    chunks = iter_expansion(g)
    with pytest.raises(GrammarError, match="rule 64 exceeds"):
        next(chunks)


def _memo_edge_grammar(last):
    """Rule 2 expands to exactly _MEMO_RULE_MAX bytes, rule 3 to one
    more; `last` is the start rule."""
    half = grammar._MEMO_RULE_MAX // 2
    return Grammar([SeqRule((A, B)), RunRule(1, half), SeqRule((2, A)),
                    last])


@pytest.mark.parametrize("last", [SeqRule((2, 3)), SeqRule((3, 2)),
                                  SeqRule((1, 3)), SeqRule((3, 1))])
def test_memo_pair_across_the_rule_limit(last):
    g = _memo_edge_grammar(last)
    memoized = memo_sizes(g)
    assert memoized[2] == grammar._MEMO_RULE_MAX
    assert 3 not in memoized and 4 not in memoized
    assert expand(g) == ref_expand(g)


@pytest.mark.parametrize("last", [RunRule(3, 3), RunRule(2, 3)])
def test_memo_run_over_a_long_rule(last):
    # a run over the unmemoized rule 3, and a run over the memoized
    # rule 2 that is itself too long to memoize
    g = _memo_edge_grammar(last)
    assert 4 not in memo_sizes(g)
    assert expand(g) == ref_expand(g)


@pytest.mark.parametrize("last", [SeqRule((1, 3, B, 2, 3, 1)),
                                  SeqRule((2, B, A))])
def test_memo_sequence_mixing_memoized_and_unmemoized_children(last):
    # rule 3 is not memoized; a sequence over memoized children alone
    # is not either once it is longer than the limit
    g = _memo_edge_grammar(last)
    assert set(memo_sizes(g)) == {1, 2}
    assert expand(g) == ref_expand(g)


def test_memo_budget_runs_out_mid_grammar(monkeypatch):
    monkeypatch.setattr(grammar, "_MEMO_BUDGET", 40)
    # rules 1-4 expand to 2, 4, 8 and 16 bytes (30 in all), rule 5 to 32
    # does not fit what is left, nor does rule 6, its child; rule 7
    # (2 bytes) still does
    rules = [SeqRule((A, B))] + [RunRule(i, 2) for i in range(1, 6)]
    rules += [SeqRule((B, A)), SeqRule((6, 7, 4, A)), RunRule(8, 3)]
    g = Grammar(rules)
    memoized = memo_sizes(g)
    assert memoized == {1: 2, 2: 4, 3: 8, 4: 16, 7: 2}
    assert sum(memoized.values()) <= grammar._MEMO_BUDGET
    assert expand(g) == ref_expand(g)
    for i in range(1, len(g) + 1):
        assert expand(g, i) == ref_expand(g, i)


def test_memo_small_budgets_match_reference(monkeypatch):
    rng = random.Random(9)
    for budget in (0, 1, 7, 50):
        monkeypatch.setattr(grammar, "_MEMO_BUDGET", budget)
        for _ in range(30):
            g = random_rlslp(rng)
            assert sum(memo_sizes(g).values()) <= budget
            assert expand(g) == ref_expand(g)
