"""Grammar container: validation, expansion, sizes, serialization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rlslp
from rlslp import cli
from rlslp.grammar import (FormatError, Grammar, GrammarError, RunRule,
                           SeqRule, decode_grammar, encode_grammar, expand,
                           expansion_lengths, grammar_size, iter_expansion,
                           term, validate)

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
        assert b"".join(iter_expansion(g)) == expand(g)


def test_iter_expansion_large_run_chunked():
    g = Grammar([SeqRule((A, B)), RunRule(1, 100000)])
    chunks = list(iter_expansion(g))
    assert all(len(c) <= 65536 for c in chunks)
    assert b"".join(chunks) == b"ab" * 100000
