"""Array-backed grammars and factorizations against their rule-object
and per-phrase references.

The byte-identity oracle: the pipeline's `.slgf` on the acceptance
corpus, its `.lzpf` at B = 50 and `recompress`'s `.slgf` of a binarized
wide grammar are pinned by sha256.  The codec, validation and pruning
must agree with the rule-object versions in `reference.py` on generated
grammars with run, wide, dead, chain and duplicate rules, and on broken
ones; the factorization checks must agree with the per-phrase reference
on phrases with edge-value fields.
"""

import hashlib
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (ref_check_factorization, ref_decode, ref_encode,
                       ref_prune, ref_slg_to_slp, ref_validate)
from rlslp.dataset import gen_dataset, load_sample
from rlslp.engine import recompress
from rlslp.grammar import (FormatError, Grammar, GrammarError, RunRule,
                           SeqRule, decode_grammar, encode_grammar, expand,
                           term, validate)
from rlslp.lz import (Factorization, ParseError, Phrase, check_factorization,
                      decode_factorization, decode_factorization_bytes,
                      encode_factorization, parse_bentley_mcilroy)
from rlslp.pipeline import PipelineConfig, run_pipeline
from rlslp.slg import lz_to_slg, prune_slp
from test_fuzz import EDGES

EXPONENTS = [2, 3, 5, 2**40, 2**63 - 1, 2**63, 2**64 - 1]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


PINNED_SLGF = dict(
    mixed="ef480cb406b1fd1156aa668fe7ac990497fe9966c73d1d3d96d72b1079dce7b5",
    det="246feb3eb1be9c9e1863b9eb84a29cbd093cb68bab1403267b63bd1129c49b05",
    rand="30f8bfd0a2c9ba1e9bca5cb92913f8e318716300c6c320283de2564b15ef2d4f",
)


def test_pipeline_slgf_pinned(tmp_path):
    # gen-dataset 4M 1e-5 seed 21, B = 50, seed 42, under every strategy:
    # both engines share the partition and builder code, so only a pin
    # sees a relabeling slip that both would make
    text = gen_dataset(load_sample(), 4 << 20, mutation_rate=1e-5, seed=21)
    inp = tmp_path / "in.bin"
    inp.write_bytes(text)
    got = {}
    for strategy in PINNED_SLGF:
        out = tmp_path / f"{strategy}.slgf"
        run_pipeline(inp, out, PipelineConfig(block_size=50,
                                              strategy=strategy, seed=42,
                                              profile_memory=False))
        got[strategy] = sha256(out.read_bytes())
    assert got == PINNED_SLGF


def test_lzpf_pinned():
    # gen-dataset 4M 1e-5 seed 21, B = 50
    text = gen_dataset(load_sample(), 4 << 20, mutation_rate=1e-5, seed=21)
    data = encode_factorization(parse_bentley_mcilroy(text, 50))
    assert sha256(data) == (
        "182576b8ece906c64349b73d4dac62674095e4d6ed5c6046831b7b8214b42718")
    assert encode_factorization(decode_factorization_bytes(data)) == data


def wide_comb() -> Grammar:
    """ref_slg_to_slp of a 1500-symbol rule over a run rule and a wide
    rule: a left comb of about 1500 layers."""
    rng = random.Random(2024)
    rules = [SeqRule(tuple(term(rng.choice(b"ab")) for _ in range(40))),
             RunRule(1, 3),
             SeqRule(tuple(rng.choice((1, 2, term(ord("c")), term(ord("a"))))
                           for _ in range(1500)))]
    return ref_slg_to_slp(Grammar(rules))


def test_recompress_of_comb_pinned():
    g = wide_comb()
    assert len(g) == 1539
    result = recompress(g, "mixed", 42)
    assert sha256(encode_grammar(result.grammar)) == (
        "bafc93680cb073ad3d907aec81b6bf02763696324561c29879721b6dee174948")


@st.composite
def grammars(draw) -> Grammar:
    """Valid grammars with run, wide, dead, chain and duplicate rules."""
    m = draw(st.integers(1, 14))
    rules: list = []
    for i in range(1, m + 1):
        def sym():
            if i > 1 and draw(st.booleans()):
                return draw(st.integers(1, i - 1))
            return -draw(st.integers(1, 4))
        kind = draw(st.sampled_from(["pair", "wide", "run", "chain",
                                     "dup"]))
        if kind == "chain" and i > 1:
            rules.append(SeqRule((draw(st.integers(1, i - 1)),)))
        elif kind == "dup" and rules:
            rules.append(draw(st.sampled_from(rules)))
        elif kind == "run":
            rules.append(RunRule(sym(), draw(st.sampled_from(EXPONENTS))))
        elif kind == "wide":
            rules.append(SeqRule(tuple(sym() for _ in range(
                draw(st.integers(3, 12))))))
        else:
            rules.append(SeqRule(tuple(sym() for _ in range(
                draw(st.integers(1, 2))))))
    return Grammar(rules, draw(st.sampled_from([4, 200, 256])))


@st.composite
def broken_grammars(draw) -> Grammar:
    """A valid grammar with one rule or the alphabet size spoiled."""
    rules = list(draw(grammars()).rules)
    i = draw(st.integers(0, len(rules) - 1))
    flaw = draw(st.sampled_from(["forward", "zero", "terminal", "empty",
                                 "exponent", "alphabet", "byte"]))
    sigma = 4
    if flaw == "forward":
        rules[i] = SeqRule((-1, draw(st.integers(i + 1, i + 3))))
    elif flaw == "zero":
        rules[i] = SeqRule((-1, 0))
    elif flaw == "terminal":
        rules[i] = RunRule(-5, 2)
    elif flaw == "empty":
        rules[i] = SeqRule(())
    elif flaw == "exponent":
        rules[i] = RunRule(-1, draw(st.integers(0, 1)))
    elif flaw == "byte":
        rules[i] = SeqRule((-1, -300))
    else:
        sigma = draw(st.sampled_from([257, 2**64 - 1]))
    return Grammar(rules, sigma)


def outcome(fn, *args):
    """fn's result, or its error type and text."""
    try:
        return fn(*args)
    except (FormatError, GrammarError) as exc:
        return type(exc), str(exc)


def same_grammar(a, b) -> bool:
    if isinstance(a, Grammar) and isinstance(b, Grammar):
        return a.rules == b.rules and a.alphabet_size == b.alphabet_size
    return a == b


def check_codec(data: bytes) -> None:
    assert same_grammar(outcome(decode_grammar, data),
                        outcome(ref_decode, data))


@settings(max_examples=400, deadline=None)
@given(st.one_of(grammars(), broken_grammars()))
def test_arrays_agree_with_rule_objects(g):
    data = encode_grammar(g)
    assert data == ref_encode(g)
    check_codec(data)
    assert validate(g) == ref_validate(g)
    assert same_grammar(outcome(prune_slp, g), outcome(ref_prune, g))


@settings(max_examples=200, deadline=None)
@given(broken_grammars())
def test_recompress_rejects_as_prune_does(g):
    with pytest.raises(GrammarError) as pruned:
        prune_slp(g)
    with pytest.raises(GrammarError) as engine:
        recompress(g)
    assert str(engine.value) == str(pruned.value)


@settings(max_examples=200, deadline=None)
@given(grammars())
def test_rules_view_round_trips(g):
    back = Grammar(g.rules, g.alphabet_size)
    assert back == g
    assert len(back) == len(g.rules)
    assert encode_grammar(back) == encode_grammar(g)


def test_prune_deep_comb_with_dead_rules_and_chains():
    # every third rule is dead, and reachability has a step per level
    rules = [SeqRule((term(0), term(1)))]
    for j in range(1, 30_000):
        if j % 3 == 1:
            rules.append(SeqRule((term(2), term(3))))
        elif j % 3 == 2:
            rules.append(SeqRule((j - 1,)))
        else:
            rules.append(SeqRule((j - 2, term(j % 4))))
    g = Grammar(rules)
    pruned = prune_slp(g)
    assert pruned.rules == ref_prune(g).rules
    assert len(pruned) == 10_001


def test_expand_past_huge_dead_run_exponents():
    g = Grammar([RunRule(-1, 2**64 - 1), SeqRule((-2,) * 3),
                 RunRule(2, 2**63), SeqRule((2, -1))])
    assert expand(g) == b"\x01\x01\x01\x00"
    with pytest.raises(GrammarError, match="rule 3"):
        expand(g, 3)


LITERAL = st.tuples(st.one_of(st.integers(0, 255), st.sampled_from(EDGES)),
                    st.just(0))
COPY = st.tuples(st.one_of(st.integers(1, 4), st.sampled_from(EDGES)),
                 st.one_of(st.integers(0, 8), st.sampled_from(EDGES)))


@st.composite
def phrase_tables(draw) -> tuple[list[tuple[int, int]], int]:
    """Literals and copies with fields from small values and edges, and
    the text length they expand to or an edge value: prefix sums pass
    2^63 and 2^64."""
    fields = draw(st.lists(st.one_of(LITERAL, COPY), max_size=8))
    total = sum(length or 1 for _, length in fields)
    return fields, draw(st.one_of(st.just(total), st.sampled_from(EDGES)))


def result(fn, fz):
    """fn's result, or the text of its ParseError."""
    try:
        return fn(fz)
    except ParseError as exc:
        return str(exc)


HUGE = (1, 2**63 - 1)


@settings(max_examples=600, deadline=None)
@given(phrase_tables())
@example(([(97, 0), HUGE], 2**63))
@example(([(97, 0), HUGE, (2, 2**63 - 2)], 2**64 - 2))
# in int64 the expansion 2^64 wraps to the header's 0
@example(([(97, 0), HUGE, HUGE, (1, 1)], 0))
def test_phrase_checks_agree_with_reference(case):
    fields, n = case
    fzs = [Factorization([Phrase(p, length) for p, length in fields], n)]
    if n < 2**64:
        fzs.append(decode_factorization_bytes(
            struct.pack("<4sBQQ", b"LZPF", 1, n, len(fields))
            + b"".join(struct.pack("<QQ", *f) for f in fields)))
        # the constructor keeps a field's 64 bits as LZPF reads them
        assert fzs[1].pos.tolist() == fzs[0].pos.tolist()
        assert fzs[1].length.tolist() == fzs[0].length.tolist()
    for fz in fzs:
        expected = result(ref_check_factorization, fz)
        assert result(check_factorization, fz) == expected
        g = result(lz_to_slg, fz)
        if expected is not None:
            assert g == expected
            assert result(decode_factorization, fz) == expected
            continue
        assert isinstance(g, Grammar)
        if n <= 1 << 16:
            assert decode_factorization(fz) == (expand(g) if len(g) else b"")
