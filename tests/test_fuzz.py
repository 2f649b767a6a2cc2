"""Mutated .lzpf and .slgf files: every input the decoders accept is
built into a grammar, and every other one is rejected with a typed
error.  Mutations overwrite 64-bit fields (values at and past 2^63
included), flip bytes, cut or extend the file."""

import random
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rlslp
from rlslp.engine import recompress
from rlslp.grammar import (MAX_EXPANSION, FormatError, GrammarError,
                           SeqRule, decode_grammar, encode_grammar, expand,
                           expansion_lengths, validate)
from rlslp.lz import (ParseError, decode_factorization,
                      decode_factorization_bytes, encode_factorization,
                      parse_bentley_mcilroy)
from rlslp.slg import lz_to_slg, prune_slp

SMALL = 1 << 16
EDGES = [0, 1, 2, 3, 97, 255, 256, 2**32, 2**62, 2**63 - 1, 2**63,
         2**63 + 1, 2**64 - 1]
# small values keep a record valid more often than not; symbol ids are
# the same bytes read as signed, so 2^64 - k is -k, terminal k - 1
U64 = st.one_of(st.integers(0, 8), st.integers(2**64 - 8, 2**64 - 1),
                st.sampled_from(EDGES), st.integers(0, 2**64 - 1))
HEADER = 21  # magic, version, two u64 fields


def lzpf_fields(data: bytes) -> list[int]:
    """Offsets of the u64 fields: text length, phrase count, phrases."""
    return [5, 13] + list(range(HEADER, len(data) - 7, 8))


def slgf_fields(data: bytes) -> list[int]:
    """Offsets of the 64-bit fields of a well-formed SLGF stream."""
    fields, pos = [5, 13], HEADER
    while pos < len(data):
        kind = data[pos]
        count = (struct.unpack_from("<Q", data, pos + 1)[0] + 1
                 if kind == 0 else 2)
        fields += range(pos + 1, pos + 1 + 8 * count, 8)
        pos += 1 + 8 * count
    return fields


@st.composite
def mutated(draw, data: bytes, fields: list[int]) -> bytes:
    buf = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["field"] * 5 + ["byte", "cut",
                                                   "extend"]))
        if op == "field":
            at = draw(st.sampled_from(fields))
            buf[at:at + 8] = draw(U64).to_bytes(8, "little")
        elif op == "byte" and buf:
            at = draw(st.integers(0, len(buf) - 1))
            buf[at] = draw(st.integers(0, 255))
        elif op == "cut":
            del buf[draw(st.integers(0, len(buf))):]
        else:
            buf += draw(st.binary(max_size=24))
    return bytes(buf)


def start_length(g) -> int:
    """Expansion length of the start rule, in Python integers."""
    n = [0]
    for rule in g.rules:
        if isinstance(rule, SeqRule):
            n.append(sum(1 if s < 0 else n[s] for s in rule.rhs))
        else:
            n.append((1 if rule.base < 0 else n[rule.base]) * rule.exponent)
    return n[-1]


@st.composite
def lzpf_inputs(draw) -> bytes:
    text = draw(st.binary(min_size=1, max_size=120))
    data = encode_factorization(
        parse_bentley_mcilroy(text, draw(st.sampled_from([2, 3, 8]))))
    return draw(mutated(data, lzpf_fields(data)))


@st.composite
def slgf_inputs(draw) -> bytes:
    g = random_rlslp(random.Random(draw(st.integers(0, 2**32))),
                     max_rules=8)
    data = encode_grammar(g)
    return draw(mutated(data, slgf_fields(data)))


@settings(max_examples=1000, deadline=None)
@given(lzpf_inputs())
def test_mutated_lzpf_builds_or_is_rejected(data):
    try:
        fz = decode_factorization_bytes(data)
    except FormatError:
        return
    try:
        g = lz_to_slg(fz)
    except ParseError:
        return
    assert fz.text_length <= MAX_EXPANSION
    assert validate(g).ok
    assert prune_slp(g).rules == g.rules
    if g.rules:
        assert expansion_lengths(g)[-1] == fz.text_length
    if fz.text_length <= SMALL:
        assert (expand(g) if g.rules else b"") == decode_factorization(fz)


@settings(max_examples=600, deadline=None)
@given(slgf_inputs())
def test_mutated_slgf_builds_or_is_rejected(data):
    try:
        g = decode_grammar(data)
    except FormatError:
        return
    pruned = prune_slp(g)
    if not g.rules:
        assert pruned.rules == []
        return
    n = start_length(g)
    assert start_length(pruned) == n
    try:
        result = recompress(pruned)
    except GrammarError:
        assert n > MAX_EXPANSION
        return
    assert n <= MAX_EXPANSION
    assert start_length(result.grammar) == n
    if n <= SMALL:
        assert expand(result.grammar) == expand(g)
