"""LZ77 parsers, decoder, stats, and the LZPF serialization."""

import hashlib
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutated_text, random_text
from rlslp import lz
from rlslp.dataset import gen_dataset, load_sample
from rlslp.grammar import FormatError
from rlslp.lz import (Factorization, ParseError, Phrase,
                      decode_factorization, decode_factorization_bytes,
                      encode_factorization, factorization_stats,
                      parse_bentley_mcilroy, parse_exact_lz77)
from rlslp.pipeline import mapped_input
from rlslp.slg import lz_to_slg


def phrases(fz):
    return [(p.pos, p.length) for p in fz.phrases]


def test_exact_parse_pinned_example():
    fz = parse_exact_lz77(b"bbabaababababaababa")
    assert phrases(fz) == [(ord("b"), 0), (1, 1), (ord("a"), 0), (2, 2),
                           (3, 3), (7, 6), (10, 5)]


def test_exact_parse_single_symbol():
    assert phrases(parse_exact_lz77(b"a")) == [(ord("a"), 0)]


def test_exact_parse_overlapping_run():
    # the copy may overlap its own output: source 1, length 3
    assert phrases(parse_exact_lz77(b"aaaa")) == [(ord("a"), 0), (1, 3)]


def _has_earlier_occurrence(t: bytes, i: int, length: int) -> bool:
    pat = t[i:i + length]
    if len(pat) < length:
        return False
    return t.find(pat, 0, i - 1 + length) >= 0


def test_exact_parse_greedy_maximality():
    rng = random.Random(100)
    for _ in range(120):
        t = random_text(rng, max_len=300, alphabets=(2, 4))
        i = 0
        for p in parse_exact_lz77(t).phrases:
            if p.length == 0:
                assert not _has_earlier_occurrence(t, i, 1)
                i += 1
                continue
            assert _has_earlier_occurrence(t, i, p.length)
            assert not _has_earlier_occurrence(t, i, p.length + 1)
            src = p.pos - 1
            assert src < i
            # the named source really spells the phrase, overlap included
            out = bytearray(t[:i])
            for k in range(p.length):
                out.append(out[src + k])
            assert bytes(out[i:]) == t[i:i + p.length]
            i += p.length
        assert i == len(t)


def test_decode_round_trip_exact_parser():
    rng = random.Random(101)
    for _ in range(200):
        t = random_text(rng, max_len=500)
        assert decode_factorization(parse_exact_lz77(t)) == t


def test_bm_all_literals_when_block_exceeds_input():
    t = b"abcabcabc"
    fz = parse_bentley_mcilroy(t, 64)
    assert len(fz.phrases) == len(t)
    assert all(p.length == 0 for p in fz.phrases)
    assert decode_factorization(fz) == t


def test_bm_round_trip_500_random_strings():
    rng = random.Random(102)
    for trial in range(500):
        t = random_text(rng, max_len=10000 if trial % 25 == 0 else 600)
        B = rng.choice([2, 8, 64])
        fz = parse_bentley_mcilroy(t, B)
        assert decode_factorization(fz) == t, (trial, B)


def test_bm_round_trip_repetitive_inputs():
    rng = random.Random(103)
    for _ in range(30):
        t = mutated_text(rng, base_len=rng.randint(10, 500),
                         total_len=rng.randint(1000, 20000))
        for B in (2, 8, 64):
            assert decode_factorization(parse_bentley_mcilroy(t, B)) == t


def test_bm_never_beats_exact_phrase_count():
    rng = random.Random(104)
    for _ in range(60):
        t = mutated_text(rng, base_len=rng.randint(5, 100),
                         total_len=rng.randint(200, 4000))
        z = len(parse_exact_lz77(t).phrases)
        for B in (2, 8, 64):
            assert len(parse_bentley_mcilroy(t, B).phrases) >= z


def test_bm_rejects_bad_block_size():
    with pytest.raises(ValueError):
        parse_bentley_mcilroy(b"abc", 1)


def test_stats_pinned_example():
    stats = factorization_stats(parse_exact_lz77(b"bbabaababababaababa"))
    assert stats["phrases"] == 7
    assert stats["text_length"] == 19
    assert stats["ratio"] == pytest.approx(19 / 7, rel=1e-3)


def test_stats_all_literals():
    fz = parse_bentley_mcilroy(b"xyz", 64)
    assert factorization_stats(fz)["ratio"] == pytest.approx(1.0)


def test_decode_rejects_bad_phrases():
    with pytest.raises(ParseError):
        decode_factorization(Factorization([Phrase(300, 0)], 1))
    with pytest.raises(ParseError):
        decode_factorization(Factorization([Phrase(1, 2)], 2))
    with pytest.raises(ParseError):
        decode_factorization(Factorization([Phrase(ord("a"), 0)], 5))


def test_codec_round_trip():
    rng = random.Random(105)
    for _ in range(50):
        t = random_text(rng, max_len=400)
        fz = parse_bentley_mcilroy(t, rng.choice([2, 8, 64]))
        back = decode_factorization_bytes(encode_factorization(fz))
        assert back.phrases == fz.phrases
        assert back.text_length == fz.text_length


def test_codec_shares_literal_objects():
    fz = parse_bentley_mcilroy(b"abcabcabcabcxyz", 3)
    back = decode_factorization_bytes(encode_factorization(fz))
    assert back.phrases == fz.phrases
    # a literal past 255 decodes to its own phrase, which lz_to_slg rejects
    bad = decode_factorization_bytes(encode_factorization(
        Factorization([Phrase(97, 0), Phrase(256, 0)], 2)))
    assert bad.phrases == [Phrase(97, 0), Phrase(256, 0)]
    with pytest.raises(ParseError, match="phrase 2: literal 256 out of range"):
        lz_to_slg(bad)


@pytest.mark.parametrize("fz, field", [
    (([Phrase(1, -2)], 3), "phrase 1: (1, -2)"),
    # past u64, the constructor already rejects the field
    (([Phrase(97, 0), Phrase(2**64, 0)], 2),
     "phrase 2: (18446744073709551616, 0)"),
    (([Phrase(97, 0)], -1), "text length -1"),
])
def test_encode_rejects_fields_past_u64(fz, field):
    with pytest.raises(ParseError) as exc:
        encode_factorization(Factorization(*fz))
    assert str(exc.value).startswith(field)


def test_codec_rejects_malformed():
    blob = encode_factorization(parse_exact_lz77(b"ab"))
    with pytest.raises(FormatError):
        decode_factorization_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        decode_factorization_bytes(blob[:-3])
    with pytest.raises(FormatError):
        decode_factorization_bytes(blob + b"\x01")


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=1, max_size=300),
       st.sampled_from([2, 5, 8, 64]))
def test_bm_round_trip_property(t, block_size):
    assert decode_factorization(parse_bentley_mcilroy(t, block_size)) == t


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=1, max_size=300))
def test_exact_round_trip_property(t):
    assert decode_factorization(parse_exact_lz77(t)) == t


def reference_parse(text: bytes, block_size: int) -> list[tuple[int, int]]:
    """Bentley-McIlroy as literally specified, kept deliberately simple:
    every window fingerprint computed from scratch, and each block
    stored with setdefault once the scan has passed its end."""
    def fp(chunk):
        return int.from_bytes(chunk, "big") % (2**61 - 1)

    n, blk = len(text), block_size
    table: dict[int, int] = {}
    stored = 0
    out = []
    i = 0
    while i < n:
        while (stored + 1) * blk <= i:
            table.setdefault(fp(text[stored * blk:(stored + 1) * blk]),
                             stored * blk)
            stored += 1
        src = table.get(fp(text[i:i + blk])) if i + blk <= n else None
        if src is None or text[src:src + blk] != text[i:i + blk]:
            out.append((text[i], 0))
            i += 1
            continue
        length = blk
        while i + length < n and text[src + length] == text[i + length]:
            length += 1
        out.append((src + 1, length))
        i += length
    return out


def test_block_fingerprints_match_reference():
    from rlslp import lz

    rng = random.Random(77)
    # all-0xff words exercise the reduction of words above 2^61 - 1;
    # block sizes cover every head length (B mod 8) and B < 8
    texts = [bytes(rng.getrandbits(8) for _ in range(5000)),
             b"\xff" * 5000]
    for t in texts:
        for blk in (*range(2, 19), 50, 61, 500, 2047, 2048, 2049):
            fps = lz._block_fingerprints(t, blk)
            assert len(fps) == len(t) // blk
            assert fps.tolist() == [
                lz.fingerprint(t[j:j + blk])
                for j in range(0, len(fps) * blk, blk)]


@pytest.mark.parametrize("blk", [2, 8, 50, 61])
def test_block_table_matches_a_plain_loop(monkeypatch, blk):
    # texts of equal blocks put many ties in one chunk, in whatever order
    # the unstable sort leaves them; small chunks make ties straddle the
    # chunk edges, where the first chunk must keep the block
    rng = random.Random(79)
    texts = [b"ab" * 20000, b"a" * 9000 + b"b" * 9000,
             mutated_text(rng, base_len=2000, total_len=40000),
             bytes(rng.choice(b"ab") for _ in range(40000))]
    for chunk in (1 << 20, 3 * blk, 7 * blk + 1):
        monkeypatch.setattr(lz, "_CHUNK_BYTES", chunk)
        for t in texts:
            want: dict[int, int] = {}
            for off in range(0, len(t) - blk + 1, blk):
                want.setdefault(lz.fingerprint(t[off:off + blk]), off)
            assert lz._block_table(t, blk) == want, chunk


def test_bm_matches_reference_parser():
    rng = random.Random(78)
    texts = [
        mutated_text(rng, base_len=3000, total_len=90000),
        bytes(rng.getrandbits(8) for _ in range(70000)),
        b"a" * 80000,
    ]
    # the block pass reads B mod 8 head bytes, then 64-bit words: these
    # sizes give heads of 2, 0, 2, 5, 4, 7, 0 and 1 bytes
    for t in texts:
        for blk in (2, 8, 50, 61, 500, 2047, 2048, 2049):
            assert phrases(parse_bentley_mcilroy(t, blk)) == \
                reference_parse(t, blk), blk


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=400),
                 st.lists(st.integers(0, 2), max_size=400).map(bytes)),
       st.sampled_from([2, 3, 5, 8, 9, 16, 64]))
def test_bm_matches_reference_property(t, block_size):
    # small alphabets make repeats, so matches and the rolled windows
    # after literals are exercised
    assert phrases(parse_bentley_mcilroy(t, block_size)) == \
        reference_parse(t, block_size)


def test_bm_matches_reference_across_chunks(monkeypatch):
    # chunks of three blocks put many chunk edges in every text, so the
    # first block must win across chunks of the table, not just within one
    rng = random.Random(78)
    texts = [
        mutated_text(rng, base_len=3000, total_len=90000),
        bytes(rng.getrandbits(8) for _ in range(70000)),
        b"a" * 80000,
    ]
    for t in texts:
        for blk in (2, 8, 50, 61, 500, 2047, 2048, 2049):
            monkeypatch.setattr(lz, "_CHUNK_BYTES", 3 * blk)
            assert phrases(parse_bentley_mcilroy(t, blk)) == \
                reference_parse(t, blk), blk


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=400).map(bytes),
       st.sampled_from([2, 3, 5, 8, 9, 16, 64]),
       st.integers(1, 4))
def test_bm_matches_reference_across_chunks_property(t, block_size, blocks):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lz, "_CHUNK_BYTES", blocks * block_size)
        assert phrases(parse_bentley_mcilroy(t, block_size)) == \
            reference_parse(t, block_size)


def test_bm_fingerprint_collision_parses_as_the_reference():
    # 256 = 2^8, so byte k of a B-byte block sits at bit 8(B-1-k) mod 61
    # of its fingerprint: with B = 50, byte 42 sits one bit above byte 4,
    # and -4 at byte 4 with +2 at byte 42 leaves the fingerprint as it is
    b1 = b"A" * 50
    b2 = bytearray(b1)
    b2[4], b2[42] = ord("="), ord("C")
    b2 = bytes(b2)
    fps = lz._block_fingerprints(b1 + b2, 50)
    assert b1 != b2 and fps[0] == fps[1]
    # b1 keeps the table slot, so the stride block b2 never wins it and
    # the later copy of b2 finds only b1 there
    t = b1 + b2 + b2
    fz = parse_bentley_mcilroy(t, 50)
    assert phrases(fz) == reference_parse(t, 50)
    assert decode_factorization(fz) == t


@pytest.fixture(scope="module")
def acceptance_corpus():
    return gen_dataset(load_sample(), 4 << 20, mutation_rate=1e-5, seed=21)


def test_bm_acceptance_corpus_phrases_frozen(acceptance_corpus):
    # phrase list of the 4 MiB acceptance corpus at the default block
    # size, pinned from the parser before the scan was rewritten
    fz = parse_bentley_mcilroy(acceptance_corpus, 50)
    h = hashlib.sha256()
    for p in fz.phrases:
        h.update(b"%d,%d;" % (p.pos, p.length))
    assert len(fz.phrases) == 22136
    assert sum(1 for p in fz.phrases if p.length == 0) == 21520
    assert h.hexdigest() == ("f4754b582173cb710aa826c7ae7a5dff"
                             "3ed96c75d8785b7fd52016fef434372e")


def test_bm_parse_memory_bounded(acceptance_corpus):
    # the parse keeps one fingerprint per stride block and a table of
    # the distinct ones, not per-position arrays; the input is allocated
    # before tracing starts and is not counted
    tracemalloc.start()
    try:
        fz = parse_bentley_mcilroy(acceptance_corpus, 50)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decode_factorization(fz) == acceptance_corpus
    assert peak <= 2 * len(acceptance_corpus)


def test_bm_parse_peak_does_not_grow_with_text():
    # the block table is built one chunk at a time, so on a repetitive
    # text the traced peak is the chunk's arrays plus the distinct
    # blocks, not a fingerprint per stride block of the whole text
    text = gen_dataset(load_sample(), 16 << 20, mutation_rate=1e-5, seed=21)
    tracemalloc.start()
    try:
        parse_bentley_mcilroy(text, 50)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * len(text)


def test_parsers_read_a_mapped_file_as_they_read_bytes(tmp_path,
                                                       monkeypatch):
    # small chunks put releases in the block table pass, in the scan and
    # in the middle of a match extension: "a" * 80000 is one match over
    # more than a thousand chunks.  A mapped text's pages come back from
    # the page cache, so the phrases are those of the bytes parsed with
    # the default chunk
    rng = random.Random(79)
    texts = [mutated_text(rng, base_len=3000, total_len=90000),
             bytes(rng.getrandbits(8) for _ in range(20000)),
             b"a" * 80000, b"abcabcab"]
    calls = set()
    release = lz._release

    def recorded(text):
        calls.add(sys._getframe(1).f_code.co_name)
        release(text)

    for k, t in enumerate(texts):
        path = tmp_path / f"t{k}"
        path.write_bytes(t)
        want = parse_bentley_mcilroy(t, 50)
        with monkeypatch.context() as mp:
            mp.setattr(lz, "_CHUNK_BYTES", 64)
            mp.setattr(lz, "_release", recorded)
            with mapped_input(path) as text:
                got = parse_bentley_mcilroy(text, 50)
                exact = parse_exact_lz77(text) if len(t) < 30000 else None
        assert np.array_equal(got.pos, want.pos)
        assert np.array_equal(got.length, want.length)
        assert got.text_length == len(t)
        if exact is not None:
            assert phrases(exact) == phrases(parse_exact_lz77(t))
    assert calls == {"_block_table", "_extend_match",
                     "parse_bentley_mcilroy"}
