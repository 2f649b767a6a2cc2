"""LZ77-style factorizations: an exact greedy parser used as an oracle,
and the block-fingerprint approximate parser used by the pipeline.

A factorization is a list of phrases (p, l), held as two int64 arrays
`pos` and `length`.  l = 0 marks a literal and p is then the byte value;
l >= 1 copies l bytes from 1-based text position p, which points strictly
before the phrase (sources may overlap the phrase itself, as in LZ77).
"""

from __future__ import annotations

import mmap
import struct
from array import array
from dataclasses import dataclass

import numpy as np

from .grammar import MAX_EXPANSION, FormatError, _starts

LZ_MAGIC = b"LZPF"
LZ_VERSION = 1

DEFAULT_BLOCK_SIZE = 50

FP_MOD = (1 << 61) - 1

# text bytes per chunk of the parse: large enough that the per-chunk
# numpy calls are cheap, small enough that the chunk's arrays stay a few
# MiB whatever the text length.  A mapped text's resident pages are
# dropped after every chunk of progress, and a match extension compares
# at most a chunk per probe.
_CHUNK_BYTES = 1 << 20

# length of a match extension's first probe: most extensions are short
_GALLOP_START = 8


@dataclass(frozen=True)
class Phrase:
    pos: int     # 1-based source position, or byte value for literals
    length: int  # 0 for literals


class Factorization:
    """A factorization as arrays (see the module docstring).  From
    phrases, a field in [2^63, 2^64) keeps its bits, as LZPF reads it."""

    def __init__(self, phrases: list[Phrase], text_length: int) -> None:
        for k, ph in enumerate(phrases, start=1):
            if not (-2**63 <= ph.pos < 2**64 and -2**63 <= ph.length < 2**64):
                raise ParseError(f"phrase {k}: ({ph.pos}, {ph.length}) does "
                                 "not fit in 64 bits")
        table = np.array([(p.pos % 2**64, p.length % 2**64) for p in phrases],
                         dtype=np.uint64).reshape(-1, 2).view(np.int64)
        self.pos, self.length, self.text_length = *table.T, text_length

    @classmethod
    def from_arrays(cls, pos: np.ndarray, length: np.ndarray,
                    text_length: int) -> "Factorization":
        """The factorization of these arrays, kept as they are."""
        fz = cls.__new__(cls)
        fz.pos, fz.length, fz.text_length = pos, length, text_length
        return fz

    def __len__(self) -> int:
        return len(self.pos)

    @property
    def phrases(self) -> list[Phrase]:
        """The phrases as objects, built anew on every use."""
        return list(map(Phrase, self.pos.tolist(), self.length.tolist()))


class ParseError(ValueError):
    """Raised when a factorization is malformed or undecodable."""


def parse_exact_lz77(text: bytes | mmap.mmap) -> Factorization:
    """Greedy longest-match factorization (oracle role).

    Each phrase takes the longest prefix of the remainder that occurs
    earlier in the text; among valid sources the most recent one is
    reported.  Match lengths are found by galloping + binary search over
    substring probes, so heavily repetitive inputs stay workable.  text
    is bytes or a read-only map: it needs only find, rfind, slicing and
    indexing.
    """
    n = len(text)
    phrases: list[Phrase] = []
    i = 0
    while i < n:
        # longest l with an occurrence of text[i:i+l] starting before i:
        # probe(l) uses find's end bound to force a start position <= i-1.
        def probe(length: int) -> bool:
            return text.find(text[i:i + length], 0, i - 1 + length) >= 0

        if i == 0 or not probe(1):
            phrases.append(Phrase(text[i], 0))
            i += 1
            continue
        lo = 1
        hi = 2
        limit = n - i
        while hi <= limit and probe(hi):
            lo = hi
            hi *= 2
        hi = min(hi, limit + 1)
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if probe(mid) else (lo, mid)
        src = text.rfind(text[i:i + lo], 0, i - 1 + lo)
        phrases.append(Phrase(src + 1, lo))
        i += lo
    return Factorization(phrases, n)


def fingerprint(chunk: bytes) -> int:
    """Karp-Rabin fingerprint: chunk read as a base-256 number, modulo
    the Mersenne prime 2^61 - 1.  Every fingerprint the parser compares
    equals this value."""
    return int.from_bytes(chunk, "big") % FP_MOD


def _block_fingerprints(text: bytes | mmap.mmap, block_size: int,
                        start: int = 0, count: int | None = None
                        ) -> np.ndarray:
    """Fingerprints of the count full blocks at offsets start, start + B,
    start + 2B, ... (by default every full block from start on), computed
    for all of them at once and read in place from text.

    A block is read as a head of B mod 8 bytes followed by big-endian
    64-bit words, and folded by Horner's rule in base 2^64.  As
    2^61 = 1 modulo 2^61 - 1, multiplying by 2^64 is a 61-bit rotation by
    3, and a word reduces to its low 61 bits plus its top 3, so no step
    can overflow uint64.  The fold runs in place: each word is copied to
    native order into one scratch array, and every shift, mask and add
    writes into it, the result or one more scratch array.
    """
    m = (len(text) - start) // block_size if count is None else count
    words, head = divmod(block_size, 8)
    mod = np.uint64(FP_MOD)
    c3, c8, c58, c61 = (np.uint64(k) for k in (3, 8, 58, 61))
    low58 = np.uint64((1 << 58) - 1)
    blocks = np.frombuffer(text, dtype=np.uint8, count=m * block_size,
                           offset=start).reshape(m, block_size)
    v = np.zeros(m, dtype=np.uint64)
    for col in range(head):
        v <<= c8
        v += blocks[:, col]
    limbs = blocks[:, head:].view(">u8")
    w = np.empty(m, dtype=np.uint64)
    t = np.empty(m, dtype=np.uint64)
    for col in range(words):
        np.copyto(w, limbs[:, col])
        # v = rotation of v by 3: (v >> 58) + ((v & low58) << 3)
        np.bitwise_and(v, low58, out=t)
        t <<= c3
        v >>= c58
        v += t
        # v += (w & mod) + (w >> 61)
        np.right_shift(w, c61, out=t)
        w &= mod
        v += w
        v += t
        # v = (v & mod) + (v >> 61)
        np.right_shift(v, c61, out=t)
        v &= mod
        v += t
    np.subtract(v, mod, out=v, where=v >= mod)
    return v


def _release(text: bytes | mmap.mmap) -> None:
    """Drop the resident pages of a mapped text; they fault back from the
    page cache on the next touch.  Nothing to do for bytes."""
    if isinstance(text, mmap.mmap):
        text.madvise(mmap.MADV_DONTNEED)


def _block_table(text: bytes | mmap.mmap, block_size: int
                 ) -> dict[int, int]:
    """Offset of the first stride block with each fingerprint.

    Blocks are fingerprinted and deduplicated one chunk of text at a
    time, so the working arrays are O(_CHUNK_BYTES + distinct blocks),
    not O(n / B).  Within a chunk, numpy's default (unstable) argsort
    groups equal fingerprints, and the least block index of each group
    is its first occurrence, whatever order the sort left the group in.
    A chunk adds only the fingerprints no earlier chunk has, which keeps
    the first block in the text the winner.
    """
    m = len(text) // block_size
    per_chunk = max(1, _CHUNK_BYTES // block_size)
    table: dict[int, int] = {}
    # the table's keys, sorted, ending in a value no fingerprint takes so
    # that every searchsorted index is in range; on repetitive text most
    # of every chunk is already held, and filtering it here is cheaper
    # than looking each fingerprint up in the dict
    held = np.array([2**64 - 1], dtype=np.uint64)
    for j in range(0, m, per_chunk):
        fps = _block_fingerprints(text, block_size, j * block_size,
                                  min(per_chunk, m - j))
        _release(text)
        order = np.argsort(fps)
        fps = fps[order]
        starts = _starts(fps)
        first = np.minimum.reduceat(order, starts)
        fps = fps[starts]
        at = np.searchsorted(held, fps)
        new = held[at] != fps
        fps = fps[new]
        table.update(zip(fps.tolist(),
                         ((first[new] + j) * block_size).tolist()))
        # the indices refer to held before the insertion, as insert wants
        held = np.insert(held, at[new], fps)
    return table


def _extend_match(text: bytes | mmap.mmap, src: int, dst: int,
                  start: int) -> int:
    """Length of the common extension of text[src:] and text[dst:] from
    offset start onward, found by galloping comparison.

    Probes compare slices, which a map has too: `bytes.find` would pay
    its needle preprocessing on every probe, and memoryview equality is
    20x slower than slice equality.  The step stops growing at a chunk,
    so no probe copies more than a chunk, and the text's pages are
    released after every chunk of progress.  The binary search compares
    only the part of each probe not yet known to match.
    """
    n = len(text)
    k = start
    step = _GALLOP_START
    mark = k + _CHUNK_BYTES
    while True:
        hi = min(step, n - dst - k)
        if hi <= 0:
            return k
        if text[src + k:src + k + hi] == text[dst + k:dst + k + hi]:
            k += hi
            step = min(2 * step, _CHUNK_BYTES)
            if k >= mark:
                _release(text)
                mark = k + _CHUNK_BYTES
            continue
        lo = 0
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if (text[src + k + lo:src + k + mid]
                    == text[dst + k + lo:dst + k + mid]):
                lo = mid
            else:
                hi = mid
        return k + lo


def parse_bentley_mcilroy(text: bytes | mmap.mmap,
                          block_size: int = DEFAULT_BLOCK_SIZE
                          ) -> Factorization:
    """Approximate factorization from stored block fingerprints
    (Bentley and McIlroy, with Karp-Rabin fingerprints).

    The non-overlapping blocks at stride B are stored as the scan passes
    their end, the first block stored winning on equal fingerprints.  At
    each position the fingerprint of the upcoming B bytes is looked up;
    a hit is verified by direct comparison and extended maximally
    forward.  Matches shorter than B never arise, unmatched bytes are
    emitted as literals.

    Since blocks are stored in offset order, the block found at position
    i is the first block with that fingerprint if it ends at or before i,
    and none otherwise; one table of first occurrences serves the whole
    scan.  Window fingerprints are computed only where the scan stands:
    rolled across a literal, recomputed after a match.

    text is any read-only buffer, bytes or a read-only map of a file,
    read through one code path.  For a map, the block table pass, the
    scan and a long match extension drop the map's resident pages after
    every _CHUNK_BYTES of progress, so about one chunk plus the sources
    being checked stays resident, not the text; the page cache still
    holds the file.  The phrases are the same either way.  A mapped file
    must not shrink during the parse: touching a page past its new end
    ends the process with SIGBUS.
    """
    if block_size < 2:
        raise ValueError("block size must be at least 2")
    n = len(text)
    blk = block_size
    table = _block_table(text, blk)
    pow_top = pow(256, blk - 1, FP_MOD)
    last = n - blk  # the last position with a full window
    pos, lens = array("q"), array("q")
    i = lit = 0  # the literals since the last match start at lit
    h = fingerprint(text[:blk])
    while i <= last:
        # one chunk of progress, or one match past it, per release
        stop = min(i + _CHUNK_BYTES, last)
        while i <= stop:
            src = table.get(h)
            if (src is not None and src + blk <= i
                    and text[src:src + blk] == text[i:i + blk]):
                length = _extend_match(text, src, i, blk)
                pos.extend(text[lit:i])
                lens.extend(bytes(i - lit))
                pos.append(src + 1)
                lens.append(length)
                i = lit = i + length
                h = fingerprint(text[i:i + blk])
            else:
                if i < last:
                    h = ((h - text[i] * pow_top) * 256
                         + text[i + blk]) % FP_MOD
                i += 1
        _release(text)
    pos.extend(text[lit:])
    lens.extend(bytes(n - lit))
    return Factorization.from_arrays(np.frombuffer(pos, dtype=np.int64),
                                     np.frombuffer(lens, dtype=np.int64), n)


def check_factorization(fz: Factorization) -> None:
    """ParseError for the first bad phrase (a literal outside 0..255, a
    negative length, a source past the prefix), then for an expansion
    other than fz.text_length or past 2^63 - 1."""
    pos, lens = fz.pos, fz.length
    span = np.where(lens == 0, 1, lens)
    # float sums clear all but near-limit texts, which are summed again
    # in Python integers
    if np.abs(span, dtype=np.float64).sum() >= 2.0 ** 62:
        span = span.astype(object)
    before = np.cumsum(span) - span
    bad = np.flatnonzero(np.where(lens == 0, (pos < 0) | (pos > 255),
                                  (span < 0) | (pos < 1) | (pos > before)))
    if len(bad):
        k = int(bad[0])
        p, length = int(pos[k]), int(lens[k])
        if length == 0:
            raise ParseError(f"phrase {k + 1}: literal {p} out of range")
        if length < 0:
            raise ParseError(f"phrase {k + 1}: negative length {length}")
        raise ParseError(f"phrase {k + 1}: source {p} beyond prefix")
    total = int(span.sum())
    if total != fz.text_length:
        raise ParseError(f"phrases expand to {total} bytes, "
                         f"header promised {fz.text_length}")
    if total > MAX_EXPANSION:
        raise ParseError(f"text of {total} bytes exceeds 2^63-1")


def decode_factorization(fz: Factorization) -> bytes:
    """The text of fz; ParseError if fz fails check_factorization."""
    check_factorization(fz)
    out = bytearray()
    for p, length in zip(fz.pos.tolist(), fz.length.tolist()):
        if length == 0:
            out.append(p)
        else:
            # an overlapping source repeats with the period of its distance
            piece = out[p - 1:p - 1 + length]
            out += (piece * -(-length // len(piece)))[:length]
    return bytes(out)


def factorization_stats(fz: Factorization) -> dict:
    """Phrase count, text length and the compression ratio n/f."""
    f = len(fz)
    n = fz.text_length
    return {"phrases": f, "text_length": n,
            "ratio": round(n / f, 3) if f else 0.0}


# Serialization ("LZPF").

_LZ_HEADER = struct.Struct("<4sBQQ")


def encode_factorization(fz: Factorization) -> bytes:
    """LZPF bytes of fz; ParseError names the first negative field, as the
    format's fields are unsigned."""
    if not 0 <= fz.text_length < 1 << 64:
        raise ParseError(f"text length {fz.text_length} out of range "
                         "for LZPF")
    bad = np.flatnonzero((fz.pos < 0) | (fz.length < 0))
    if len(bad):
        k = int(bad[0])
        raise ParseError(f"phrase {k + 1}: ({fz.pos[k]}, {fz.length[k]}) "
                         "out of range for LZPF")
    return (_LZ_HEADER.pack(LZ_MAGIC, LZ_VERSION, fz.text_length, len(fz))
            + np.stack((fz.pos, fz.length), axis=1, dtype="<i8").tobytes())


def decode_factorization_bytes(data: bytes) -> Factorization:
    """LZPF bytes as read; a field of 2^63 or more reads as negative."""
    if len(data) < _LZ_HEADER.size:
        raise FormatError("truncated header")
    magic, version, n, f = _LZ_HEADER.unpack_from(data, 0)
    if magic != LZ_MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != LZ_VERSION:
        raise FormatError(f"unsupported version {version}")
    if len(data) != _LZ_HEADER.size + 16 * f:
        raise FormatError("phrase table size mismatch")
    table = np.frombuffer(data, dtype="<i8", offset=_LZ_HEADER.size)
    return Factorization.from_arrays(table[0::2], table[1::2], n)
