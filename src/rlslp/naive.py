"""String-level recompression reference engine.

Works directly on the uncompressed text, one int64 symbol per position,
alternating run replacement and pair replacement until a single symbol
remains.  Linear space in the text length; exists as the oracle and
baseline for the grammar-level engine, which must produce the same
level strings round for round when given the same partitions.
"""

from __future__ import annotations

import numpy as np

from .partition import (ConvergenceError, PairMaps, PartitionSource,
                        RecompressResult, RlslpBuilder, RoundRecord,
                        replaced_weight, round_limit, sides_of)


def text_to_levels(text: bytes) -> np.ndarray:
    """Initial level string: byte c becomes terminal symbol -(c+1)."""
    return -(np.frombuffer(text, dtype=np.uint8).astype(np.int64) + 1)


def bcomp_string(s: np.ndarray, builder: RlslpBuilder) -> np.ndarray:
    """Replace every maximal run of length >= 2 with a run-rule symbol."""
    n = len(s)
    if n == 0:
        return s
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    lengths = np.diff(np.r_[starts, n])
    out = s[starts]
    long = lengths >= 2
    out[long] = builder.add_runs(out[long], lengths[long])
    return out


def pair_stats_string(s: np.ndarray) -> tuple[PairMaps, list[int]]:
    """Weighted adjacent-pair counts and the level alphabet."""
    usyms, inv = np.unique(s, return_inverse=True)
    alphabet = [int(x) for x in usyms.tolist()]
    maps = PairMaps()
    if len(s) >= 2:
        width = len(usyms)
        codes = inv[:-1].astype(np.int64) * width + inv[1:]
        ucodes, counts = np.unique(codes, return_counts=True)
        maps.add_arrays(usyms[ucodes // width], usyms[ucodes % width],
                        counts)
    return maps, alphabet


def pcomp_string(s: np.ndarray, part, builder: RlslpBuilder) -> np.ndarray:
    """Replace every adjacent (left, right) pair with a pair-rule symbol.

    Candidate positions can never be adjacent (a symbol sits on one side
    only), so the left-to-right replacement order is immaterial.
    """
    side = sides_of(part.side_table(), s)
    starts = np.flatnonzero((side[:-1] == 1) & (side[1:] == -1))
    out = s.copy()
    out[starts] = builder.add_pairs(s[starts], s[starts + 1])
    keep = np.ones(len(s), dtype=bool)
    keep[starts + 1] = False
    return out[keep]


def recompress_string(text: bytes, source: PartitionSource | None = None,
                      strategy: str = "mixed", seed: int = 42,
                      collect_trace: bool = False) -> RecompressResult:
    """Run-length grammar for `text` by string-level recompression."""
    if len(text) == 0:
        raise ValueError("cannot compress an empty text")
    if source is None:
        source = PartitionSource(strategy, seed)
    builder = RlslpBuilder()
    s = text_to_levels(text)
    limit = round_limit(len(s))
    records: list[RoundRecord] = []
    trace: list[np.ndarray] | None = [] if collect_trace else None
    round_no = 0
    while len(s) > 1:
        if round_no >= limit:
            raise ConvergenceError(f"no convergence within {limit} phases")
        before = builder.productions
        s = bcomp_string(s, builder)
        records.append(RoundRecord(round_no, "bcomp", len(s),
                                   builder.productions - before))
        if trace is not None:
            trace.append(s.copy())
        round_no += 1
        if len(s) <= 1:
            break
        pairs, alphabet = pair_stats_string(s)
        part = source.next_partition(pairs, alphabet)
        before = builder.productions
        replaced = replaced_weight(pairs, part)
        s = pcomp_string(s, part, builder)
        records.append(RoundRecord(round_no, "pcomp", len(s),
                                   builder.productions - before,
                                   replaced_weight=replaced,
                                   total_weight=pairs.total_weight()))
        if trace is not None:
            trace.append(s.copy())
        round_no += 1
    grammar = builder.finish(int(s[0]))
    return RecompressResult(grammar, records, source.log, trace)
