"""String-level recompression reference engine.

Works directly on the uncompressed text, one int64 symbol per position,
alternating run replacement and pair replacement until a single symbol
remains.  Linear space in the text length; exists as the oracle and
baseline for the grammar-level engine, which must produce the same
level strings round for round when given the same partitions.  Its
rounds also finish the grammar-level engine's work: once the level
string is no longer than the working grammar, that engine hands the
string to `string_rounds`.
"""

from __future__ import annotations

import numpy as np

from .partition import (DEFAULT_SEED, DEFAULT_STRATEGY, ConvergenceError,
                        Laps, PairMaps, PartitionSource, RecompressResult,
                        RlslpBuilder, RoundRecord, output_ids, round_limit,
                        round_record)


def text_to_levels(text: bytes) -> np.ndarray:
    """Initial level string: byte c becomes level symbol c + 1, the rank
    of terminal -(c+1)."""
    return np.frombuffer(text, dtype=np.uint8).astype(np.int64) + 1


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


def pair_stats_string(s: np.ndarray) -> PairMaps:
    """Weighted adjacent-pair counts over the level alphabet."""
    syms, inv = np.unique(s, return_inverse=True)
    width = len(syms)
    codes, counts = np.unique(inv[:-1].astype(np.int64) * width + inv[1:],
                              return_counts=True)
    return PairMaps(syms, codes // width, codes % width, counts)


def pcomp_string(s: np.ndarray, part, builder: RlslpBuilder) -> np.ndarray:
    """Replace every adjacent (left, right) pair with a pair-rule symbol.

    Candidate positions can never be adjacent (a symbol sits on one side
    only), so the left-to-right replacement order is immaterial.
    """
    side = part.sides_of(s)
    starts = np.flatnonzero((side[:-1] == 1) & (side[1:] == -1))
    out = s.copy()
    out[starts] = builder.add_pairs(s[starts], s[starts + 1])
    keep = np.ones(len(s), dtype=bool)
    keep[starts + 1] = False
    return out[keep]


def string_rounds(s: np.ndarray, round_no: int, builder: RlslpBuilder,
                  source: PartitionSource, records: list[RoundRecord],
                  trace: list | None, limit: int) -> RecompressResult:
    """Run recompression rounds on level string s, starting at round
    round_no (even: run replacement, odd: pair replacement), until one
    symbol is left; return the whole recompression's result, with the
    builder's grammar closed on that symbol.

    Each round appends its RoundRecord to records, and its level string
    in output ids to trace unless that is None.  round_no and limit
    count the rounds of the whole recompression, also those a caller ran
    before handing over s.
    """
    while len(s) > 1:
        if round_no >= limit:
            raise ConvergenceError(f"no convergence within {limit} phases")
        laps = Laps()
        before, made = len(s), builder.productions
        if round_no % 2 == 0:
            s = bcomp_string(s, builder)
        else:
            pairs = pair_stats_string(s)
            laps.lap("pair_count_s")
            part = source.next_partition(pairs)
            laps.lap("partition_s")
            s = pcomp_string(s, part, builder)
        laps.lap("rewrite_s")
        records.append(round_record(round_no, before, len(s),
                                    builder.productions - made, len(s),
                                    laps))
        if trace is not None:
            trace.append(output_ids(s))
        round_no += 1
    return RecompressResult(builder.finish(int(output_ids(s)[0])), records,
                            source.log, trace)


def recompress_string(text: bytes, strategy: str = DEFAULT_STRATEGY,
                      seed: int = DEFAULT_SEED,
                      source: PartitionSource | None = None,
                      collect_trace: bool = False) -> RecompressResult:
    """Run-length grammar for `text` by string-level recompression."""
    if len(text) == 0:
        raise ValueError("cannot compress an empty text")
    if source is None:
        source = PartitionSource(strategy, seed)
    builder = RlslpBuilder()
    records: list[RoundRecord] = []
    trace: list[np.ndarray] | None = [] if collect_trace else None
    return string_rounds(text_to_levels(text), 0, builder, source, records,
                         trace, round_limit(len(text)))
