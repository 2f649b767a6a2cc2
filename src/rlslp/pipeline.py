"""End-to-end compression pipeline and artifact verification.

Four stages: approximate LZ parse, factorization to grammar, pruning,
then grammar-level recompression; on request a fifth, verify, checks
that the bytes about to be written decode and expand back to the input.
Each stage is timed and its allocation peak recorded, so engine
comparisons can be made without the input text buffer polluting the
numbers.

Only the parse reads the text.  The pipeline drops it once the parse
returns, so the later stages run in memory that tracks the grammar, not
the text, and verify streams the input file from disk.
"""

from __future__ import annotations

import io
import os
import resource
import time
import tracemalloc
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .engine import recompress
from .grammar import Grammar, encode_grammar, grammar_size, iter_expansion
from .lz import parse_bentley_mcilroy
from .partition import STRATEGIES
from .slg import lz_to_slg, prune_slp

STAGE_NAMES = ("parse_bm", "lz_to_slg", "prune_slp", "recompress", "verify")


class PipelineError(RuntimeError):
    """Stage failure; carries the stage name for diagnostics."""

    def __init__(self, stage: str, message: str) -> None:
        super().__init__(message)
        self.stage = stage


@dataclass
class PipelineConfig:
    """Settings of one `run_pipeline` call: the parse's block size, the
    pair-partition strategy and its seed, whether to verify the encoded
    output before it is written, and whether to record allocation peaks.
    """

    block_size: int = 50
    strategy: str = "mixed"
    seed: int = 42
    verify: bool = False
    # allocation tracing roughly triples stage cost; switch it off for
    # timing-sensitive runs and peak_alloc reads as 0
    profile_memory: bool = True

    def __post_init__(self) -> None:
        if self.block_size < 2:
            raise ValueError("block_size must be at least 2")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass
class StageStat:
    name: str
    seconds: float
    peak_alloc: int
    rss_peak: int


@dataclass
class StatsReport:
    stages: list[StageStat] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def stage(self, name: str) -> StageStat:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)

    def total_seconds(self) -> float:
        return sum(s.seconds for s in self.stages)

    def to_tsv(self) -> str:
        lines = ["name\tmetric\tvalue"]
        for s in self.stages:
            lines.append(f"{s.name}\tseconds\t{s.seconds:.6f}")
            lines.append(f"{s.name}\tpeak_alloc_bytes\t{s.peak_alloc}")
            lines.append(f"{s.name}\trss_peak_bytes\t{s.rss_peak}")
        for key, value in self.counts.items():
            lines.append(f"totals\t{key}\t{value}")
        return "\n".join(lines) + "\n"


def _rss_peak_bytes() -> int:
    # ru_maxrss is in KiB on Linux; a lifetime high-water mark, so
    # per-stage values are monotone and only approximate
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def run_stage(report: StatsReport, name: str, fn, profile: bool = True):
    """Run one stage with wall-clock and allocation-peak accounting."""
    tracing = tracemalloc.is_tracing()
    if profile:
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:
        if profile and not tracing:
            tracemalloc.stop()
        raise PipelineError(name, str(exc)) from exc
    seconds = time.perf_counter() - t0
    peak = 0
    if profile:
        _current, peak = tracemalloc.get_traced_memory()
        if not tracing:
            tracemalloc.stop()
    report.stages.append(StageStat(name, seconds, peak, _rss_peak_bytes()))
    return result


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write data to path through a temporary file in the same directory,
    renamed into place, so that a failure leaves the previous file (or
    none), never a partial one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _first_mismatch(chunks: Iterable[bytes], read: Callable[[int], bytes]
                    ) -> int | None:
    """First offset where the concatenated chunks and the stream that
    read(k) consumes differ, None if they are equal."""
    off = 0
    for chunk in chunks:
        want = read(len(chunk))
        if want != chunk:
            limit = min(len(want), len(chunk))
            for i in range(limit):
                if chunk[i] != want[i]:
                    return off + i
            return off + limit
        off += len(chunk)
    if read(1):
        return off
    return None


def _slgf_mismatch(data: bytes, text_path: str | Path) -> int | None:
    """First offset where the grammar that the `.slgf` bytes data encode
    expands differently from the text file, None if they are equal."""
    # looked up on the module on each call, so that a wrapper installed
    # on grammar.decode_grammar (perfbench's spans) sees the call
    from .grammar import decode_grammar

    g = decode_grammar(data)
    with open(text_path, "rb") as fh:
        return _first_mismatch(iter_expansion(g), fh.read)


def verify_expansion(g: Grammar, text: bytes) -> int | None:
    """First mismatch offset between expand(g) and text, None if equal."""
    return _first_mismatch(iter_expansion(g), io.BytesIO(text).read)


def verify_files(grammar_path: str | Path, text_path: str | Path
                 ) -> tuple[bool, int | None]:
    """Streaming comparison of a stored grammar against a text file."""
    offset = _slgf_mismatch(Path(grammar_path).read_bytes(), text_path)
    return offset is None, offset


def run_pipeline(input_path: str | Path, output_path: str | Path,
                 cfg: PipelineConfig | None = None) -> StatsReport:
    """Compress a text file into a stored run-length grammar.

    Parses, builds the grammar, prunes and recompresses it, and encodes
    the result.  With `cfg.verify`, the verify stage decodes those very
    bytes and compares their expansion with input_path, streamed from
    disk.  The bytes are written to output_path only once every stage
    has succeeded, and the stats report is returned; the caller persists
    it wherever it wants it.  The text is held only until the parse
    returns, the factorization until `lz_to_slg` returns.
    """
    cfg = cfg or PipelineConfig()
    input_path = Path(input_path)
    output_path = Path(output_path)
    text = input_path.read_bytes()
    if not text:
        raise PipelineError("input", f"{input_path}: input is empty")
    report = StatsReport()
    report.counts["input_bytes"] = len(text)

    prof = cfg.profile_memory
    fz = run_stage(report, "parse_bm",
                   lambda: parse_bentley_mcilroy(text, cfg.block_size),
                   profile=prof)
    del text
    report.counts["phrases"] = len(fz)

    slg = run_stage(report, "lz_to_slg", lambda: lz_to_slg(fz),
                    profile=prof)
    del fz
    report.counts["slg_rules"] = len(slg)

    pruned = run_stage(report, "prune_slp", lambda: prune_slp(slg),
                       profile=prof)
    report.counts["pruned_rules"] = len(pruned)

    result = run_stage(report, "recompress",
                       lambda: recompress(pruned, cfg.strategy, cfg.seed),
                       profile=prof)
    size = grammar_size(result.grammar)
    report.counts["productions"] = size.productions
    report.counts["grammar_size"] = size.size
    data = encode_grammar(result.grammar)

    if cfg.verify:
        offset = run_stage(report, "verify",
                           lambda: _slgf_mismatch(data, input_path),
                           profile=prof)
        if offset is not None:
            raise PipelineError("verify",
                                f"expansion mismatch at offset {offset}")
    write_atomic(output_path, data)
    return report
