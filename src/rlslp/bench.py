"""Benchmark harness: pipeline runs over a parameter grid.

Emits one wide TSV row per (dataset, algorithm, block size, strategy)
cell with counts, total and per-stage runtimes, and per-stage peak
allocation, so trend plots can be drawn straight from the table.
The string-level reference engine can be included as its own rows.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from .grammar import grammar_size
from .naive import recompress_string
from .pipeline import (STAGE_NAMES, PipelineConfig, StatsReport,
                       run_pipeline, run_stage)

# the grid never verifies, so verify has no columns
_STAGES = tuple(name for name in STAGE_NAMES if name != "verify")
COLUMNS = (
    "dataset", "algorithm", "block_size", "strategy", "seed",
    "input_bytes", "phrases", "slg_rules", "pruned_rules",
    "productions", "grammar_size", "seconds_total",
    *(f"seconds_{name}" for name in _STAGES),
    *(f"alloc_{name}" for name in _STAGES),
)


def _row_from_report(dataset: str, algorithm: str, block_size,
                     strategy: str, seed: int, report: StatsReport) -> dict:
    row = {
        "dataset": dataset,
        "algorithm": algorithm,
        "block_size": block_size,
        "strategy": strategy,
        "seed": seed,
        "seconds_total": round(report.total_seconds(), 6),
    }
    row.update(report.counts)
    for s in report.stages:
        row[f"seconds_{s.name}"] = round(s.seconds, 6)
        row[f"alloc_{s.name}"] = s.peak_alloc
    return row


def run_bench(inputs, block_sizes=(50,), strategies=("mixed",),
              seed: int = 42, include_reference: bool = False,
              workdir: str | Path | None = None) -> list[dict]:
    """Run the grid sequentially; each cell writes a disjoint artifact."""
    rows: list[dict] = []
    tmp = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="rlslp-bench-")
        workdir = tmp.name
    workdir = Path(workdir)
    try:
        for input_path in inputs:
            input_path = Path(input_path)
            name = input_path.name
            for strategy in strategies:
                for block_size in block_sizes:
                    out = workdir / f"{name}.B{block_size}.{strategy}.slgf"
                    cfg = PipelineConfig(block_size=block_size,
                                         strategy=strategy, seed=seed)
                    report = run_pipeline(input_path, out, cfg)
                    rows.append(_row_from_report(
                        name, "pipeline", block_size, strategy, seed, report))
                if include_reference:
                    text = input_path.read_bytes()
                    report = StatsReport()
                    report.counts["input_bytes"] = len(text)
                    result = run_stage(
                        report, "recompress",
                        lambda: recompress_string(text, strategy=strategy,
                                                  seed=seed))
                    size = grammar_size(result.grammar)
                    report.counts["productions"] = size.productions
                    report.counts["grammar_size"] = size.size
                    rows.append(_row_from_report(
                        name, "reference", "", strategy, seed, report))
    finally:
        if tmp is not None:
            tmp.cleanup()
    return rows


def bench_to_tsv(rows: list[dict]) -> str:
    lines = ["\t".join(COLUMNS)]
    for row in rows:
        lines.append("\t".join(str(row.get(col, "")) for col in COLUMNS))
    return "\n".join(lines) + "\n"
