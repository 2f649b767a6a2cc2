"""rlslp benchmark: compress generated corpora end to end, layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload mut16m --seed 31 --seconds 30 --trace 0

The workload's input is generated from the bundled sample with
`rlslp.dataset.gen_dataset` and the given seed.  Every pass runs in a
fresh process (`perfbench/worker.py`), one at a time, and imports rlslp
from `src/` of the current directory only.

--trace 0 reports the end-to-end metrics:
  setup_s       median wall time to generate and write the input
  compress_s    median wall time of one run_pipeline call, text file to
                .slgf, with tracing and tracemalloc off
  peak_rss_mib  ru_maxrss of the compressing process, read after compress
                and before verify
  verify_s      median time of verify_files(slgf, text), in wall seconds
                scaled to a reference host speed by a calibration loop
                timed around each call (see worker.calibrate); the
                unscaled median is printed as verify_wall_s
  grammar_size  total right-hand-side length of the output grammar
Compress runs repeat, each in a new process, until --seconds is spent
(at least two).  A run that raises or fails verification counts as
failed.

--trace 1 reports the per-layer metrics from three passes over the same
input: an untraced compress, a traced one (spans around each layer's
public functions, written to .perfbench_work/), and an allocation pass
with tracemalloc on.  The traced pass also runs the string engine
(rlslp.naive) as the lock-step oracle.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; lines before it give per-run
details and run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORK_DIR = Path(".perfbench_work")
SRC = Path("src")
# a run must end within 180 s; the traced mode on mut16m needs about
# 135-150 s, most of it the allocation pass under tracemalloc
DEADLINE_S = 177.0
# small inputs generate in milliseconds, so repeat until the median
# rests on enough wall time
SETUP_MIN_N = 5
SETUP_MIN_S = 1.0
MIN_RUNS = 2
VERIFY_MIN_N = 5
VERIFY_MIN_S = 1.0


class PassFailed(Exception):
    pass


def run_pass(mode: str, args: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    args = dict(args, src=str(SRC.resolve()))
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), mode, json.dumps(args)],
            capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{mode}: timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise PassFailed(f"{mode}: exit {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spread(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def end_to_end(wl, seed: int, seconds: float, work: Path,
               deadline: float) -> dict:
    inp, out = work / "input.bin", work / "output.slgf"
    setup = run_pass("setup", {"input": str(inp), "size": wl.size,
                               "rate": wl.mutation_rate, "seed": seed,
                               "min_n": SETUP_MIN_N,
                               "min_s": SETUP_MIN_S}, deadline)
    emit({"meta": meta(wl, seed, setup)})
    runs, failures = [], []
    t0 = time.monotonic()
    last = 0.0
    while len(runs) + len(failures) < MIN_RUNS or (
            time.monotonic() - t0 + last <= seconds):
        if time.monotonic() + last > deadline:
            break
        start = time.monotonic()
        try:
            r = run_pass("compress", {"input": str(inp), "output": str(out),
                                      "verify_min_n": VERIFY_MIN_N,
                                      "verify_min_s": VERIFY_MIN_S},
                         deadline)
        except PassFailed as exc:
            failures.append(str(exc))
            emit({"run": len(runs) + len(failures), "error": str(exc)})
            if time.monotonic() >= deadline:
                break
            continue
        finally:
            last = time.monotonic() - start
        if not r["verified"]:
            failures.append("verification mismatch")
        else:
            runs.append(r)
        emit({"run": len(runs) + len(failures), **r})
    if not runs:
        raise PassFailed("; ".join(failures) or "no run completed")
    # the program is deterministic: every run must give the same output
    repeatable = (setup["deterministic"]
                  and len({r["slgf_sha256"] for r in runs}) == 1
                  and len({json.dumps(r["counts"], sort_keys=True)
                           for r in runs}) == 1)
    series = {k: [r[k] for r in runs]
              for k in ("compress_s", "peak_rss_mib", "verify_s",
                        "verify_wall_s")}
    series["setup_s"] = setup["setup_s"]
    emit({"spread": {k: spread(v) for k, v in series.items()}})
    metrics = {
        "compress_s": statistics.median(series["compress_s"]),
        "peak_rss_mib": statistics.median(series["peak_rss_mib"]),
        "verify_s": statistics.median(series["verify_s"]),
        "grammar_size": runs[0]["grammar_size"],
        "setup_s": statistics.median(series["setup_s"]),
    }
    return {"correct": repeatable and not failures,
            "attempted": len(runs) + len(failures),
            "failed": len(failures), "metrics": metrics}


def per_layer(wl, seed: int, work: Path, deadline: float) -> dict:
    inp = work / "input.bin"
    untraced_out = work / "untraced.slgf"
    setup = run_pass("setup", {"input": str(inp), "size": wl.size,
                               "rate": wl.mutation_rate, "seed": seed,
                               "min_n": 1, "min_s": 0.0}, deadline)
    emit({"meta": meta(wl, seed, setup)})
    base = run_pass("compress", {"input": str(inp),
                                 "output": str(untraced_out),
                                 "verify_min_n": 1, "verify_min_s": 0.0},
                    deadline)
    spans_out = WORK_DIR / f"spans-{wl.name}-{seed}.json"
    traced = run_pass("trace", {"input": str(inp),
                                "output": str(work / "traced.slgf"),
                                "untraced": str(untraced_out),
                                "untraced_counts": base["counts"],
                                "size": wl.size, "rate": wl.mutation_rate,
                                "seed": seed, "spans_out": str(spans_out)},
                      deadline)
    alloc = run_pass("alloc", {"input": str(inp),
                               "output": str(work / "alloc.slgf"),
                               "untraced_counts": base["counts"],
                               "untraced_sha256": base["slgf_sha256"]},
                     deadline)
    groups = {"untraced": {"verified": base["verified"],
                           "grammar_size_equal_report":
                               base["grammar_size"]
                               == base["counts"].get("grammar_size")},
              "trace": traced["checks"],
              "alloc": {**alloc["checks"],
                        "phases_equal_trace":
                            alloc["engine_phases"]
                            == traced["metrics"]["engine.phases"]}}
    emit({"checks": groups, "skipped_spans": traced["skipped"],
          "spans": traced["spans"], "spans_file": str(spans_out)})
    m = {**traced["metrics"], **alloc["metrics"]}
    m["naive.engine_alloc_ratio"] = (m["engine.recompress_peak_alloc_mib"]
                                     / m["naive.peak_alloc_mib"])
    m["trace.overhead_s"] = traced["compress_s"] - base["compress_s"]
    failed = sum(1 for g in groups.values() if not all(g.values()))
    return {"correct": failed == 0, "attempted": len(groups),
            "failed": failed,
            "metrics": m}


def meta(wl, seed: int, setup: dict) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {"workload": wl.name, "seed": seed, "default_seed": wl.seed,
            "held_out_seed": wl.held_out, "size": wl.size,
            "mutation_rate": wl.mutation_rate,
            "input_bytes": setup["input_bytes"],
            "input_sha256": setup["input_sha256"],
            "nproc": usable, "cpu_count": os.cpu_count(),
            "python": setup["python"], "numpy": setup["numpy"],
            "machine": platform.machine(), "git_commit": git_commit()}


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json at the repository root
    declares them for kind "end_to_end" or "per_layer"."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    # turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # running pass before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "rlslp" / "__init__.py").is_file():
        print(f"error: no rlslp sources under {SRC.resolve()}; run from "
              "the repository root", file=sys.stderr)
        return 2
    wl = WORKLOADS[opts.workload]
    seed = wl.seed if opts.seed is None else opts.seed
    deadline = time.monotonic() + DEADLINE_S
    work = WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if opts.trace:
            result = per_layer(wl, seed, work, deadline)
        else:
            result = end_to_end(wl, seed, opts.seconds, work, deadline)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = declared_units("per_layer" if opts.trace else "end_to_end")
    if set(result["metrics"]) != set(units):
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ set(units))}",
              file=sys.stderr)
        return 1
    result["metrics"] = {k: {"value": result["metrics"][k], "unit": u}
                         for k, u in units.items()}
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
