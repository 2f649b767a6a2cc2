"""One benchmark pass in a fresh process.

Usage: python3 perfbench/worker.py MODE JSON_ARGS

MODE is one of
  setup     generate and write the workload input repeatedly, timing each
  compress  one untraced run_pipeline call, then verify_files
  trace     run_pipeline, verify_files and the string engine under spans
  alloc     run_pipeline with allocation profiling, and the string
            engine under tracemalloc

The last line of standard output is a JSON object with the pass's
measurements and its correctness checks.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from workloads import BLOCK_SIZE, MIB, STRATEGY, STRATEGY_SEED


def import_program(src: str):
    """Import rlslp from the checkout's source tree and nowhere else."""
    src_dir = Path(src).resolve()
    sys.path.insert(0, str(src_dir))
    import rlslp
    origin = Path(rlslp.__file__).resolve()
    if src_dir not in origin.parents:
        raise RuntimeError(f"rlslp imported from {origin}, not {src_dir}")
    return rlslp


def config(rlslp, profile_memory: bool):
    return rlslp.pipeline.PipelineConfig(
        block_size=BLOCK_SIZE, strategy=STRATEGY, seed=STRATEGY_SEED,
        profile_memory=profile_memory)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def rhs_total(rlslp, g) -> int:
    """Total right-hand-side length; a run rule counts 2."""
    seq = rlslp.grammar.SeqRule
    return sum(len(r.rhs) if isinstance(r, seq) else 2 for r in g.rules)


def read_grammar(rlslp, path):
    return rlslp.grammar.decode_grammar(Path(path).read_bytes())


# The host's speed swings by 20-50% for tens of seconds at a time as
# other tenants come and go.  Verify takes 0.03-0.3 s, so its median over
# one run follows those swings more than any bound allows.  Each verify
# call is therefore bracketed by a fixed interpreter-bound loop, and its
# wall time is scaled by REFERENCE_S over the loop's time around it: a
# call that took 0.10 s while the loop took 0.05 s reads as 0.08 s.
# Compress runs for seconds and is parse-bound on some inputs, which the
# loop does not track, so its wall time is reported unscaled.
CALIBRATION_ROUNDS = 200_000
# about the loop's median time on the 2-vCPU Xeon VM of the first baseline
REFERENCE_S = 0.04


def calibrate() -> float:
    """Seconds of a fixed interpreter-bound loop: the host's speed now."""
    t0 = time.perf_counter()
    acc: dict[int, tuple[int]] = {}
    for i in range(CALIBRATION_ROUNDS):
        k = i & 8191
        acc[k] = (acc.get(k, (0,))[0] + i,)
    return time.perf_counter() - t0


def do_setup(rlslp, a: dict) -> dict:
    from rlslp.dataset import gen_dataset, load_sample
    out = Path(a["input"])
    seconds, digests = [], set()
    while len(seconds) < a["min_n"] or sum(seconds) < a["min_s"]:
        t0 = time.perf_counter()
        data = gen_dataset(load_sample(), a["size"], a["rate"], a["seed"])
        out.write_bytes(data)
        seconds.append(time.perf_counter() - t0)
        digests.add(hashlib.sha256(data).hexdigest())
        del data
    import numpy
    return {"setup_s": seconds, "input_bytes": out.stat().st_size,
            "input_sha256": digests.pop(),
            "deterministic": not digests,
            "numpy": numpy.__version__, "python": sys.version.split()[0]}


def do_compress(rlslp, a: dict) -> dict:
    from rlslp.pipeline import run_pipeline, verify_files
    cfg = config(rlslp, profile_memory=False)
    t0 = time.perf_counter()
    report = run_pipeline(a["input"], a["output"], cfg)
    compress_s = time.perf_counter() - t0
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # verify is short on repetitive inputs, so repeat it until the
    # median rests on enough wall time
    wall, scaled, ok = [], [], True
    before = calibrate()
    while len(wall) < a["verify_min_n"] or sum(wall) < a["verify_min_s"]:
        t0 = time.perf_counter()
        same, _offset = verify_files(a["output"], a["input"])
        wall.append(time.perf_counter() - t0)
        after = calibrate()
        scaled.append(wall[-1] * REFERENCE_S / ((before + after) / 2))
        before = after
        ok = ok and same
    g = read_grammar(rlslp, a["output"])
    return {"compress_s": compress_s, "peak_rss_mib": rss_mib,
            "verify_s": statistics.median(scaled),
            "verify_wall_s": statistics.median(wall),
            "verify_n": len(wall), "verified": ok,
            "grammar_size": rhs_total(rlslp, g),
            "counts": report.counts, "slgf_sha256": sha256(a["output"])}


def install_spans(rlslp, rec) -> None:
    import rlslp.dataset as dataset
    import rlslp.engine as engine
    import rlslp.grammar as grammar
    import rlslp.naive as naive
    import rlslp.partition as partition
    import rlslp.pipeline as pipeline

    def phrases(fz):
        lits = sum(1 for p in fz.phrases if p.length == 0)
        return {"phrases": len(fz.phrases), "literals": lits}

    def rules(g):
        return {"rules": len(g.rules)}

    def rounds(result):
        recs = result.records
        pcomp = [r for r in recs if r.phase == "pcomp" and r.total_weight]
        # under "mixed" every other partition is a coin flip, which may
        # replace nothing; the total share is what better partitions move
        return {"phases": len(recs),
                "work_size_max": max((r.work_size for r in recs), default=0),
                "replaced_ratio_min": min(
                    (r.replaced_weight / r.total_weight for r in pcomp),
                    default=0.0),
                "replaced_ratio_total":
                    sum(r.replaced_weight for r in pcomp)
                    / max(1, sum(r.total_weight for r in pcomp))}

    rec.wrap(dataset, "gen_dataset", "dataset.gen_dataset")
    rec.wrap(pipeline, "run_pipeline", "pipeline.run_pipeline")
    rec.wrap(pipeline, "parse_bentley_mcilroy", "lz.parse_bentley_mcilroy",
             phrases)
    rec.wrap(pipeline, "lz_to_slg", "slg.lz_to_slg", rules)
    rec.wrap(pipeline, "slg_to_slp", "slg.slg_to_slp", rules)
    rec.wrap(pipeline, "prune_slp", "slg.prune_slp", rules)
    rec.wrap(pipeline, "recompress", "engine.recompress", rounds)
    rec.wrap(engine, "bcomp", "engine.bcomp")
    rec.wrap(engine, "compute_nocc", "engine.compute_nocc")
    rec.wrap(engine, "collect_pair_frequencies",
             "engine.collect_pair_frequencies")
    rec.wrap(engine, "pcomp", "engine.pcomp")
    rec.wrap(engine, "replaced_weight", "partition.replaced_weight")
    rec.wrap(engine.LevelGrammar, "level_lengths", "engine.level_lengths",
             lambda r: {"work_size": r[1]})
    rec.wrap(partition.PartitionSource, "next_partition",
             "partition.next_partition")
    rec.wrap(pipeline, "encode_grammar", "grammar.encode_grammar",
             lambda b: {"bytes": len(b)})
    rec.wrap(pipeline, "verify_files", "pipeline.verify_files")
    # verify_files imports decode_grammar from the grammar module per call
    rec.wrap(grammar, "decode_grammar", "grammar.decode_grammar")
    rec.wrap_generator(pipeline, "iter_expansion", "grammar.iter_expansion")
    rec.wrap(naive, "recompress_string", "naive.recompress_string")


def trace_metrics(rec) -> dict:
    """Per-layer metrics from the spans of one traced pass."""
    def first(name, spans=rec.spans):
        return next((s for s in spans if s.name == name), None)

    def seconds(name, spans):
        return sum(s.seconds for s in spans if s.name == name)

    pipe = first("pipeline.run_pipeline")
    inside = rec.descendants(pipe)
    verify = first("pipeline.verify_files")
    checking = rec.descendants(verify)
    parse = first("lz.parse_bentley_mcilroy", inside)
    recomp = first("engine.recompress", inside)
    naive = first("naive.recompress_string")
    gen = first("dataset.gen_dataset")
    levels = [s for s in inside if s.name == "engine.level_lengths"]

    def attr(span, key, default=0):
        return span.attrs.get(key, default) if span is not None else default

    def rule_count(name):
        return attr(first(name, inside), "rules")

    work_initial = attr(levels[0] if levels else None, "work_size")
    m = {
        "lz.parse_s": parse.seconds if parse else 0.0,
        "lz.phrases": attr(parse, "phrases"),
        "lz.literal_share": attr(parse, "literals") / max(1, attr(parse,
                                                                 "phrases")),
        "slg.lz_to_slg_s": seconds("slg.lz_to_slg", inside),
        "slg.slg_to_slp_s": seconds("slg.slg_to_slp", inside),
        "slg.prune_slp_s": seconds("slg.prune_slp", inside),
        "slg.slg_rules": rule_count("slg.lz_to_slg"),
        "slg.slp_rules": rule_count("slg.slg_to_slp"),
        "slg.pruned_rules": rule_count("slg.prune_slp"),
        "engine.recompress_s": recomp.seconds if recomp else 0.0,
        "engine.recompress_self_s": rec.self_seconds(recomp) if recomp
        else 0.0,
        "engine.bcomp_s": seconds("engine.bcomp", inside),
        "engine.pcomp_s": seconds("engine.pcomp", inside),
        "engine.pair_count_s": seconds("engine.collect_pair_frequencies",
                                       inside),
        "engine.nocc_s": seconds("engine.compute_nocc", inside),
        "engine.level_lengths_s": seconds("engine.level_lengths", inside),
        "engine.phases": attr(recomp, "phases"),
        "engine.work_size_initial": work_initial,
        "engine.work_size_max": max(work_initial,
                                    attr(recomp, "work_size_max")),
        "partition.next_partition_s": seconds("partition.next_partition",
                                              inside),
        "partition.replaced_weight_s": seconds("partition.replaced_weight",
                                               inside),
        "partition.replaced_ratio_min": attr(recomp, "replaced_ratio_min",
                                             0.0),
        "partition.replaced_ratio_total": attr(recomp,
                                               "replaced_ratio_total", 0.0),
        "grammar.encode_s": seconds("grammar.encode_grammar", inside),
        "grammar.decode_s": seconds("grammar.decode_grammar", checking),
        "grammar.expand_s": seconds("grammar.iter_expansion", checking),
        "grammar.slgf_bytes": attr(first("grammar.encode_grammar", inside),
                                   "bytes"),
        "pipeline.self_s": rec.self_seconds(pipe),
        "pipeline.child_coverage": rec.covered(pipe) / pipe.seconds,
        "pipeline.verify_s": verify.seconds,
        "dataset.gen_s": gen.seconds,
        "naive.recompress_string_s": naive.seconds,
    }
    m["slg.kept_rule_ratio"] = m["slg.pruned_rules"] / max(
        1, m["slg.slg_rules"])
    m["naive.engine_time_ratio"] = m["engine.recompress_s"] / naive.seconds
    return m


def do_trace(rlslp, a: dict) -> dict:
    from spans import SpanRecorder
    import rlslp.dataset as dataset
    import rlslp.naive as naive
    import rlslp.pipeline as pipeline

    text = Path(a["input"]).read_bytes()
    rec = SpanRecorder()
    install_spans(rlslp, rec)
    try:
        generated_matches = text == dataset.gen_dataset(
            dataset.load_sample(), a["size"], a["rate"], a["seed"])
        report = pipeline.run_pipeline(a["input"], a["output"],
                                       config(rlslp, profile_memory=False))
        same, _offset = pipeline.verify_files(a["output"], a["input"])
        oracle = naive.recompress_string(text, strategy=STRATEGY,
                                         seed=STRATEGY_SEED)
    finally:
        rec.restore()
    rec.dump(a["spans_out"])

    m = trace_metrics(rec)
    traced = read_grammar(rlslp, a["output"])
    untraced = read_grammar(rlslp, a["untraced"])
    counts = report.counts
    checks = {
        "generated_input_matches": generated_matches,
        "verified": same,
        "traced_equals_untraced": traced.rules == untraced.rules,
        "engine_equals_string_engine": oracle.grammar.rules == traced.rules,
        "counts_equal_untraced": counts == a["untraced_counts"],
        "span_counts_equal_report": (
            counts.get("phrases") == m["lz.phrases"]
            and counts.get("slg_rules") == m["slg.slg_rules"]
            and counts.get("pruned_rules") == m["slg.pruned_rules"]),
    }
    pipe = next(s for s in rec.spans if s.name == "pipeline.run_pipeline")
    return {"metrics": m, "checks": checks, "compress_s": pipe.seconds,
            "skipped": rec.skipped, "spans": len(rec.spans)}


def do_alloc(rlslp, a: dict) -> dict:
    from spans import SpanRecorder
    import rlslp.naive as naive
    import rlslp.pipeline as pipeline

    # only counts are taken from this recorder; its spans are not timings
    rec = SpanRecorder()
    rec.wrap(pipeline, "recompress", "engine.recompress",
             lambda r: {"phases": len(r.records)})
    try:
        report = pipeline.run_pipeline(a["input"], a["output"],
                                       config(rlslp, profile_memory=True))
    finally:
        rec.restore()
    peaks = {s.name: s.peak_alloc for s in report.stages}
    text = Path(a["input"]).read_bytes()
    tracemalloc.start()
    try:
        naive.recompress_string(text, strategy=STRATEGY, seed=STRATEGY_SEED)
        _current, naive_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    phases = rec.spans[0].attrs["phases"] if rec.spans else 0
    return {
        "metrics": {
            "lz.parse_peak_alloc_mib": peaks.get("parse_bm", 0) / MIB,
            "lz.parse_alloc_bytes_per_input_byte":
                peaks.get("parse_bm", 0) / len(text),
            "slg.lz_to_slg_peak_alloc_mib": peaks.get("lz_to_slg", 0) / MIB,
            "slg.slg_to_slp_peak_alloc_mib":
                peaks.get("slg_to_slp", 0) / MIB,
            "slg.prune_slp_peak_alloc_mib": peaks.get("prune_slp", 0) / MIB,
            "engine.recompress_peak_alloc_mib":
                peaks.get("recompress", 0) / MIB,
            "naive.peak_alloc_mib": naive_peak / MIB,
        },
        "checks": {
            "counts_equal_untraced": report.counts == a["untraced_counts"],
            "grammar_equals_untraced":
                sha256(a["output"]) == a["untraced_sha256"],
        },
        "engine_phases": phases,
    }


MODES = {"setup": do_setup, "compress": do_compress, "trace": do_trace,
         "alloc": do_alloc}


def main() -> None:
    mode, args = sys.argv[1], json.loads(sys.argv[2])
    rlslp = import_program(args["src"])
    print(json.dumps(MODES[mode](rlslp, args)))


if __name__ == "__main__":
    main()
