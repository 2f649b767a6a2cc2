"""Acceptance gate: ten end-to-end checks over generated corpora.

Each test prints one `criterion NN: PASS` line when it gets through its
assertions; the pytest -v status line carries the same verdict.  The
scale-dependent checks (8..10) pin qualitative trends at desk scale, not
absolute throughput numbers.
"""

import gc
import math
import random
import time

import numpy as np
import pytest

from conftest import mutated_text, random_seq_grammar
from reference import rhs
from rlslp import cli
from rlslp.dataset import gen_dataset, load_sample
from rlslp.engine import LevelGrammar, compute_nocc, recompress
from rlslp.grammar import expand
from rlslp.lz import Phrase, parse_bentley_mcilroy, parse_exact_lz77
from rlslp.naive import recompress_string
from rlslp.partition import PartitionSource
from rlslp.pipeline import PipelineConfig, StatsReport, run_pipeline, run_stage
from rlslp.slg import lz_to_slg, prune_slp

SIGMAS = (1, 2, 4, 256)


def sized_text(rng: random.Random, n: int) -> bytes:
    sigma = rng.choice(SIGMAS)
    if sigma == 256:
        return rng.randbytes(n)
    return bytes(rng.choices(range(97, 97 + sigma), k=n))


def slp_of(t: bytes):
    return prune_slp(lz_to_slg(parse_bentley_mcilroy(t, 8)))


@pytest.fixture(scope="module")
def lockstep_corpus():
    """500 texts, n <= 5000: reference run, injected engine run, det run."""
    rng = random.Random(900)
    runs = []
    for i in range(500):
        if i % 5 == 4:
            t = mutated_text(rng, rng.randint(5, 80), rng.randint(500, 5000))
        else:
            t = sized_text(rng, rng.randint(2, 5000))
        rs = recompress_string(t, strategy="mixed", seed=i, collect_trace=True)
        rg = recompress(slp_of(t), source=PartitionSource(injected=rs.partitions),
                        collect_trace=True)
        rdet = recompress_string(t, strategy="det", seed=i)
        runs.append((t, rs, rg, rdet))
    return runs


@pytest.fixture(scope="module")
def trend_input_4m():
    return gen_dataset(load_sample(), 4 << 20, mutation_rate=1e-5, seed=21)


def test_criterion_01_round_trip(tmp_path):
    t0 = time.monotonic()
    rng = random.Random(901)
    inp = tmp_path / "in.bin"
    out = tmp_path / "out.slgf"
    done = 0
    for i in range(1000):
        text = sized_text(rng, rng.randint(1, 2000))
        inp.write_bytes(text)
        if i % 100 == 0:
            rc = cli.main(["pipeline", str(inp), str(out), "--verify",
                           "--block-size", "16"])
            assert rc == 0
        else:
            cfg = PipelineConfig(block_size=16 if i % 2 else 50)
            run_pipeline(inp, out, cfg)
        from rlslp.grammar import decode_grammar
        assert expand(decode_grammar(out.read_bytes())) == text
        done += 1
    for size, rate in ((1 << 16, 1e-3), (1 << 18, 1e-4), (1 << 20, 1e-5)):
        text = gen_dataset(load_sample()[:4096], size, rate, seed=size)
        inp.write_bytes(text)
        run_pipeline(inp, out, PipelineConfig(verify=True))
        from rlslp.grammar import decode_grammar
        assert expand(decode_grammar(out.read_bytes())) == text
        done += 1
    elapsed = time.monotonic() - t0
    assert done >= 1000
    assert elapsed < 300
    print(f"criterion 01: PASS ({done} texts, {elapsed:.1f}s)")


def test_criterion_02_lock_step_equivalence(lockstep_corpus):
    for t, rs, rg, _ in lockstep_corpus:
        assert len(rs.trace) == len(rg.trace)
        for a, b in zip(rs.trace, rg.trace):
            assert np.array_equal(a, b)
        assert rg.grammar.rules == rs.grammar.rules
    print(f"criterion 02: PASS ({len(lockstep_corpus)} texts)")


def test_criterion_03_bcomp_postcondition(lockstep_corpus):
    rounds = 0
    for t, rs, rg, _ in lockstep_corpus:
        for res in (rs, rg):
            for rec, level in zip(res.records, res.trace):
                if rec.phase != "bcomp":
                    continue
                assert not np.any(level[1:] == level[:-1])
                rounds += 1
    assert rounds > 0
    print(f"criterion 03: PASS ({rounds} rounds)")


def test_criterion_04_partition_quarter_guarantee(lockstep_corpus):
    checked = 0
    for t, rs, rg, rdet in lockstep_corpus:
        for rec in rdet.records:
            if rec.phase == "pcomp":
                assert 4 * rec.replaced_weight >= rec.total_weight
                checked += 1
        # mixed alternates det/rand; even pcomp rounds are deterministic
        pcomp_recs = [r for r in rs.records if r.phase == "pcomp"]
        for k, rec in enumerate(pcomp_recs):
            if k % 2 == 0:
                assert 4 * rec.replaced_weight >= rec.total_weight
                checked += 1
    assert checked > 0
    print(f"criterion 04: PASS ({checked} deterministic rounds)")


def test_criterion_05_round_bound(lockstep_corpus):
    for t, rs, rg, rdet in lockstep_corpus:
        bound = 8 * math.log2(len(t)) + 8
        for res in (rs, rg, rdet):
            # strictest reading: every phase counted as a round
            assert len(res.records) <= bound
    print(f"criterion 05: PASS ({len(lockstep_corpus)} texts)")


def test_criterion_06_exact_lz77_oracle():
    fz = parse_exact_lz77(b"bbabaababababaababa")
    assert fz.phrases == [Phrase(ord("b"), 0), Phrase(1, 1), Phrase(ord("a"), 0),
                          Phrase(2, 2), Phrase(3, 3), Phrase(7, 6),
                          Phrase(10, 5)]
    assert len(fz.phrases) == 7
    print("criterion 06: PASS")


def test_criterion_07_nocc_brute_force():
    rng = random.Random(907)
    checked = 0
    while checked < 200:
        lg = LevelGrammar.from_slp(random_seq_grammar(rng))
        m = len(lg)
        nodes = [0] * (m + 1)
        for j in range(1, m + 1):
            nodes[j] = 1 + sum(nodes[e] for e in rhs(lg, j) if e > 0)
        if nodes[m] > 1000:
            continue
        counts = [0] * (m + 1)
        stack = [m]
        while stack:
            j = stack.pop()
            counts[j] += 1
            for e in rhs(lg, j):
                if e > 0:
                    stack.append(e)
        assert compute_nocc(lg).tolist() == counts
        checked += 1
    print(f"criterion 07: PASS ({checked} grammars)")


def test_criterion_08_block_size_trend(tmp_path, trend_input_4m):
    t0 = time.monotonic()
    inp = tmp_path / "trend.bin"
    inp.write_bytes(trend_input_4m)
    out = tmp_path / "trend.slgf"

    def timed_run(bs: int) -> tuple[int, float]:
        # allocation tracing off and GC paused: this criterion is about
        # runtime, and collector pauses otherwise dominate the spread
        gc.collect()
        gc.disable()
        try:
            report = run_pipeline(inp, out, PipelineConfig(
                block_size=bs, profile_memory=False))
        finally:
            gc.enable()
        return report.counts["phrases"], report.total_seconds()

    timed_run(50)  # warm caches so the first measured point is not penalized
    phrases = {}
    seconds = {}
    for bs in (20, 50, 100, 500):
        phrases[bs], seconds[bs] = timed_run(bs)
    # the endpoints get five alternated samples each; min is the
    # noise-robust runtime estimate
    for _ in range(4):
        for bs in (20, 500):
            _, s = timed_run(bs)
            seconds[bs] = min(seconds[bs], s)

    order = [20, 50, 100, 500]
    for a, b in zip(order, order[1:]):
        assert phrases[b] >= 0.95 * phrases[a]
    assert seconds[500] <= seconds[20]
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(f"criterion 08: PASS (phrases {[phrases[b] for b in order]}, "
          f"B=20 {seconds[20]:.2f}s vs B=500 {seconds[500]:.2f}s)")


def test_criterion_09_strategy_tradeoff(trend_input_4m):
    slp = prune_slp(lz_to_slg(parse_bentley_mcilroy(trend_input_4m, 50)))
    prods = {s: len(recompress(slp, strategy=s, seed=42).grammar.rules)
             for s in ("det", "rand", "mixed")}
    assert prods["det"] <= prods["rand"]
    assert prods["mixed"] >= 0.9 * prods["det"]
    assert prods["mixed"] <= 1.1 * prods["rand"]
    print(f"criterion 09: PASS (det {prods['det']} / mixed {prods['mixed']} "
          f"/ rand {prods['rand']})")


def test_criterion_10_compressed_vs_reference(tmp_path):
    t0 = time.monotonic()
    for rate in (1e-4, 1e-5):
        text = gen_dataset(load_sample(), 16 << 20, mutation_rate=rate,
                           seed=31)
        inp = tmp_path / f"ref{rate}.bin"
        inp.write_bytes(text)
        out = tmp_path / f"ref{rate}.slgf"
        gc.collect()
        report = run_pipeline(inp, out, PipelineConfig(block_size=50,
                                                       profile_memory=True))
        grammar_peak = max(s.peak_alloc for s in report.stages
                           if s.name != "parse_bm")
        assert grammar_peak > 0

        ref_report = StatsReport()
        gc.collect()
        ref = run_stage(ref_report, "recompress",
                        lambda: recompress_string(text, strategy="mixed",
                                                  seed=42))
        ref_peak = ref_report.stage("recompress").peak_alloc

        pipe_prods = report.counts["productions"]
        ref_prods = len(ref.grammar.rules)
        assert pipe_prods <= 3 * ref_prods
        assert 3 * pipe_prods >= ref_prods
        assert grammar_peak < ref_peak
        print(f"criterion 10: rate {rate:g}: productions {pipe_prods} vs "
              f"{ref_prods}, peak {grammar_peak / 1e6:.1f}MB vs "
              f"{ref_peak / 1e6:.1f}MB")
    elapsed = time.monotonic() - t0
    assert elapsed < 900
    print(f"criterion 10: PASS ({elapsed:.1f}s)")
