"""Dataset generation, the end-to-end pipeline, CLI, and bench grid."""

import random

import numpy as np
import pytest

from rlslp import cli
from rlslp.bench import COLUMNS, bench_to_tsv, run_bench
from rlslp.dataset import gen_dataset, load_sample
from rlslp.grammar import (FormatError, Grammar, RunRule, SeqRule,
                           decode_grammar, encode_grammar, expand)
from rlslp.lz import (Factorization, Phrase, decode_factorization,
                      decode_factorization_bytes, encode_factorization)
from rlslp.pipeline import (STAGE_NAMES, PipelineConfig, PipelineError,
                            run_pipeline, verify_expansion, verify_files,
                            write_atomic)


# --- dataset ------------------------------------------------------------


def test_sample_is_bundled():
    t = load_sample()
    assert len(t) == 65536
    assert set(t) <= set(b"ACGT")


def test_gen_dataset_tiles_without_mutation():
    assert gen_dataset(b"AC", 8) == b"ACACACAC"
    assert gen_dataset(b"AC", 7) == b"ACACACA"
    assert gen_dataset(b"ACGT", 4) == b"ACGT"


def test_gen_dataset_rate_one_flips_every_byte():
    out = gen_dataset(b"AB", 10, mutation_rate=1.0, seed=1)
    # two-letter alphabet leaves a single possible substitute per byte
    assert out == bytes(ord("B") if c == ord("A") else ord("A")
                        for c in gen_dataset(b"AB", 10))


def test_gen_dataset_prefix_property():
    base = b"ACGTACGGT"
    small = gen_dataset(base, 500, mutation_rate=0.05, seed=9)
    large = gen_dataset(base, 1000, mutation_rate=0.05, seed=9)
    assert large[:500] == small


def test_gen_dataset_mutation_count_is_binomial():
    base = b"ACGT" * 64
    n, rate = 1_000_000, 1e-3
    out = gen_dataset(base, n, mutation_rate=rate, seed=4)
    clean = gen_dataset(base, n)
    diffs = sum(a != b for a, b in zip(out, clean))
    mean = n * rate
    sigma = (n * rate * (1 - rate)) ** 0.5
    assert abs(diffs - mean) <= 4 * sigma
    # a substitution never reuses the original byte
    assert all(b in b"ACGT" for b in out)


def test_gen_dataset_seed_stability():
    base = b"ACGT" * 8
    a = gen_dataset(base, 4096, mutation_rate=0.1, seed=5)
    assert a == gen_dataset(base, 4096, mutation_rate=0.1, seed=5)
    assert a != gen_dataset(base, 4096, mutation_rate=0.1, seed=6)


def test_gen_dataset_input_validation():
    with pytest.raises(ValueError):
        gen_dataset(b"", 10)
    with pytest.raises(ValueError):
        gen_dataset(b"AC", 1)
    with pytest.raises(ValueError):
        gen_dataset(b"AC", 10, mutation_rate=1.5)
    with pytest.raises(ValueError):
        gen_dataset(b"AC", 10, mutation_rate=-0.1)


# --- verify helpers -----------------------------------------------------


def _write_corpus(tmp_path, name="in.bin", size=40000):
    data = gen_dataset(load_sample()[:2000], size, mutation_rate=0.01, seed=3)
    p = tmp_path / name
    p.write_bytes(data)
    return p, data


def test_verify_expansion_reports_first_mismatch(tmp_path):
    inp, data = _write_corpus(tmp_path)
    out = tmp_path / "g.slgf"
    run_pipeline(inp, out, PipelineConfig())
    g = decode_grammar(out.read_bytes())
    assert verify_expansion(g, data) is None
    bad = bytearray(data)
    bad[1234] ^= 1
    assert verify_expansion(g, bytes(bad)) == 1234
    assert verify_expansion(g, data[:-1]) == len(data) - 1


def test_verify_files(tmp_path):
    inp, data = _write_corpus(tmp_path)
    out = tmp_path / "g.slgf"
    run_pipeline(inp, out, PipelineConfig())
    assert verify_files(out, inp) == (True, None)
    bad = bytearray(data)
    bad[777] ^= 2
    other = tmp_path / "bad.bin"
    other.write_bytes(bytes(bad))
    ok, offset = verify_files(out, other)
    assert (ok, offset) == (False, 777)
    empty = tmp_path / "empty.slgf"
    empty.write_bytes(b"")
    with pytest.raises(FormatError):
        verify_files(empty, inp)


# --- pipeline -----------------------------------------------------------


def test_run_pipeline_stages_and_counts(tmp_path):
    inp, data = _write_corpus(tmp_path)
    out = tmp_path / "g.slgf"
    report = run_pipeline(inp, out, PipelineConfig(verify=True))
    assert [s.name for s in report.stages] == list(STAGE_NAMES)
    assert all(s.seconds >= 0 and s.peak_alloc >= 0 for s in report.stages)
    assert report.counts["input_bytes"] == len(data)
    g = decode_grammar(out.read_bytes())
    assert expand(g) == data
    assert report.counts["productions"] == len(g.rules)
    assert report.counts["grammar_size"] >= report.counts["productions"]
    assert report.counts["phrases"] >= 1
    assert report.total_seconds() == pytest.approx(
        sum(s.seconds for s in report.stages))
    tsv = report.to_tsv()
    assert tsv.startswith("name\tmetric\tvalue\n")
    assert "recompress\tseconds\t" in tsv
    assert "totals\tinput_bytes\t" in tsv


def test_run_pipeline_is_deterministic(tmp_path):
    inp, _ = _write_corpus(tmp_path, size=20000)
    out1 = tmp_path / "g1.slgf"
    out2 = tmp_path / "g2.slgf"
    run_pipeline(inp, out1, PipelineConfig(seed=42))
    run_pipeline(inp, out2, PipelineConfig(seed=42))
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_stage_rejects_wrong_expansion(tmp_path, monkeypatch):
    import rlslp.pipeline
    inp, data = _write_corpus(tmp_path, size=5000)
    out = tmp_path / "g.slgf"
    flipped = bytes([data[0] ^ 1]) + data[1:]
    monkeypatch.setattr(rlslp.pipeline, "iter_expansion",
                        lambda g: iter([flipped]))
    with pytest.raises(PipelineError) as exc:
        run_pipeline(inp, out, PipelineConfig(verify=True))
    assert exc.value.stage == "verify"
    assert "offset 0" in str(exc.value)
    assert not out.exists()


def test_verify_stage_checks_the_written_bytes(tmp_path, monkeypatch):
    import rlslp.pipeline
    inp, _ = _write_corpus(tmp_path, size=5000)
    out = tmp_path / "g.slgf"

    def corrupt(g):
        data = encode_grammar(g)
        return data[:-1] + bytes([data[-1] ^ 1])

    monkeypatch.setattr(rlslp.pipeline, "encode_grammar", corrupt)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(inp, out, PipelineConfig(verify=True))
    assert exc.value.stage == "verify"
    assert [p.name for p in tmp_path.iterdir()] == ["in.bin"]


def test_run_pipeline_empty_input(tmp_path):
    inp = tmp_path / "empty.bin"
    inp.write_bytes(b"")
    with pytest.raises(PipelineError) as exc:
        run_pipeline(inp, tmp_path / "g.slgf", PipelineConfig())
    assert exc.value.stage == "input"


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(block_size=1)
    with pytest.raises(ValueError):
        PipelineConfig(strategy="bogus")


# --- command line -------------------------------------------------------


def test_cli_end_to_end(tmp_path, capsys):
    base_path = tmp_path / "base.bin"
    base_path.write_bytes(load_sample()[:1000])
    data_path = tmp_path / "data.bin"
    out_path = tmp_path / "out.slgf"
    stats_path = tmp_path / "stats.tsv"
    assert cli.main(["gen-dataset", str(data_path), "--target-size", "30K",
                     "--mutation-rate", "0.01", "--seed", "6",
                     "--base", str(base_path)]) == 0
    assert data_path.stat().st_size == 30 * 1024
    assert cli.main(["pipeline", str(data_path), str(out_path), "--verify",
                     "--stats-out", str(stats_path)]) == 0
    assert stats_path.read_text().startswith("name\tmetric\tvalue\n")
    assert cli.main(["verify", str(out_path), str(data_path)]) == 0
    capsys.readouterr()

    bad = bytearray(data_path.read_bytes())
    bad[5] ^= 4
    bad_path = tmp_path / "bad.bin"
    bad_path.write_bytes(bytes(bad))
    assert cli.main(["verify", str(out_path), str(bad_path)]) == 1
    assert "mismatch at offset 5" in capsys.readouterr().out


def test_cli_stage_commands_chain(tmp_path):
    data_path = tmp_path / "data.bin"
    data_path.write_bytes(gen_dataset(b"abracadabra", 5000, 0.02, seed=2))
    lz = tmp_path / "a.lzpf"
    slg = tmp_path / "a.slg"
    slp = tmp_path / "a.slp"
    pruned = tmp_path / "a.pruned"
    final = tmp_path / "a.slgf"
    assert cli.main(["parse-bm", str(data_path), str(lz),
                     "--block-size", "16"]) == 0
    assert cli.main(["lz-to-slg", str(lz), str(slg)]) == 0
    assert cli.main(["slg-to-slp", str(slg), str(slp)]) == 0
    assert cli.main(["prune", str(slp), str(pruned)]) == 0
    assert cli.main(["recompress", str(pruned), str(final)]) == 0
    assert cli.main(["verify", str(final), str(data_path)]) == 0

    naive_out = tmp_path / "naive.slgf"
    rounds = tmp_path / "rounds.tsv"
    assert cli.main(["recompress-naive", str(data_path), str(naive_out),
                     "--stats-out", str(rounds)]) == 0
    assert naive_out.read_bytes() == final.read_bytes()
    rows = [line.split("\t") for line in rounds.read_text().splitlines()]
    assert rows[0] == ["round", "phase", "metric", "value"]
    lengths = [int(r[3]) for r in rows[1:] if r[2] == "length_after"]
    assert lengths[-1] == 1
    assert {"seconds", "work_size"} <= {r[2] for r in rows[1:]}

    exact = tmp_path / "exact.lzpf"
    assert cli.main(["parse-exact", str(data_path), str(exact)]) == 0
    fz = decode_factorization_bytes(exact.read_bytes())
    assert decode_factorization(fz) == data_path.read_bytes()


def test_cli_verify_rejects_wrong_parse(tmp_path, capsys):
    inp = tmp_path / "in.bin"
    inp.write_bytes(b"abcabcabcabcxyzxyz")
    lz, slg = tmp_path / "o.lzpf", tmp_path / "o.slg"
    # a valid factorization of the right length that spells "abcabcabcab"
    # then the wrong byte at offset 11
    lz.write_bytes(encode_factorization(Factorization(
        [Phrase(ord(c), 0) for c in "abc"] + [Phrase(1, 8)]
        + [Phrase(ord(c), 0) for c in "Xxyzxyz"], 18)))
    assert cli.main(["lz-to-slg", str(lz), str(slg)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", str(slg), str(inp)]) == 1
    assert "mismatch at offset 11" in capsys.readouterr().out


def test_cli_error_paths(tmp_path, capsys):
    missing = tmp_path / "missing.bin"
    assert cli.main(["pipeline", str(missing), str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.slgf"
    bad.write_bytes(b"not a grammar")
    assert cli.main(["recompress", str(bad), str(tmp_path / "o2")]) == 1
    err = capsys.readouterr().err
    assert "error: [recompress]" in err
    assert cli.main(["gen-dataset", str(tmp_path / "d"), "--target-size",
                     "10", "--mutation-rate", "7"]) == 1
    capsys.readouterr()


def test_cli_rejects_oversized_expansions(tmp_path, capsys):
    # a two-phrase parse of a 2^63-byte text, and a grammar of one
    lz, slg = tmp_path / "big.lzpf", tmp_path / "big.slg"
    lz.write_bytes(encode_factorization(
        Factorization([Phrase(ord("a"), 0), Phrase(1, 2**63 - 1)], 2**63)))
    assert cli.main(["lz-to-slg", str(lz), str(slg)]) == 1
    err = capsys.readouterr().err
    assert "error: [lz-to-slg]" in err and "2^63-1" in err
    assert not slg.exists()
    slg.write_bytes(encode_grammar(
        Grammar([SeqRule((-98, -98)), RunRule(1, 2**62)])))
    out = tmp_path / "big.slgf"
    assert cli.main(["recompress", str(slg), str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: [recompress]" in err and "2^63-1" in err
    assert not out.exists()


def test_cli_recompress_accepts_pipeline_output(tmp_path):
    inp, _ = _write_corpus(tmp_path, size=20000)
    first, again = tmp_path / "g.slgf", tmp_path / "again.slgf"
    assert cli.main(["pipeline", str(inp), str(first)]) == 0
    assert cli.main(["recompress", str(first), str(again)]) == 0
    assert cli.main(["verify", str(again), str(inp)]) == 0


def test_cli_no_convergence_is_reported(tmp_path, capsys, monkeypatch):
    import rlslp.engine
    inp, _ = _write_corpus(tmp_path, size=5000)
    slgf = tmp_path / "g.slgf"
    assert cli.main(["pipeline", str(inp), str(slgf)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(rlslp.engine, "round_limit", lambda n: 1)
    assert cli.main(["recompress", str(slgf), str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error: [recompress] no convergence within 1 phases" in err
    assert cli.main(["pipeline", str(inp), str(tmp_path / "o")]) == 1
    assert "error: [recompress] no convergence within 1 phases" in \
        capsys.readouterr().err


def test_failed_recompress_keeps_previous_output(tmp_path, monkeypatch):
    import rlslp.engine
    inp, _ = _write_corpus(tmp_path, size=5000)
    slgf = tmp_path / "g.slgf"
    run_pipeline(inp, slgf, PipelineConfig())
    out = tmp_path / "out.slgf"
    out.write_bytes(b"previous bytes")
    monkeypatch.setattr(rlslp.engine, "round_limit", lambda n: 1)
    assert cli.main(["recompress", str(slgf), str(out)]) == 1
    with pytest.raises(PipelineError):
        run_pipeline(inp, out, PipelineConfig())
    assert out.read_bytes() == b"previous bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "g.slgf", "in.bin", "out.slgf"]


def test_write_atomic_failure_leaves_previous_file(tmp_path, monkeypatch):
    import os
    out = tmp_path / "out.bin"
    write_atomic(out, b"first")
    assert out.read_bytes() == b"first"

    def broken_replace(src, dst):
        raise OSError("disk full")
    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError):
        write_atomic(out, b"second")
    assert out.read_bytes() == b"first"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_cli_parse_size_suffixes():
    import argparse
    assert cli.parse_size("123") == 123
    assert cli.parse_size("30K") == 30 * 1024
    assert cli.parse_size("2M") == 2 * 1024 * 1024
    assert cli.parse_size("1G") == 1 << 30
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_size("12Q")


# --- bench --------------------------------------------------------------


def test_bench_grid_rows(tmp_path):
    inp, _ = _write_corpus(tmp_path, size=15000)
    rows = run_bench([inp], block_sizes=(16, 64), strategies=("det", "mixed"),
                     seed=1, workdir=tmp_path)
    assert len(rows) == 4
    configs = {(r["block_size"], r["strategy"]) for r in rows}
    assert configs == {(16, "det"), (16, "mixed"), (64, "det"), (64, "mixed")}
    for r in rows:
        assert r["algorithm"] == "pipeline"
        assert r["input_bytes"] == 15000
        assert r["productions"] > 0
        assert r["seconds_total"] > 0


def test_bench_reference_rows(tmp_path):
    inp, _ = _write_corpus(tmp_path, size=8000)
    rows = run_bench([inp], block_sizes=(32,), strategies=("mixed",),
                     include_reference=True, workdir=tmp_path)
    algos = [r["algorithm"] for r in rows]
    assert algos.count("pipeline") == 1
    assert algos.count("reference") == 1
    ref = next(r for r in rows if r["algorithm"] == "reference")
    pipe = next(r for r in rows if r["algorithm"] == "pipeline")
    # identical partitions, identical grammar
    assert ref["productions"] == pipe["productions"]

    tsv = bench_to_tsv(rows)
    lines = tsv.strip().split("\n")
    assert lines[0] == "\t".join(COLUMNS)
    assert len(lines) == 3
    assert all(len(line.split("\t")) == len(COLUMNS) for line in lines)
