"""Dataset generation, the end-to-end pipeline, CLI, and README drift."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rlslp
from conftest import memo_sizes
from rlslp import cli, grammar
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


def test_gen_dataset_pinned_across_mask_chunks():
    # 3 MiB + 12345 bytes: the mutation mask is drawn a MiB at a time
    out = gen_dataset(load_sample(), (3 << 20) + 12345, 1e-2, 7)
    assert hashlib.sha256(out).hexdigest() == (
        "019aca29c8362bc3998b385153c15b3bbc37cc2ec44efdef3288f0873a1d759f")


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


def test_verify_memo_stays_within_its_bounds(tmp_path, monkeypatch):
    # the 4 MiB acceptance corpus
    inp = tmp_path / "in.bin"
    inp.write_bytes(gen_dataset(load_sample(), 4 << 20, mutation_rate=1e-5,
                                seed=21))
    out = tmp_path / "g.slgf"
    run_pipeline(inp, out, PipelineConfig())
    g = decode_grammar(out.read_bytes())
    # the default budget, and one that this grammar's memo overruns
    for budget in (grammar._MEMO_BUDGET, 1 << 20):
        monkeypatch.setattr(grammar, "_MEMO_BUDGET", budget)
        sizes = memo_sizes(g).values()
        assert sum(sizes) <= budget
        assert max(sizes) <= grammar._MEMO_RULE_MAX
        assert verify_files(out, inp) == (True, None)
    assert len(sizes) < len(g)


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
    stats = json.loads(report.to_json())
    assert list(stats) == ["stages", "counts", "rounds"]
    recompress = stats["stages"][STAGE_NAMES.index("recompress")]
    assert recompress["name"] == "recompress" and "seconds" in recompress
    assert stats["counts"]["input_bytes"] == len(data)


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


def test_inputs_that_are_not_regular_files_are_rejected(tmp_path, capsys):
    # opening a FIFO for reading would block until a writer comes, and a
    # FIFO or a directory cannot be mapped
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    folder = tmp_path / "dir"
    folder.mkdir()
    for path in (fifo, folder):
        with pytest.raises(PipelineError, match="not a regular file") as exc:
            run_pipeline(path, tmp_path / "g.slgf", PipelineConfig())
        assert exc.value.stage == "input"
        for cmd in ("parse-bm", "parse-exact", "pipeline"):
            assert cli.main([cmd, str(path), str(tmp_path / "o")]) == 1
            assert "error: [input]" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "fifo"]


def test_parse_error_holding_a_view_of_the_map_names_the_stage(
        tmp_path, monkeypatch):
    # the failed parse's traceback keeps an array over the map alive, so
    # the map cannot close yet; the parse error must still come through
    import rlslp.pipeline
    inp, _ = _write_corpus(tmp_path, size=5000)

    def failing_parse(text, block_size):
        view = np.frombuffer(text, dtype=np.uint8)
        raise ValueError(f"no parse of {len(view)} bytes")

    monkeypatch.setattr(rlslp.pipeline, "parse_bentley_mcilroy",
                        failing_parse)
    with pytest.raises(PipelineError, match="no parse of 5000") as exc:
        run_pipeline(inp, tmp_path / "g.slgf", PipelineConfig())
    assert exc.value.stage == "parse_bm"
    assert [p.name for p in tmp_path.iterdir()] == ["in.bin"]


_PARSE_RSS = """
import sys
from rlslp.pipeline import run_pipeline
report = run_pipeline(sys.argv[1], sys.argv[2])
print(report.stage("parse_bm").rss_peak)
"""
# Linux starts a child's ru_maxrss at its parent's RSS, so the measured
# process is started from a small intermediate one, not from pytest
_HOP = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"


def test_parse_rss_does_not_track_the_text(tmp_path):
    # the parse reads a map of the input and drops its resident pages
    # after every chunk, so on the repetitive benchmark text the parse's
    # RSS high-water mark grows by a few MiB from 4 to 32 MiB; read as a
    # private copy, the 28 MiB more text was resident
    src = str(Path(rlslp.__file__).parents[1])
    peaks = []
    for size in (4 << 20, 32 << 20):
        inp = tmp_path / f"in{size}.bin"
        inp.write_bytes(gen_dataset(load_sample(), size, 1e-6, seed=41))
        run = subprocess.run(
            [sys.executable, "-c", _HOP, sys.executable, "-c", _PARSE_RSS,
             str(inp), str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, check=True)
        peaks.append(int(run.stdout.split()[-1]))
        inp.unlink()
    assert peaks[1] - peaks[0] < 7 << 20, peaks


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(block_size=1)
    with pytest.raises(ValueError):
        PipelineConfig(strategy="bogus")


def test_allocation_peaks_traced_only_for_stats_out(tmp_path, monkeypatch):
    import rlslp.pipeline
    inp, _ = _write_corpus(tmp_path, size=20000)
    stats = tmp_path / "stats.json"
    assert cli.main(["pipeline", str(inp), str(tmp_path / "a.slgf"),
                     "--stats-out", str(stats)]) == 0
    peaks = {s["name"]: s["peak_alloc"]
             for s in json.loads(stats.read_text())["stages"]}
    assert all(peaks[name] > 0
               for name in ("parse_bm", "lz_to_slg", "recompress"))

    traced = []
    recompress = rlslp.pipeline.recompress

    def spy(*args):
        traced.append(tracemalloc.is_tracing())
        return recompress(*args)

    monkeypatch.setattr(rlslp.pipeline, "recompress", spy)
    assert cli.main(["pipeline", str(inp), str(tmp_path / "b.slgf")]) == 0
    report = run_pipeline(inp, tmp_path / "c.slgf", PipelineConfig())
    assert traced == [False, False]
    assert [s.peak_alloc for s in report.stages] == [0, 0, 0, 0]
    assert not tracemalloc.is_tracing()


# --- command line -------------------------------------------------------


def test_cli_end_to_end(tmp_path, capsys):
    base_path = tmp_path / "base.bin"
    base_path.write_bytes(load_sample()[:1000])
    data_path = tmp_path / "data.bin"
    out_path = tmp_path / "out.slgf"
    stats_path = tmp_path / "stats.json"
    assert cli.main(["gen-dataset", str(data_path), "--target-size", "30K",
                     "--mutation-rate", "0.01", "--seed", "6",
                     "--base", str(base_path)]) == 0
    assert data_path.stat().st_size == 30 * 1024
    assert cli.main(["pipeline", str(data_path), str(out_path), "--verify",
                     "--stats-out", str(stats_path)]) == 0
    assert set(json.loads(stats_path.read_text())) == {
        "stages", "counts", "rounds"}
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
    final = tmp_path / "a.slgf"
    assert cli.main(["parse-bm", str(data_path), str(lz),
                     "--block-size", "16"]) == 0
    assert cli.main(["lz-to-slg", str(lz), str(slg)]) == 0
    assert cli.main(["recompress", str(slg), str(final)]) == 0
    assert cli.main(["verify", str(final), str(data_path)]) == 0

    naive_out = tmp_path / "naive.slgf"
    rounds = tmp_path / "rounds.json"
    assert cli.main(["recompress-naive", str(data_path), str(naive_out),
                     "--stats-out", str(rounds)]) == 0
    assert naive_out.read_bytes() == final.read_bytes()
    records = json.loads(rounds.read_text())["rounds"]
    assert records[-1]["length_after"] == 1
    assert all(r["work_size"] > 0 for r in records)
    assert sum(r["seconds"] for r in records) > 0

    exact = tmp_path / "exact.lzpf"
    assert cli.main(["parse-exact", str(data_path), str(exact)]) == 0
    fz = decode_factorization_bytes(exact.read_bytes())
    assert decode_factorization(fz) == data_path.read_bytes()


def test_cli_stats_out_is_one_json_report(tmp_path):
    inp, _ = _write_corpus(tmp_path, size=5000)
    slgf = tmp_path / "g.slgf"
    runs = {"pipeline": [str(inp), str(slgf), "--verify"],
            "parse-bm": [str(inp), str(tmp_path / "a.lzpf")],
            "parse-exact": [str(inp), str(tmp_path / "b.lzpf")],
            "recompress": [str(slgf), str(tmp_path / "c.slgf")],
            "recompress-naive": [str(inp), str(tmp_path / "d.slgf")]}
    for cmd, argv in runs.items():
        out = tmp_path / f"{cmd}.json"
        assert cli.main([cmd, *argv, "--stats-out", str(out)]) == 0
        assert set(json.loads(out.read_text())) == {
            "stages", "counts", "rounds"}, cmd

    report = json.loads((tmp_path / "pipeline.json").read_text())
    rounds, productions = report["rounds"], report["counts"]["productions"]
    assert rounds and rounds[-1]["length_after"] == 1
    assert all(r["work_size"] > 0 for r in rounds)
    # every round's new rules, plus the wrapper rule if the start needs one
    assert sum(r["new_rules"] for r in rounds) in (productions,
                                                   productions - 1)


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


def test_cli_lz_to_slg_rejects_an_empty_factorization(tmp_path, capsys):
    # every command that reads .slgf rejects a grammar without rules
    empty, lz = tmp_path / "empty.txt", tmp_path / "empty.lzpf"
    empty.write_bytes(b"")
    assert cli.main(["parse-bm", str(empty), str(lz)]) == 0
    capsys.readouterr()
    slg = tmp_path / "empty.slgf"
    assert cli.main(["lz-to-slg", str(lz), str(slg)]) == 1
    assert "error: [lz-to-slg]" in capsys.readouterr().err
    assert not slg.exists()


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


# --- README ---------------------------------------------------------------


def test_readme_names_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Stage commands", 1)[1].split("\n## ", 1)[0]
    table = re.findall(r"^\| `([a-z-]+)` ", section, flags=re.M)
    sub = next(a for a in cli.build_parser()._actions if a.dest == "cmd")
    assert table and set(table) <= set(sub.choices)
    for name in sub.choices:
        assert f"`{name}`" in readme or f"rlslp {name} " in readme, name
