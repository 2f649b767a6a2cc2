"""Command-line front end for the toolkit.

One subcommand per pipeline stage, plus dataset generation, end-to-end
runs, artifact verification, and the benchmark grid.  All diagnostics
go to stderr tagged with the failing stage; exit code 0 means success.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import bench_to_tsv, run_bench
from .dataset import gen_dataset, load_sample
from .engine import recompress
from .grammar import (GrammarError, FormatError, decode_grammar,
                      encode_grammar, grammar_size)
from .lz import (ParseError, decode_factorization_bytes,
                 encode_factorization, factorization_stats,
                 parse_bentley_mcilroy, parse_exact_lz77)
from .naive import recompress_string
from .partition import (STRATEGIES, ConvergenceError, PartitionError,
                        records_to_tsv)
from .pipeline import (PipelineConfig, PipelineError, run_pipeline,
                       verify_files, write_atomic)
from .slg import lz_to_slg, prune_slp, slg_to_slp

_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_size(value: str) -> int:
    """Byte count, with optional K/M/G binary suffix."""
    raw = value.strip().lower()
    factor = 1
    if raw and raw[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        n = int(raw) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a size: {value!r}")
    if n < 0:
        raise argparse.ArgumentTypeError("size must be nonnegative")
    return n


def _int_list(value: str) -> list[int]:
    return [int(part) for part in value.split(",") if part]


def _str_list(value: str) -> list[str]:
    return [part for part in value.split(",") if part]


def _add_strategy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=STRATEGIES, default="mixed",
                   help="partition strategy per pair round (default mixed)")
    p.add_argument("--seed", type=int, default=42,
                   help="seed for randomized partitions (default 42)")


def _write_stats(path: str | None, text: str) -> None:
    if path:
        write_atomic(path, text.encode())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlslp",
        description="Grammar compression via recompression on grammars.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen-dataset",
                       help="generate a duplicated-and-mutated text")
    p.add_argument("output")
    p.add_argument("--target-size", type=parse_size, required=True)
    p.add_argument("--mutation-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--base", default=None,
                   help="base text file (default: bundled sample)")

    p = sub.add_parser("parse-bm",
                       help="approximate LZ parse via block fingerprints")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--block-size", type=int, default=50)
    p.add_argument("--stats-out", default=None)

    p = sub.add_parser("parse-exact", help="exact greedy LZ77 parse")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--stats-out", default=None)

    p = sub.add_parser("lz-to-slg",
                       help="build a straight-line grammar from a parse")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("slg-to-slp", help="binarize a grammar")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("prune", help="drop redundant and unreachable rules")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("recompress",
                       help="run-length grammar from an SLP, grammar-level")
    p.add_argument("input")
    p.add_argument("output")
    _add_strategy_args(p)
    p.add_argument("--stats-out", default=None)

    p = sub.add_parser("recompress-naive",
                       help="run-length grammar from raw text, string-level")
    p.add_argument("input")
    p.add_argument("output")
    _add_strategy_args(p)
    p.add_argument("--stats-out", default=None)

    p = sub.add_parser("verify",
                       help="compare a stored grammar against a text file")
    p.add_argument("grammar")
    p.add_argument("text")

    p = sub.add_parser("pipeline", help="full text-to-grammar pipeline")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--block-size", type=int, default=50)
    _add_strategy_args(p)
    p.add_argument("--stats-out", default=None)
    p.add_argument("--verify", action="store_true",
                   help="decode and expand the output bytes before they "
                        "are written, and compare with the input")

    p = sub.add_parser("bench", help="pipeline grid over inputs")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--block-sizes", type=_int_list, default=[50],
                   help="comma-separated, e.g. 20,50,100,500")
    p.add_argument("--strategies", type=_str_list, default=["mixed"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--reference", action="store_true",
                   help="also run the string-level engine on each input")
    p.add_argument("--stats-out", default=None,
                   help="TSV table path (default: stdout)")
    p.add_argument("--workdir", default=None,
                   help="keep grid artifacts here instead of a temp dir")
    return parser


def _cmd_gen_dataset(args) -> int:
    base = Path(args.base).read_bytes() if args.base else load_sample()
    text = gen_dataset(base, args.target_size, args.mutation_rate, args.seed)
    write_atomic(args.output, text)
    print(f"{args.output}: {len(text)} bytes")
    return 0


def _cmd_parse(args, exact: bool) -> int:
    text = Path(args.input).read_bytes()
    if exact:
        fz = parse_exact_lz77(text)
    else:
        fz = parse_bentley_mcilroy(text, args.block_size)
    write_atomic(args.output, encode_factorization(fz))
    stats = factorization_stats(fz)
    print(f"{args.output}: {stats['phrases']} phrases, "
          f"{stats['text_length']} bytes, ratio {stats['ratio']}")
    _write_stats(getattr(args, "stats_out", None),
                 "metric\tvalue\n" +
                 "".join(f"{k}\t{v}\n" for k, v in stats.items()))
    return 0


def _cmd_lz_to_slg(args) -> int:
    fz = decode_factorization_bytes(Path(args.input).read_bytes())
    g = lz_to_slg(fz)
    write_atomic(args.output, encode_grammar(g))
    print(f"{args.output}: {len(g)} rules")
    return 0


def _transform(args, fn) -> int:
    g = decode_grammar(Path(args.input).read_bytes())
    out = fn(g)
    write_atomic(args.output, encode_grammar(out))
    print(f"{args.output}: {len(out)} rules")
    return 0


def _cmd_recompress(args) -> int:
    g = decode_grammar(Path(args.input).read_bytes())
    result = recompress(g, args.strategy, args.seed)
    write_atomic(args.output, encode_grammar(result.grammar))
    size = grammar_size(result.grammar)
    print(f"{args.output}: {size.productions} productions, "
          f"size {size.size}")
    _write_stats(args.stats_out, records_to_tsv(result.records))
    return 0


def _cmd_recompress_naive(args) -> int:
    text = Path(args.input).read_bytes()
    result = recompress_string(text, strategy=args.strategy, seed=args.seed)
    write_atomic(args.output, encode_grammar(result.grammar))
    size = grammar_size(result.grammar)
    print(f"{args.output}: {size.productions} productions, "
          f"size {size.size}")
    _write_stats(args.stats_out, records_to_tsv(result.records))
    return 0


def _cmd_verify(args) -> int:
    ok, offset = verify_files(args.grammar, args.text)
    if ok:
        print("match")
        return 0
    print(f"mismatch at offset {offset}")
    return 1


def _cmd_pipeline(args) -> int:
    cfg = PipelineConfig(block_size=args.block_size, strategy=args.strategy,
                         seed=args.seed, verify=args.verify)
    report = run_pipeline(args.input, args.output, cfg)
    _write_stats(args.stats_out, report.to_tsv())
    summary = ", ".join(f"{k}={v}" for k, v in report.counts.items())
    print(f"{args.output}: {summary}, "
          f"{report.total_seconds():.2f}s")
    return 0


def _cmd_bench(args) -> int:
    rows = run_bench(args.inputs, args.block_sizes, args.strategies,
                     args.seed, include_reference=args.reference,
                     workdir=args.workdir)
    table = bench_to_tsv(rows)
    if args.stats_out:
        write_atomic(args.stats_out, table.encode())
        print(f"{args.stats_out}: {len(rows)} rows")
    else:
        sys.stdout.write(table)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen-dataset": _cmd_gen_dataset,
        "parse-bm": lambda a: _cmd_parse(a, exact=False),
        "parse-exact": lambda a: _cmd_parse(a, exact=True),
        "lz-to-slg": _cmd_lz_to_slg,
        "slg-to-slp": lambda a: _transform(a, slg_to_slp),
        "prune": lambda a: _transform(a, prune_slp),
        "recompress": _cmd_recompress,
        "recompress-naive": _cmd_recompress_naive,
        "verify": _cmd_verify,
        "pipeline": _cmd_pipeline,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.cmd](args)
    except PipelineError as exc:
        print(f"error: [{exc.stage}] {exc}", file=sys.stderr)
        return 1
    except (GrammarError, FormatError, ParseError, PartitionError,
            ConvergenceError, ValueError, OSError) as exc:
        print(f"error: [{args.cmd}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
