"""Command-line front end for the toolkit.

One subcommand per pipeline stage but pruning, which has nothing to
drop from a grammar the toolkit writes, plus dataset generation,
end-to-end runs and artifact verification.  Every `--stats-out` writes
one `StatsReport` as JSON: the parse commands fill its counts, the
recompress commands its rounds and output counts, `pipeline` all of it.
All diagnostics go to stderr tagged with the failing stage; exit code 0
means success.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dataset import gen_dataset, load_sample
from .engine import recompress
from .grammar import (GrammarError, FormatError, decode_grammar,
                      encode_grammar, grammar_size)
from .lz import (DEFAULT_BLOCK_SIZE, ParseError, decode_factorization_bytes,
                 encode_factorization, factorization_stats,
                 parse_bentley_mcilroy, parse_exact_lz77)
from .naive import recompress_string
from .partition import (DEFAULT_SEED, DEFAULT_STRATEGY, STRATEGIES,
                        ConvergenceError, PartitionError)
from .pipeline import (PipelineConfig, PipelineError, StatsReport,
                       mapped_input, run_pipeline, verify_files,
                       write_atomic)
from .slg import lz_to_slg

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


def _add_strategy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=STRATEGIES, default=DEFAULT_STRATEGY,
                   help="partition strategy per pair round "
                        "(default %(default)s)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for randomized partitions (default %(default)s)")


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
    p.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
    p.add_argument("--stats-out", default=None)

    p = sub.add_parser("parse-exact", help="exact greedy LZ77 parse")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--stats-out", default=None)

    p = sub.add_parser("lz-to-slg",
                       help="build a straight-line grammar from a parse")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("recompress",
                       help="run-length grammar from any .slgf, grammar-level")
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
    p.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
    _add_strategy_args(p)
    p.add_argument("--stats-out", default=None)
    p.add_argument("--verify", action="store_true",
                   help="decode and expand the output bytes before they "
                        "are written, and compare with the input")
    return parser


def _cmd_gen_dataset(args) -> int:
    base = Path(args.base).read_bytes() if args.base else load_sample()
    text = gen_dataset(base, args.target_size, args.mutation_rate, args.seed)
    write_atomic(args.output, text)
    print(f"{args.output}: {len(text)} bytes")
    return 0


def _cmd_parse(args, exact: bool) -> int:
    with mapped_input(args.input) as text:
        if exact:
            fz = parse_exact_lz77(text)
        else:
            fz = parse_bentley_mcilroy(text, args.block_size)
    write_atomic(args.output, encode_factorization(fz))
    stats = factorization_stats(fz)
    print(f"{args.output}: {stats['phrases']} phrases, "
          f"{stats['text_length']} bytes, ratio {stats['ratio']}")
    if args.stats_out:
        write_atomic(args.stats_out,
                     StatsReport(counts=stats).to_json().encode())
    return 0


def _cmd_lz_to_slg(args) -> int:
    fz = decode_factorization_bytes(Path(args.input).read_bytes())
    g = lz_to_slg(fz)
    if not len(g):
        raise GrammarError("empty factorization: no grammar to write")
    write_atomic(args.output, encode_grammar(g))
    print(f"{args.output}: {len(g)} rules")
    return 0


def _cmd_recompress(args, naive: bool) -> int:
    data = Path(args.input).read_bytes()
    if naive:
        result = recompress_string(data, strategy=args.strategy,
                                   seed=args.seed)
    else:
        result = recompress(decode_grammar(data), args.strategy, args.seed)
    write_atomic(args.output, encode_grammar(result.grammar))
    size = grammar_size(result.grammar)
    print(f"{args.output}: {size.productions} productions, "
          f"size {size.size}")
    if args.stats_out:
        report = StatsReport(counts={"productions": size.productions,
                                     "grammar_size": size.size},
                             rounds=result.records)
        write_atomic(args.stats_out, report.to_json().encode())
    return 0


def _cmd_verify(args) -> int:
    ok, offset = verify_files(args.grammar, args.text)
    if ok:
        print("match")
        return 0
    print(f"mismatch at offset {offset}")
    return 1


def _cmd_pipeline(args) -> int:
    # the stats file is the only reader of the allocation peaks, and
    # tracing them costs 6-10x
    cfg = PipelineConfig(block_size=args.block_size, strategy=args.strategy,
                         seed=args.seed, verify=args.verify,
                         profile_memory=args.stats_out is not None)
    report = run_pipeline(args.input, args.output, cfg)
    if args.stats_out:
        write_atomic(args.stats_out, report.to_json().encode())
    summary = ", ".join(f"{k}={v}" for k, v in report.counts.items())
    print(f"{args.output}: {summary}, "
          f"{report.total_seconds():.2f}s")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen-dataset": _cmd_gen_dataset,
        "parse-bm": lambda a: _cmd_parse(a, exact=False),
        "parse-exact": lambda a: _cmd_parse(a, exact=True),
        "lz-to-slg": _cmd_lz_to_slg,
        "recompress": lambda a: _cmd_recompress(a, naive=False),
        "recompress-naive": lambda a: _cmd_recompress(a, naive=True),
        "verify": _cmd_verify,
        "pipeline": _cmd_pipeline,
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
