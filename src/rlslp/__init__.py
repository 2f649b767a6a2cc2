"""Grammar compression toolkit built around recompression.

Builds a run-length straight-line grammar of a text by alternating run
and pair replacement rounds, done symbolically on a grammar of the text
rather than on the text itself.  Ships an approximate LZ parser, a
factorization-to-grammar builder, pruning of the rules the start does
not reach, and a string-level reference engine.
"""

from .dataset import gen_dataset, load_sample
from .engine import recompress
from .grammar import (FormatError, Grammar, GrammarError, GrammarSize,
                      RunRule, SeqRule, ValidationReport, decode_grammar,
                      encode_grammar, expand, expansion_lengths,
                      grammar_size, iter_expansion, term, term_byte,
                      validate)
from .lz import (Factorization, ParseError, Phrase, decode_factorization,
                 decode_factorization_bytes, encode_factorization,
                 factorization_stats, parse_bentley_mcilroy,
                 parse_exact_lz77)
from .naive import recompress_string
from .partition import (ConvergenceError, PairMaps, Partition,
                        PartitionError, PartitionSource, RecompressResult,
                        RoundRecord, STRATEGIES)
from .pipeline import (PipelineConfig, PipelineError, StageStat,
                       StatsReport, run_pipeline, verify_expansion,
                       verify_files)
from .slg import lz_to_slg, prune_slp

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "Factorization", "FormatError", "Grammar",
    "GrammarError", "GrammarSize", "PairMaps", "ParseError", "Partition",
    "PartitionError", "PartitionSource", "Phrase", "PipelineConfig",
    "PipelineError", "RecompressResult", "RoundRecord", "RunRule",
    "STRATEGIES", "SeqRule", "StageStat", "StatsReport", "ValidationReport",
    "decode_factorization", "decode_factorization_bytes", "decode_grammar",
    "encode_factorization", "encode_grammar", "expand", "expansion_lengths",
    "factorization_stats", "gen_dataset", "grammar_size", "iter_expansion",
    "load_sample", "lz_to_slg", "parse_bentley_mcilroy", "parse_exact_lz77",
    "prune_slp", "recompress", "recompress_string", "run_pipeline", "term",
    "term_byte", "validate", "verify_expansion", "verify_files",
]
