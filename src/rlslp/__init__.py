"""Grammar compression toolkit built around recompression.

Builds a run-length straight-line grammar of a text by alternating run
and pair replacement rounds, done symbolically on a grammar of the text
rather than on the text itself.  Ships an approximate LZ parser, a
factorization-to-grammar builder, pruning, a string-level reference
engine, and a benchmark harness.
"""

from .dataset import gen_dataset, load_sample
from .engine import (LevelGrammar, bcomp, compute_nocc,
                     collect_pair_frequencies, pcomp, recompress)
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
                        RoundRecord, STRATEGIES, deterministic_partition,
                        make_partition,
                        randomized_partition, records_to_tsv,
                        replaced_weight)
from .pipeline import (PipelineConfig, PipelineError, StageStat,
                       StatsReport, run_pipeline, verify_expansion,
                       verify_files)
from .slg import lz_to_slg, prune_slp, slg_to_slp

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "Factorization", "FormatError", "Grammar",
    "GrammarError", "GrammarSize", "LevelGrammar", "PairMaps", "ParseError",
    "Partition", "PartitionError", "PartitionSource", "Phrase",
    "PipelineConfig", "PipelineError", "RecompressResult", "RoundRecord",
    "RunRule", "STRATEGIES", "SeqRule", "StageStat", "StatsReport",
    "ValidationReport", "bcomp", "collect_pair_frequencies",
    "compute_nocc", "decode_factorization",
    "decode_factorization_bytes", "decode_grammar",
    "deterministic_partition", "encode_factorization", "encode_grammar",
    "expand", "expansion_lengths", "factorization_stats", "gen_dataset",
    "grammar_size", "iter_expansion", "load_sample", "lz_to_slg",
    "make_partition", "parse_bentley_mcilroy", "parse_exact_lz77",
    "pcomp", "prune_slp", "randomized_partition", "recompress",
    "recompress_string", "records_to_tsv", "replaced_weight",
    "run_pipeline", "slg_to_slp", "term", "term_byte", "validate",
    "verify_expansion", "verify_files",
]
