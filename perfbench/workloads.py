"""Benchmark workloads: generated corpora and the pipeline settings.

Every corpus is `gen_dataset(bundled sample, size, mutation_rate, seed)`;
the seed comes from the command line, and only the generated bytes reach
the program.  `seed` is the default a result is quoted at; `held_out`
is kept back for confirming a later claim on inputs it was not tuned on.
"""

from __future__ import annotations

from dataclasses import dataclass

MIB = 1 << 20

# every workload compresses with the pipeline defaults the roadmap quotes
BLOCK_SIZE = 50
STRATEGY = "mixed"
STRATEGY_SEED = 42


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    mutation_rate: float
    seed: int
    held_out: int
    why: str


WORKLOADS = {w.name: w for w in (
    # parse-bound: text-sized fingerprint arrays set time and RSS, the
    # grammar is tiny, so slg and engine changes should not move it
    Workload("rep32m", 32 * MIB, 1e-6, 41, 141,
             "highly repetitive 32 MiB text with a tiny grammar: the LZ "
             "parse sets time and peak RSS"),
    # the roadmap's headline and acceptance-test corpus; engine-bound
    Workload("mut16m", 16 * MIB, 1e-4, 31, 131,
             "the 16 MiB acceptance corpus: grammar-level recompression "
             "dominates on a large text"),
    # low repetition: literal-heavy parse, many dead rules for prune,
    # the largest output grammar, and the engine slower than the oracle
    Workload("noisy1m", 1 * MIB, 1e-2, 7, 107,
             "1 MiB low-repetition text: literal-heavy parse, rule "
             "building and pruning, largest grammar for verify"),
)}
