"""Shared recompression machinery: pair statistics, level partitions,
and the builder that accumulates run-length grammar rules.

Both recompression engines (the grammar-level one and the string-level
reference) go through this module, so fresh symbols get identical ids
for identical level strings and traces can be compared symbol for
symbol.  Fresh rules are therefore assigned per round in sorted key
order rather than in traversal order.

Inside a round a level symbol is its rank, a positive int64: byte c is
c + 1 and output rule j is 256 + j, so plain integer order puts the
terminals first by byte value, then the rules by id.  Output ids (a
terminal -(c+1), a rule j) appear only where a grammar or a trace is
made, through `output_ids`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .grammar import Grammar, _starts

STRATEGIES = ("det", "rand", "mixed")
DEFAULT_STRATEGY = "mixed"
DEFAULT_SEED = 42


class PartitionError(ValueError):
    """Raised for a bad partition key or a dry injected partition list."""


class ConvergenceError(RuntimeError):
    """Raised when recompression exceeds its phase limit."""


def output_ids(levels: np.ndarray) -> np.ndarray:
    """Output-grammar symbol of every level symbol (rank) of an int64
    array: a rank r <= 256 is terminal -r, a larger one rule r - 256."""
    return np.where(levels <= 256, -levels, levels - 256)


class PairMaps:
    """A pair round's weighted pair graph: the sorted level alphabet
    `syms` (int64 ranks) and its adjacent pairs in text orientation, as
    positions in syms.

    Pair i says that symbol syms[first[i]] directly precedes
    syms[second[i]], with total weight weight[i]; every distinct pair is
    stored once, in the order of its key first * len(syms) + second.
    """

    def __init__(self, syms: np.ndarray, first: np.ndarray,
                 second: np.ndarray, weight: np.ndarray) -> None:
        """Count weight[i] for every pair (first[i], second[i]) of
        positions in syms; all four are int64 arrays."""
        self.syms = syms
        # a key is below len(syms)**2, which fits in int64 for any
        # alphabet under 3 * 10^9 symbols, and syms alone would then
        # take 24 GB
        key = first * len(syms) + second
        order = np.argsort(key)
        starts = _starts(key[order])
        at = order[starts]
        self.first, self.second = first[at], second[at]
        self.weight = np.add.reduceat(weight[order], starts)


class Partition:
    """Two-sided split of the level alphabet: its symbols `syms` (int64,
    sorted) and whether each goes `left`, built from a dict of symbol to
    side."""

    def __init__(self, sides: dict[int, bool]) -> None:
        syms = np.fromiter(sides, dtype=np.int64, count=len(sides))
        bad = syms[syms < 1]
        if len(bad):
            raise PartitionError(
                f"partition key {int(bad[0])} is not a level symbol")
        left = np.fromiter(sides.values(), dtype=bool, count=len(sides))
        # the keys are distinct, so no tie's order is left to keep
        order = np.argsort(syms)
        self.syms, self.left = syms[order], left[order]

    @classmethod
    def from_arrays(cls, syms: np.ndarray, left: np.ndarray) -> Partition:
        """The split with syms[i] on the left side where left[i]."""
        part = cls.__new__(cls)
        part.syms, part.left = syms, left
        return part

    def sides_of(self, syms: np.ndarray) -> np.ndarray:
        """Side of every level symbol in syms: 1 left, -1 right, 0 for
        symbols outside the split."""
        # indexed by symbol; slot 0, never set, stands for every symbol
        # below 1, and the last slot for every larger one
        table = np.zeros(int(self.syms.max(initial=0)) + 2, dtype=np.int8)
        table[self.syms] = np.where(self.left, 1, -1)
        return table[np.clip(syms, 0, len(table) - 1)]


def deterministic_partition(pairs: PairMaps) -> Partition:
    """Greedy split maximizing crossing weight, then oriented the better
    way round.  Replaced weight is at least a quarter of the total.

    Symbols are placed in rank order, each opposite the heavier side of
    its already placed neighbors; ties go left.
    """
    ia, ib = pairs.first, pairs.second
    count = len(pairs.syms)
    edge = ia != ib
    # each edge weighs on the later-placed end, from the earlier one
    later = np.maximum(ia, ib)[edge]
    # a symbol's balance is an integer sum, the same in any order
    order = np.argsort(later)
    ptr = np.searchsorted(later[order], np.arange(count + 1)).tolist()
    earlier = np.minimum(ia, ib)[edge][order].tolist()
    weights = pairs.weight[edge][order].tolist()
    left = [True] * count
    for i in range(count):
        lo, hi = ptr[i], ptr[i + 1]
        if lo == hi:
            continue
        balance = 0
        for j, w in zip(earlier[lo:hi], weights[lo:hi]):
            balance += w if left[j] else -w
        if balance > 0:
            left[i] = False
    side = np.array(left, dtype=bool)
    la, lb = side[ia], side[ib]
    w = pairs.weight
    flip = w[la & ~lb].sum() < w[~la & lb].sum()
    return Partition.from_arrays(pairs.syms, side ^ flip)


def randomized_partition(alphabet, rng: random.Random) -> Partition:
    """Independent fair coin per symbol of the alphabet (an int64 array
    or a collection of ints), in rank order, which is plain integer
    order, for stable replay under a fixed seed.  Bit 31 of each
    little-endian 32-bit word of one getrandbits(32 n) call is what the
    successive getrandbits(1) calls would return, with the same
    generator state afterwards."""
    if not isinstance(alphabet, np.ndarray):
        alphabet = np.array(list(alphabet), dtype=np.int64)
    syms = np.sort(alphabet)
    words = rng.getrandbits(32 * len(syms)).to_bytes(4 * len(syms), "little")
    return Partition.from_arrays(
        syms, np.frombuffer(words, dtype="<u4") >> 31 == 1)


class PartitionSource:
    """Per-round partition supplier: strategy-driven or injected.

    Every partition handed out is logged, so a recorded run can be
    replayed into the other engine for lock-step comparison.
    """

    def __init__(self, strategy: str = DEFAULT_STRATEGY,
                 seed: int = DEFAULT_SEED,
                 injected: list[Partition] | None = None) -> None:
        if injected is None and strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self.rng = random.Random(seed)
        self.injected = list(injected) if injected is not None else None
        self.pcomp_rounds = 0
        self.log: list[Partition] = []

    def next_partition(self, pairs: PairMaps) -> Partition:
        if self.injected is not None:
            if self.pcomp_rounds >= len(self.injected):
                raise PartitionError(
                    f"injected partitions exhausted after {self.pcomp_rounds}")
            part = self.injected[self.pcomp_rounds]
        elif self.strategy == "det" or (self.strategy == "mixed"
                                        and self.pcomp_rounds % 2 == 0):
            part = deterministic_partition(pairs)
        else:
            part = randomized_partition(pairs.syms, self.rng)
        self.pcomp_rounds += 1
        self.log.append(part)
        return part


@dataclass
class RoundRecord:
    """Telemetry for one compression phase."""

    round: int
    phase: str  # "bcomp" or "pcomp"
    length_after: int
    new_rules: int
    replaced_weight: int = 0
    total_weight: int = 0
    work_size: int = 0  # working grammar size; len(s) in string rounds
    seconds: float = 0.0  # wall time of the phase, the sum of the parts:
    nocc_s: float = 0.0  # occurrence counts (grammar rounds)
    pair_count_s: float = 0.0  # pair frequencies
    partition_s: float = 0.0  # choosing the partition
    rewrite_s: float = 0.0  # bcomp or pcomp
    level_lengths_s: float = 0.0  # level lengths of the new grammar


class Laps:
    """Wall time of one phase, split into RoundRecord's parts."""

    def __init__(self) -> None:
        self.start = self.last = time.perf_counter()
        self.spent: dict[str, float] = {}

    def lap(self, part: str) -> None:
        """Count the time since the last lap towards part."""
        now = time.perf_counter()
        self.spent[part] = self.spent.get(part, 0.0) + now - self.last
        self.last = now

    def times(self) -> dict[str, float]:
        return dict(self.spent, seconds=self.last - self.start)


def round_record(round_no: int, before: int, after: int, new_rules: int,
                 work_size: int, laps: Laps) -> RoundRecord:
    """Record of round round_no (even: runs, odd: pairs), which took the
    level string from length before to after.

    A string of n symbols has n - 1 adjacent pairs, and every pair a
    pair round replaces removes one symbol, so the lengths give the
    round's total and replaced weight.
    """
    rec = RoundRecord(round_no, "pcomp" if round_no % 2 else "bcomp", after,
                      new_rules, work_size=work_size, **laps.times())
    if round_no % 2:
        rec.replaced_weight, rec.total_weight = before - after, before - 1
    return rec


class RlslpBuilder:
    """Accumulates the output grammar across rounds.

    A round's fresh rules come as two int64 key arrays: level symbol and
    length for runs, left and right level symbol for pairs.  Its
    distinct keys get the next ids in the sorted order of the keys in
    output ids, so both engines assign the same ones, and come back as
    level symbols.  Keys are deduplicated within their round only, as none
    can come back.  A later pair round speaks a fresh level alphabet.  A
    run round leaves no two equal symbols adjacent, and a pair round
    makes two old symbols adjacent only if they already were, so every
    run a run round finds is of a symbol the pair round before it made.
    """

    def __init__(self) -> None:
        self._keys: list[tuple] = []  # (is run, a, b) per round
        self.productions = 0

    def add_runs(self, sym: np.ndarray, length: np.ndarray) -> np.ndarray:
        """Level symbols of the run rules sym[i]^length[i]."""
        return self._add(True, output_ids(sym), length)

    def add_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Level symbols of the pair rules a[i] b[i]."""
        return self._add(False, output_ids(a), output_ids(b))

    def _add(self, run: bool, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Level symbols for the keys (a[i], b[i]) of run or pair rules,
        given in output ids, whose order sets the fresh ids."""
        if len(a) == 0:
            return np.empty(0, dtype=np.int64)
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        new = np.empty(len(order), dtype=bool)
        new[0] = True
        new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        rank = np.cumsum(new)
        levels = np.empty(len(order), dtype=np.int64)
        levels[order] = 256 + self.productions + rank
        self._keys.append((run, a[new], b[new]))
        self.productions += int(rank[-1])
        return levels

    def finish(self, final_symbol: int) -> Grammar:
        """Close the grammar so `final_symbol`, an output id, expands the
        whole text.

        Every round's keys are the two entries of its rules.
        """
        ent = [np.empty(0, dtype=np.int64)]
        run = [np.empty(0, dtype=bool)]
        for is_run, a, b in self._keys:
            ent.append(np.stack((a, b), axis=1).ravel())
            run.append(np.full(len(a), is_run))
        sizes = np.full(self.productions, 2)
        if final_symbol < 0 or final_symbol != self.productions:
            ent.append(np.array([final_symbol], dtype=np.int64))
            run.append(np.zeros(1, dtype=bool))
            sizes = np.append(sizes, 1)
        return Grammar.from_arrays(
            np.concatenate(ent), np.concatenate(([0], np.cumsum(sizes))),
            np.concatenate(run), alphabet_size=256)


@dataclass
class RecompressResult:
    grammar: Grammar
    records: list[RoundRecord]
    partitions: list[Partition]
    trace: list | None = None


def round_limit(n: int) -> int:
    """Defensive bound on compression phases for an n-byte input."""
    return 64 * max(1, n).bit_length() + 64
