"""Shared recompression machinery: pair statistics, level partitions,
and the builder that accumulates run-length grammar rules.

Both recompression engines (the grammar-level one and the string-level
reference) go through this module, so fresh symbols get identical ids
for identical level strings and traces can be compared symbol for
symbol.  Fresh rules are therefore assigned per round in sorted key
order rather than in traversal order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .grammar import Grammar, RunRule, SeqRule

STRATEGIES = ("det", "rand", "mixed")


class PartitionError(ValueError):
    """Raised when an injected partition sequence runs dry."""


class ConvergenceError(RuntimeError):
    """Raised when recompression exceeds its phase limit."""


def symbol_rank(sym: int) -> int:
    """Total order over level symbols: terminals first by byte value,
    then grammar symbols by rule index."""
    return -sym if sym < 0 else 256 + sym


def symbol_ranks(syms: np.ndarray) -> np.ndarray:
    """symbol_rank of every element of an int64 array."""
    return np.where(syms < 0, -syms, 256 + syms)


class PairMaps:
    """Weighted adjacent-pair counts in text orientation.

    Pair i says that symbol first[i] directly precedes second[i], with
    total weight weight[i]; every distinct pair is stored once.
    """

    def __init__(self) -> None:
        self.first = np.empty(0, dtype=np.int64)
        self.second = np.empty(0, dtype=np.int64)
        self.weight = np.empty(0, dtype=np.int64)

    def add_arrays(self, first: np.ndarray, second: np.ndarray,
                   weight: np.ndarray) -> None:
        """Count weight[i] more for every pair (first[i], second[i]);
        all three are int64 arrays."""
        if len(self.first):
            first = np.concatenate((self.first, first))
            second = np.concatenate((self.second, second))
            weight = np.concatenate((self.weight, weight))
        if len(first) == 0:
            return
        # ranks are below the largest rank + 1, so the packed key fits
        # in int64 for any alphabet of fewer than 2^31 symbols
        ra, rb = symbol_ranks(first), symbol_ranks(second)
        span = int(max(ra.max(), rb.max())) + 1
        if span > 1 << 31:
            raise ValueError("level alphabet too large for pair keys")
        key = ra * span + rb
        order = np.argsort(key)
        key = key[order]
        starts = np.flatnonzero(np.concatenate(([True],
                                                key[1:] != key[:-1])))
        at = order[starts]
        self.first, self.second = first[at], second[at]
        self.weight = np.add.reduceat(weight[order], starts)

    def oriented_items(self):
        """Yield ((a, b), weight) in original text orientation."""
        yield from zip(zip(self.first.tolist(), self.second.tolist()),
                       self.weight.tolist())

    def total_weight(self) -> int:
        return int(self.weight.sum())


@dataclass
class Partition:
    """Two-sided split of the level alphabet; True means the left side.

    The sides must not change once `side_table` has been called.
    """

    sides: dict[int, bool]
    _table: np.ndarray | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def side_table(self) -> np.ndarray:
        """Sides indexed by symbol_rank: 1 left, -1 right, 0 for symbols
        outside the split.  Look symbols up with `sides_of`."""
        if self._table is None:
            syms = np.fromiter(self.sides, dtype=np.int64,
                               count=len(self.sides))
            left = np.fromiter(self.sides.values(), dtype=bool,
                               count=len(self.sides))
            ranks = symbol_ranks(syms)
            self._table = np.zeros(int(ranks.max(initial=0)) + 1,
                                   dtype=np.int8)
            self._table[ranks] = np.where(left, 1, -1)
        return self._table


def sides_of(table: np.ndarray, syms: np.ndarray) -> np.ndarray:
    """Side (1 left, -1 right, 0 none) of every level symbol in syms."""
    ranks = symbol_ranks(syms)
    return np.where(ranks < len(table),
                    table[np.minimum(ranks, len(table) - 1)], 0)


def replaced_weight(pairs: PairMaps, part: Partition) -> int:
    """Total weight of the pairs a replacement pass will consume."""
    table = part.side_table()
    crossing = ((sides_of(table, pairs.first) == 1)
                & (sides_of(table, pairs.second) == -1))
    return int(pairs.weight[crossing].sum())


def _rank_order(alphabet) -> np.ndarray:
    """The alphabet as an int64 array sorted by symbol_rank."""
    syms = np.fromiter(alphabet, dtype=np.int64)
    return syms[np.argsort(symbol_ranks(syms), kind="stable")]


def deterministic_partition(pairs: PairMaps, alphabet) -> Partition:
    """Greedy split maximizing crossing weight, then oriented the better
    way round.  Replaced weight is at least a quarter of the total.

    Symbols are placed in rank order, each opposite the heavier side of
    its already placed neighbors; ties go left.
    """
    syms = _rank_order(alphabet)
    count = len(syms)
    if count == 0:
        return Partition({})
    ranks = symbol_ranks(syms)

    def position(side: np.ndarray) -> np.ndarray:
        # place in rank order; -1 outside the alphabet (never placed)
        r = symbol_ranks(side)
        at = np.minimum(np.searchsorted(ranks, r), count - 1)
        return np.where(ranks[at] == r, at, -1)

    ia, ib = position(pairs.first), position(pairs.second)
    edge = (ia >= 0) & (ib >= 0) & (ia != ib)
    # each edge weighs on the later-placed end, from the earlier one
    later = np.maximum(ia, ib)[edge]
    order = np.argsort(later, kind="stable")
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
    placed = (ia >= 0) & (ib >= 0)
    la, lb = side[ia[placed]], side[ib[placed]]
    w = pairs.weight[placed]
    forward = int(w[la & ~lb].sum())
    backward = int(w[~la & lb].sum())
    if forward < backward:
        left = [not x for x in left]
    return Partition(dict(zip(syms.tolist(), left)))


def randomized_partition(alphabet, rng: random.Random) -> Partition:
    """Independent fair coin per symbol, in rank order for stable
    replay under a fixed seed."""
    return Partition({sym: bool(rng.getrandbits(1))
                      for sym in _rank_order(alphabet).tolist()})


def make_partition(pairs: PairMaps, alphabet, strategy: str,
                   rng: random.Random, pcomp_round: int) -> Partition:
    if strategy == "det":
        return deterministic_partition(pairs, alphabet)
    if strategy == "rand":
        return randomized_partition(alphabet, rng)
    if strategy == "mixed":
        if pcomp_round % 2 == 0:
            return deterministic_partition(pairs, alphabet)
        return randomized_partition(alphabet, rng)
    raise ValueError(f"unknown strategy {strategy!r}")


class PartitionSource:
    """Per-round partition supplier: strategy-driven or injected.

    Every partition handed out is logged, so a recorded run can be
    replayed into the other engine for lock-step comparison.
    """

    def __init__(self, strategy: str = "mixed", seed: int = 42,
                 injected: list[Partition] | None = None) -> None:
        if injected is None and strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self.rng = random.Random(seed)
        self.injected = list(injected) if injected is not None else None
        self.pcomp_rounds = 0
        self.log: list[Partition] = []

    def next_partition(self, pairs: PairMaps, alphabet) -> Partition:
        if self.injected is not None:
            if self.pcomp_rounds >= len(self.injected):
                raise PartitionError(
                    f"injected partitions exhausted after {self.pcomp_rounds}")
            part = self.injected[self.pcomp_rounds]
        else:
            part = make_partition(pairs, alphabet, self.strategy, self.rng,
                                  self.pcomp_rounds)
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
    work_size: int = 0  # working grammar size, grammar engine only
    seconds: float = 0.0  # wall time of the phase


def records_to_tsv(records: list[RoundRecord]) -> str:
    """Long-format telemetry: one `round phase metric value` row each."""
    lines = ["round\tphase\tmetric\tvalue"]
    for r in records:
        rows = [("length_after", r.length_after), ("new_rules", r.new_rules)]
        if r.phase == "pcomp":
            rows += [("replaced_weight", r.replaced_weight),
                     ("total_weight", r.total_weight)]
        if r.work_size:
            rows.append(("work_size", r.work_size))
        if r.seconds:
            rows.append(("seconds", f"{r.seconds:.6f}"))
        for metric, value in rows:
            lines.append(f"{r.round}\t{r.phase}\t{metric}\t{value}")
    return "\n".join(lines) + "\n"


class RlslpBuilder:
    """Accumulates the output grammar across rounds.

    A round's fresh rules come as two int64 key arrays: symbol and
    length for runs, left and right symbol for pairs.  Its distinct keys
    get the next ids in sorted key order, so both engines assign the
    same ones.  Keys are deduplicated within their round only, as none
    can come back.  A later pair round speaks a fresh level alphabet.  A
    run round leaves no two equal symbols adjacent, and a pair round
    makes two old symbols adjacent only if they already were, so every
    run a run round finds is of a symbol the pair round before it made.
    """

    def __init__(self) -> None:
        self._keys: list[tuple] = []  # (is run, a, b) per round
        self.productions = 0

    def add_runs(self, sym: np.ndarray, length: np.ndarray) -> np.ndarray:
        """Ids of the run rules sym[i]^length[i]."""
        return self._add(True, sym, length)

    def add_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Ids of the pair rules a[i] b[i]."""
        return self._add(False, a, b)

    def _add(self, run: bool, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Ids for the keys (a[i], b[i]) of run or pair rules."""
        if len(a) == 0:
            return np.empty(0, dtype=np.int64)
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        new = np.empty(len(order), dtype=bool)
        new[0] = True
        new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        rank = np.cumsum(new)
        ids = np.empty(len(order), dtype=np.int64)
        ids[order] = self.productions + rank
        self._keys.append((run, a[new], b[new]))
        self.productions += int(rank[-1])
        return ids

    @property
    def rules(self) -> list[SeqRule | RunRule]:
        """The rules made so far, in id order."""
        rules: list[SeqRule | RunRule] = []
        for run, a, b in self._keys:
            a, b = a.tolist(), b.tolist()
            rules += map(RunRule, a, b) if run else map(SeqRule, zip(a, b))
        return rules

    def finish(self, final_symbol: int) -> Grammar:
        """Close the grammar so `final_symbol` expands the whole text."""
        rules = self.rules
        if final_symbol < 0 or final_symbol != len(rules):
            rules.append(SeqRule((final_symbol,)))
        return Grammar(rules, alphabet_size=256)


@dataclass
class RecompressResult:
    grammar: Grammar
    records: list[RoundRecord]
    partitions: list[Partition]
    trace: list | None = None


def round_limit(n: int) -> int:
    """Defensive bound on compression phases for an n-byte input."""
    return 64 * max(1, n).bit_length() + 64
