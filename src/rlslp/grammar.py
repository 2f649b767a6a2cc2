"""Grammar container shared by every stage of the toolkit.

A grammar is an ordered list of rules over signed 64-bit symbol ids.
Negative ids are terminals (byte c is stored as -(c+1)), positive ids
are 1-based rule indices, and 0 is never a valid symbol.  Rules may only
reference rules with a strictly smaller index, so the list order is a
topological order and the last rule is the start symbol.

The rules are stored as three arrays: one int64 entry array `ent`, the
per-rule offsets `ptr` (rule j's entries are ent[ptr[j-1]:ptr[j]]) and
a per-rule run flag `run`.  A sequence rule's entries are its
right-hand side; a run rule base^exponent is the two entries (base,
exponent), the exponent's 64 bits read unsigned.  Every stage hands
these arrays on, and the SLGF codec writes and reads them in bulk.
`Grammar.rules`, a list of `SeqRule`/`RunRule` objects, is built on
first use, for the library API and the tests.

`validate` and `_reachable` make up `slg.prune_slp`, the gate into the
engine.  This module imports no other module of the package.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

MAX_EXPANSION = 2**63 - 1
MAX_ALPHABET = 256  # terminals are bytes

SLG_MAGIC = b"SLGF"
SLG_VERSION = 1

_KIND_SEQ = 0x00
_KIND_RUN = 0x01
_U64_MASK = 2**64 - 1


class GrammarError(ValueError):
    """Raised for structurally unusable grammars or oversized expansions."""


class FormatError(ValueError):
    """Raised when a serialized stream cannot be decoded."""


def term(byte: int) -> int:
    """Symbol id for a terminal byte."""
    return -(byte + 1)


def term_byte(sym: int) -> int:
    """Byte value of a terminal symbol id."""
    return -sym - 1


@dataclass(frozen=True, slots=True)
class SeqRule:
    rhs: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class RunRule:
    base: int
    exponent: int


Rule = SeqRule | RunRule


class Grammar:
    """Rules as arrays (see the module docstring), plus the alphabet size.

    `Grammar(rules, alphabet_size)` builds the arrays from rule objects;
    `Grammar.from_arrays` takes them as they are.  The arrays are not
    changed once the grammar is made.
    """

    __slots__ = ("ent", "ptr", "run", "alphabet_size", "_rules")

    def __init__(self, rules: Iterable[Rule] = (),
                 alphabet_size: int = 256) -> None:
        rules = list(rules)
        flat: list[int] = []
        sizes: list[int] = []
        for i, rule in enumerate(rules, start=1):
            if isinstance(rule, SeqRule):
                flat += rule.rhs
                sizes.append(len(rule.rhs))
            else:
                e = rule.exponent
                if not 0 <= e <= _U64_MASK:
                    raise GrammarError(f"rule {i}: run exponent {e} is not "
                                       "a u64")
                # an exponent past 2^63 - 1 keeps its bits as an int64
                flat += (rule.base, e if e <= MAX_EXPANSION else e - 2**64)
                sizes.append(2)
        try:
            self.ent = np.array(flat, dtype=np.int64)
        except OverflowError:
            raise GrammarError("a symbol does not fit in 64 bits") from None
        self.ptr = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        self.run = np.fromiter((isinstance(r, RunRule) for r in rules),
                               dtype=bool, count=len(rules))
        self.alphabet_size = alphabet_size
        self._rules = rules

    @classmethod
    def from_arrays(cls, ent: np.ndarray, ptr: np.ndarray, run: np.ndarray,
                    alphabet_size: int = 256) -> "Grammar":
        """The grammar of these arrays, kept as they are."""
        g = cls.__new__(cls)
        g.ent, g.ptr, g.run = ent, ptr, run
        g.alphabet_size = alphabet_size
        g._rules = None
        return g

    def __len__(self) -> int:
        return len(self.run)

    @property
    def rules(self) -> list[Rule]:
        """The rules as objects, built once."""
        if self._rules is None:
            ent, ptr = self.ent.tolist(), self.ptr.tolist()
            self._rules = [
                RunRule(ent[a], ent[a + 1] & _U64_MASK) if run
                else SeqRule(tuple(ent[a:b]))
                for a, b, run in zip(ptr, ptr[1:], self.run.tolist())]
        return self._rules

    @property
    def start(self) -> int:
        if not len(self):
            raise GrammarError("empty grammar has no start symbol")
        return len(self)

    def rows(self) -> np.ndarray:
        """1-based rule of every entry."""
        return np.repeat(np.arange(1, len(self) + 1), np.diff(self.ptr))

    def symbol_mask(self) -> np.ndarray:
        """True for the entries that are symbols, false for exponents."""
        mask = np.ones(len(self.ent), dtype=bool)
        mask[self.ptr[:-1][self.run] + 1] = False
        return mask

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grammar):
            return NotImplemented
        return (self.alphabet_size == other.alphabet_size
                and np.array_equal(self.run, other.run)
                and np.array_equal(self.ptr, other.ptr)
                and np.array_equal(self.ent, other.ent))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Grammar({self.rules!r}, alphabet_size={self.alphabet_size})"


def power(join: Callable[[int, int], int], x: int, q: int) -> int:
    """Concatenation of q >= 1 copies of x by binary decomposition;
    join(a, b) gives the symbol of a followed by b."""
    result = None
    while q:
        if q & 1:
            result = x if result is None else join(result, x)
        q >>= 1
        if q:
            x = join(x, x)
    return result


@dataclass
class ValidationReport:
    ok: bool
    rule_index: int = 0  # 1-based index of the first offending rule, 0 if none
    message: str = ""


@dataclass
class GrammarSize:
    size: int        # total right-hand-side length; run rules count 2
    productions: int


def validate(g: Grammar) -> ValidationReport:
    """Check ordering, rhs shape, exponents and terminal ranges.

    Returns a report describing the first violation instead of raising;
    a bad alphabet size is reported against rule 0.
    """
    sigma = g.alphabet_size
    if not 0 <= sigma <= MAX_ALPHABET:
        return ValidationReport(
            False, 0, f"alphabet size {sigma} outside 0..{MAX_ALPHABET}")
    ent, ptr, run = g.ent, g.ptr, g.run
    row = g.rows()
    bad = ptr[1:] == ptr[:-1]
    exponent = ent[ptr[:-1][run] + 1]
    bad[run] |= (exponent >= 0) & (exponent < 2)
    wrong = g.symbol_mask() & ((ent == 0) | (ent < -sigma) | (ent >= row))
    bad[row[wrong] - 1] = True
    if not bad.any():
        return ValidationReport(True)
    i = int(bad.argmax()) + 1
    a, b = int(ptr[i - 1]), int(ptr[i])
    if a == b:
        return ValidationReport(False, i, "empty rhs")
    if run[i - 1] and 0 <= ent[a + 1] < 2:
        return ValidationReport(False, i, f"run exponent {ent[a + 1]} < 2")
    sym = int(ent[a + int(wrong[a:b].argmax())])
    if sym == 0:
        return ValidationReport(False, i, "symbol 0 is not valid")
    problem = (f"terminal {sym} outside alphabet of size {sigma}" if sym < 0
               else f"reference to rule {sym} is not strictly earlier")
    return ValidationReport(False, i, problem)


def _starts(flags: np.ndarray) -> np.ndarray:
    """Positions where a new segment begins: the first one, and every
    position whose flag differs from its predecessor's."""
    change = np.empty(len(flags), dtype=bool)
    change[:1] = True
    np.not_equal(flags[1:], flags[:-1], out=change[1:])
    return change.nonzero()[0]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of the ranges starts[i] .. starts[i] + counts[i] - 1."""
    ends = counts.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    return (starts - ends + counts).repeat(counts) + np.arange(total)


def _entries_of(ptr: np.ndarray, rules: np.ndarray) -> np.ndarray:
    """Positions of the entries of the given 1-based rules, in order."""
    return _ranges(ptr[rules - 1], ptr[rules] - ptr[rules - 1])


def _reachable(ptr: np.ndarray, ent: np.ndarray, root: int) -> np.ndarray:
    """Mask of the rules reachable from root (slot 0 unused)."""
    alive = np.zeros(len(ptr), dtype=bool)
    alive[root] = True
    frontier = np.array([root])
    while len(frontier):
        e = ent[_entries_of(ptr, frontier)]
        e = np.sort(e[e > 0])
        frontier = e[_starts(e)]
        frontier = frontier[~alive[frontier]]
        alive[frontier] = True
    return alive


def expansion_lengths(g: Grammar) -> list[int]:
    """Expansion length of every rule, index-aligned (entry 0 unused).

    Rejects invalid grammars, and grammars whose expansion would not fit
    in a signed 64-bit length, which bounds every downstream size
    computation.
    """
    _check_valid(g)
    ent, ptr, run = g.ent.tolist(), g.ptr.tolist(), g.run.tolist()
    lengths, _ = _expansions(ent, ptr, run, 0)
    del lengths[len(g) + 1:]
    for i, n in enumerate(lengths):
        if n > MAX_EXPANSION:
            raise GrammarError(f"expansion length of rule {i} exceeds 2^63-1")
    return lengths


def grammar_size(g: Grammar) -> GrammarSize:
    """Total rhs length (runs count 2) and the production count."""
    return GrammarSize(len(g.ent), len(g))


# Streaming expansion.  A fixed-budget memo of the short rules keeps the
# walk fast; extra memory is that budget plus lists of the grammar's size.

_MEMO_RULE_MAX = 1 << 16
# fixed: a budget of 32x the grammar's entry bytes (3.1 MiB) made the
# expansion of the repetitive 32 MiB benchmark text 1.7x slower
_MEMO_BUDGET = 16 << 20
# a chunk is at most _CHUNK bytes or one memoized rule, so at most 64 KiB,
# where glibc's free() starts to consolidate and trim the heap; the
# buffer is flushed before a rule that would take it past _CHUNK.  With
# 64 KiB chunks a streaming verify after a compress in the same process
# page-faulted about 1,200 times per pass over rep32m's 32 MiB, as each
# freed chunk shrank the heap that the next one grew again
_CHUNK = 1 << 15
# the memo's terminal slots, symbols -256..-1
_TERMINALS = [bytes((term_byte(s),)) for s in range(-MAX_ALPHABET, 0)]


def _check_valid(g: Grammar) -> None:
    report = validate(g)
    if not report.ok:
        where = f"rule {report.rule_index}: " if report.rule_index else ""
        raise GrammarError(where + report.message)


def _expansions(ent: list[int], ptr: list[int], run: list[bool],
                budget: int) -> tuple[list[int], list]:
    """Every rule's expansion length, cut to 2^63 past 2^63-1, and the
    expansion of every rule that fits the memo, from one pass in id
    order over a valid grammar's arrays.  Both lists are indexed by
    symbol: rule i at slot i, terminal -(c+1) at slot -(c+1).  A rule
    fits if it expands to at most _MEMO_RULE_MAX bytes and to no more
    than the budget has left; its children expand to no more than it
    does, so they fit too.  The others read None.
    """
    cap = MAX_EXPANSION + 1
    rule_max = _MEMO_RULE_MAX
    lengths = [0] * (len(run) + 1) + [1] * MAX_ALPHABET
    memo = [None] * (len(run) + 1) + _TERMINALS
    at = lengths.__getitem__
    get = memo.__getitem__
    left = budget
    i = 0
    for a, b, is_run in zip(ptr, ptr[1:], run):
        i += 1
        if is_run:
            x = ent[a]
            n = lengths[x] * (ent[a + 1] & _U64_MASK)
            if n <= left and n <= rule_max:
                memo[i] = memo[x] * ent[a + 1]
                left -= n
        elif b - a == 2:
            x = ent[a]
            y = ent[a + 1]
            n = lengths[x] + lengths[y]
            if n <= left and n <= rule_max:
                memo[i] = memo[x] + memo[y]
                left -= n
        else:
            syms = ent[a:b]
            n = sum(map(at, syms))
            if n <= left and n <= rule_max:
                memo[i] = b"".join(map(get, syms))
                left -= n
        lengths[i] = n if n < cap else cap
    return lengths, memo


def iter_expansion(g: Grammar, rule_index: int | None = None):
    """Yield the expansion of a rule as a sequence of bytes chunks.

    Additional memory is bounded by the memo budget plus lists of the
    grammar's size, independent of the output length.
    """
    if not len(g):
        raise GrammarError("cannot expand an empty grammar")
    if rule_index is None:
        rule_index = g.start
    if not 1 <= rule_index <= len(g):
        raise GrammarError(f"no rule {rule_index}")
    _check_valid(g)
    ent, ptr, run = g.ent.tolist(), g.ptr.tolist(), g.run.tolist()
    # a rule only references shorter rules, so if this one fits, so
    # does everything it expands, and every run it reaches has an
    # exponent below 2^63; unreachable rules may not
    lengths, memo = _expansions(ent, ptr, run, _MEMO_BUDGET)
    if lengths[rule_index] > MAX_EXPANSION:
        raise GrammarError(
            f"expansion length of rule {rule_index} exceeds 2^63-1")
    del lengths

    buf = bytearray()
    # frames: [next entry, end, True] for sequences, [base, remaining,
    # False] for runs; the rule to expand is a run of one
    stack: list[list] = [[rule_index, 1, False]]
    while stack:
        frame = stack[-1]
        if frame[2]:  # sequence frame
            pos = frame[0]
            if pos == frame[1]:
                stack.pop()
                continue
            frame[0] = pos + 1
            sym = ent[pos]
        else:  # run frame
            if frame[1] == 0:
                stack.pop()
                continue
            frame[1] -= 1
            sym = frame[0]
        cached = memo[sym]
        if cached is not None:
            if not frame[2] and frame[1] > 0:
                # emit the whole run at once, in bounded slices
                reps = frame[1] + 1
                frame[1] = 0
                if buf:
                    yield bytes(buf)
                    buf.clear()
                step = _CHUNK // len(cached) or 1
                while reps > 0:
                    take = min(reps, step)
                    yield cached * take
                    reps -= take
                continue
            if buf and len(buf) + len(cached) > _CHUNK:
                yield bytes(buf)
                buf.clear()
            buf += cached
            if len(buf) >= _CHUNK:
                yield bytes(buf)
                buf.clear()
            continue
        a = ptr[sym - 1]
        if run[sym - 1]:
            stack.append([ent[a], ent[a + 1], False])
        else:
            stack.append([a, ptr[sym], True])
    if buf:
        yield bytes(buf)


def expand(g: Grammar, rule_index: int | None = None) -> bytes:
    """Full expansion of a rule (the start symbol by default)."""
    return b"".join(iter_expansion(g, rule_index))


# Serialization ("SLGF"): little-endian, fixed-width, one record per rule:
# a kind byte, then a sequence's u64 length and its i64 symbols, or a
# run's i64 base and u64 exponent.  Without the header and the kind
# bytes, the file is one little-endian 64-bit array: the entries, with
# each sequence's length in front of its own.

_HEADER = struct.Struct("<4sBQQ")
_U64 = struct.Struct("<Q")


def _kind_offsets(ptr: np.ndarray, seq: np.ndarray) -> np.ndarray:
    """Byte offset of every record's kind byte."""
    fields = ptr[:-1] + np.cumsum(seq) - seq
    return _HEADER.size + np.arange(len(seq)) + 8 * fields


def _words(size: int, kinds: np.ndarray) -> np.ndarray:
    """Mask of the bytes of the 64-bit fields in a file of that size."""
    mask = np.ones(size, dtype=bool)
    mask[:_HEADER.size] = False
    mask[kinds] = False
    return mask


def encode_grammar(g: Grammar) -> bytes:
    """Serialize to the SLGF byte format."""
    seq = ~g.run
    lengths = np.diff(g.ptr)
    words = np.insert(g.ent, g.ptr[:-1][seq], lengths[seq])
    size = _HEADER.size + len(g) + 8 * len(words)
    kinds = _kind_offsets(g.ptr, seq)
    out = np.empty(size, dtype=np.uint8)
    out[:_HEADER.size] = np.frombuffer(
        _HEADER.pack(SLG_MAGIC, SLG_VERSION, g.alphabet_size, len(g)),
        dtype=np.uint8)
    out[kinds] = g.run
    out[_words(size, kinds)] = words.astype("<i8").view(np.uint8)
    return out.tobytes()


def decode_grammar(data: bytes) -> Grammar:
    """Parse an SLGF stream, rejecting malformed or invalid grammars."""
    if len(data) < _HEADER.size:
        raise FormatError("truncated header")
    magic, version, sigma, count = _HEADER.unpack_from(data, 0)
    if magic != SLG_MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != SLG_VERSION:
        raise FormatError(f"unsupported version {version}")
    if sigma > MAX_ALPHABET:
        raise FormatError(f"alphabet size {sigma} exceeds {MAX_ALPHABET}")
    # one pass over the record heads finds the records; the fields are
    # then read in bulk
    end = len(data)
    pos = _HEADER.size
    kinds = bytearray()
    sizes = []
    u64 = _U64.unpack_from
    for i in range(count):
        if pos >= end:
            raise FormatError(f"truncated at rule {i + 1}")
        kind = data[pos]
        if kind == _KIND_SEQ:
            if pos + 9 > end:
                raise FormatError(f"truncated at rule {i + 1}")
            (length,) = u64(data, pos + 1)
            pos += 9 + 8 * length
        elif kind == _KIND_RUN:
            length = 2
            pos += 17
        else:
            raise FormatError(f"unknown record kind {kind:#x} at rule {i + 1}")
        if pos > end:
            raise FormatError(f"truncated at rule {i + 1}")
        kinds.append(kind)
        sizes.append(length)
    if pos != end:
        raise FormatError(f"{end - pos} trailing bytes")
    run = np.frombuffer(kinds, dtype=bool)
    seq = ~run
    ptr = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    kind_at = _kind_offsets(ptr, seq)
    words = np.frombuffer(data, dtype=np.uint8)[_words(end, kind_at)]
    words = words.view("<i8").astype(np.int64, copy=False)
    ent = np.delete(words, (ptr[:-1] + np.cumsum(seq) - 1)[seq])
    g = Grammar.from_arrays(ent, ptr, run, alphabet_size=sigma)
    report = validate(g)
    if not report.ok:
        raise FormatError(f"rule {report.rule_index}: {report.message}")
    return g
