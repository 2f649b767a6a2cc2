"""Grammar container shared by every stage of the toolkit.

A grammar is an ordered list of rules over signed 64-bit symbol ids.
Negative ids are terminals (byte c is stored as -(c+1)), positive ids
are 1-based rule indices, and 0 is never a valid symbol.  Rules may only
reference rules with a strictly smaller index, so the list order is a
topological order and the last rule is the start symbol.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

MAX_EXPANSION = 2**63 - 1
MAX_ALPHABET = 256  # terminals are bytes

SLG_MAGIC = b"SLGF"
SLG_VERSION = 1

_KIND_SEQ = 0x00
_KIND_RUN = 0x01


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


@dataclass(frozen=True)
class SeqRule:
    rhs: tuple[int, ...]


@dataclass(frozen=True)
class RunRule:
    base: int
    exponent: int


Rule = SeqRule | RunRule


@dataclass
class Grammar:
    rules: list[Rule]
    alphabet_size: int = 256

    @property
    def start(self) -> int:
        if not self.rules:
            raise GrammarError("empty grammar has no start symbol")
        return len(self.rules)


@dataclass
class ValidationReport:
    ok: bool
    rule_index: int = 0  # 1-based index of the first offending rule, 0 if none
    message: str = ""


@dataclass
class GrammarSize:
    size: int        # total right-hand-side length; run rules count 2
    productions: int


def _check_symbol(sym: int, rule_index: int, alphabet_size: int) -> str | None:
    if sym == 0:
        return "symbol 0 is not valid"
    if sym < 0:
        byte = term_byte(sym)
        if byte >= alphabet_size:
            return f"terminal {sym} outside alphabet of size {alphabet_size}"
        return None
    if sym >= rule_index:
        return f"reference to rule {sym} is not strictly earlier"
    return None


def validate(g: Grammar) -> ValidationReport:
    """Check ordering, rhs shape, exponents and terminal ranges.

    Returns a report describing the first violation instead of raising;
    a bad alphabet size is reported against rule 0.
    """
    if not 0 <= g.alphabet_size <= MAX_ALPHABET:
        return ValidationReport(
            False, 0, f"alphabet size {g.alphabet_size} outside "
            f"0..{MAX_ALPHABET}")
    for i, rule in enumerate(g.rules, start=1):
        if isinstance(rule, SeqRule):
            if len(rule.rhs) == 0:
                return ValidationReport(False, i, "empty rhs")
            for sym in rule.rhs:
                problem = _check_symbol(sym, i, g.alphabet_size)
                if problem:
                    return ValidationReport(False, i, problem)
        else:
            if rule.exponent < 2:
                return ValidationReport(False, i, f"run exponent {rule.exponent} < 2")
            problem = _check_symbol(rule.base, i, g.alphabet_size)
            if problem:
                return ValidationReport(False, i, problem)
    return ValidationReport(True)


def expansion_lengths(g: Grammar) -> list[int]:
    """Expansion length of every rule, index-aligned (entry 0 unused).

    Rejects grammars whose expansion would not fit in a signed 64-bit
    length, which bounds every downstream size computation.
    """
    lengths = [0] * (len(g.rules) + 1)
    for i, rule in enumerate(g.rules, start=1):
        if isinstance(rule, SeqRule):
            n = 0
            for sym in rule.rhs:
                n += 1 if sym < 0 else lengths[sym]
        else:
            base = 1 if rule.base < 0 else lengths[rule.base]
            n = base * rule.exponent
        if n > MAX_EXPANSION:
            raise GrammarError(f"expansion length of rule {i} exceeds 2^63-1")
        lengths[i] = n
    return lengths


def grammar_size(g: Grammar) -> GrammarSize:
    """Total rhs length (runs count 2) and the production count."""
    size = 0
    for rule in g.rules:
        size += len(rule.rhs) if isinstance(rule, SeqRule) else 2
    return GrammarSize(size, len(g.rules))


# Streaming expansion.  A bounded bottom-up memo keeps the walk fast on
# repetitive grammars without letting cache growth track the output size.

_MEMO_RULE_MAX = 1 << 16
_CHUNK = 1 << 16


def _build_memo(g: Grammar, lengths: list[int], budget: int) -> dict[int, bytes]:
    memo: dict[int, bytes] = {}
    spent = 0
    for i, rule in enumerate(g.rules, start=1):
        n = lengths[i]
        if n > _MEMO_RULE_MAX or spent + n > budget:
            continue
        if isinstance(rule, SeqRule):
            parts = []
            ok = True
            for sym in rule.rhs:
                if sym < 0:
                    parts.append(bytes((term_byte(sym),)))
                elif sym in memo:
                    parts.append(memo[sym])
                else:
                    ok = False
                    break
            if not ok:
                continue
            memo[i] = b"".join(parts)
        else:
            if rule.base < 0:
                base = bytes((term_byte(rule.base),))
            elif rule.base in memo:
                base = memo[rule.base]
            else:
                continue
            memo[i] = base * rule.exponent
        spent += n
    return memo


def iter_expansion(g: Grammar, rule_index: int | None = None,
                   memo_budget: int = 64 << 20):
    """Yield the expansion of a rule as a sequence of bytes chunks.

    Additional memory is bounded by the memo budget plus the grammar
    depth, independent of the output length.
    """
    if not g.rules:
        raise GrammarError("cannot expand an empty grammar")
    if rule_index is None:
        rule_index = g.start
    if not 1 <= rule_index <= len(g.rules):
        raise GrammarError(f"no rule {rule_index}")
    report = validate(g)
    if not report.ok:
        where = f"rule {report.rule_index}: " if report.rule_index else ""
        raise GrammarError(where + report.message)
    lengths = expansion_lengths(g)
    memo = _build_memo(g, lengths, memo_budget)
    rules = g.rules

    buf = bytearray()
    # frames: [rhs tuple, position] for sequences, [base, remaining] for runs
    stack: list[list] = [[(rule_index,), 0, True]]
    while stack:
        frame = stack[-1]
        if frame[2]:  # sequence frame
            rhs, pos = frame[0], frame[1]
            if pos == len(rhs):
                stack.pop()
                continue
            frame[1] = pos + 1
            sym = rhs[pos]
        else:  # run frame
            if frame[1] == 0:
                stack.pop()
                continue
            frame[1] -= 1
            sym = frame[0]
        if sym < 0:
            buf.append(term_byte(sym))
            if len(buf) >= _CHUNK:
                yield bytes(buf)
                buf.clear()
            continue
        cached = memo.get(sym)
        if cached is not None:
            if not frame[2] and frame[1] > 0:
                # emit the whole run at once, in bounded slices
                reps = frame[1] + 1
                frame[1] = 0
                if buf:
                    yield bytes(buf)
                    buf.clear()
                step = max(1, _CHUNK // max(1, len(cached)))
                while reps > 0:
                    take = min(reps, step)
                    yield cached * take
                    reps -= take
                continue
            buf += cached
            if len(buf) >= _CHUNK:
                yield bytes(buf)
                buf.clear()
            continue
        rule = rules[sym - 1]
        if isinstance(rule, SeqRule):
            stack.append([rule.rhs, 0, True])
        else:
            stack.append([rule.base, rule.exponent, False])
    if buf:
        yield bytes(buf)


def expand(g: Grammar, rule_index: int | None = None) -> bytes:
    """Full expansion of a rule (the start symbol by default)."""
    return b"".join(iter_expansion(g, rule_index))


# Serialization ("SLGF"): little-endian, fixed-width, one record per rule.

_HEADER = struct.Struct("<4sBQQ")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")


def encode_grammar(g: Grammar) -> bytes:
    """Serialize to the SLGF byte format."""
    out = bytearray(_HEADER.pack(SLG_MAGIC, SLG_VERSION, g.alphabet_size,
                                 len(g.rules)))
    for rule in g.rules:
        if isinstance(rule, SeqRule):
            out.append(_KIND_SEQ)
            out += _U64.pack(len(rule.rhs))
            for sym in rule.rhs:
                out += _I64.pack(sym)
        else:
            out.append(_KIND_RUN)
            out += _I64.pack(rule.base)
            out += _U64.pack(rule.exponent)
    return bytes(out)


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
    pos = _HEADER.size
    rules: list[Rule] = []
    for i in range(count):
        if pos >= len(data):
            raise FormatError(f"truncated at rule {i + 1}")
        kind = data[pos]
        pos += 1
        if kind == _KIND_SEQ:
            if pos + 8 > len(data):
                raise FormatError(f"truncated at rule {i + 1}")
            (length,) = _U64.unpack_from(data, pos)
            pos += 8
            if pos + 8 * length > len(data):
                raise FormatError(f"truncated at rule {i + 1}")
            rhs = struct.unpack_from(f"<{length}q", data, pos)
            pos += 8 * length
            rules.append(SeqRule(rhs))
        elif kind == _KIND_RUN:
            if pos + 16 > len(data):
                raise FormatError(f"truncated at rule {i + 1}")
            (base,) = _I64.unpack_from(data, pos)
            (exponent,) = _U64.unpack_from(data, pos + 8)
            pos += 16
            rules.append(RunRule(base, exponent))
        else:
            raise FormatError(f"unknown record kind {kind:#x} at rule {i + 1}")
    if pos != len(data):
        raise FormatError(f"{len(data) - pos} trailing bytes")
    g = Grammar(rules, alphabet_size=sigma)
    report = validate(g)
    if not report.ok:
        raise FormatError(f"rule {report.rule_index}: {report.message}")
    return g
