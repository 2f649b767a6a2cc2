"""Rule-object reference versions of the grammar codec, validation,
expansion and pruning, the per-phrase factorization checks, the
dict-building partition strategies, and the engine's inlining of
single-use rules; the weight a partition replaces, the oracle of the
quarter guarantee; the scalar symbol rank, the dict views of pair
counts and partitions, the builder's rules so far, a working rule's
right-hand side and a pair count's total weight, which only tests
read; and a left-comb binarization that tests use to build deep
grammars.

These walk `Grammar.rules` one `SeqRule`/`RunRule` at a time, the
phrases one at a time, and the alphabet one symbol at a time, as the
toolkit did before its grammars, factorizations and partitions were
stored as arrays.  The array versions must agree with them byte for
byte, error for error, rule for rule and side for side.
"""

from __future__ import annotations

import random
import struct

from rlslp.grammar import (MAX_ALPHABET, MAX_EXPANSION, SLG_MAGIC,
                           SLG_VERSION, FormatError, Grammar, GrammarError,
                           RunRule, SeqRule, ValidationReport, term_byte)
from rlslp.lz import Factorization, ParseError
from rlslp.partition import PairMaps, Partition, RlslpBuilder

_HEADER = struct.Struct("<4sBQQ")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")


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


def ref_validate(g: Grammar) -> ValidationReport:
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
                return ValidationReport(False, i,
                                        f"run exponent {rule.exponent} < 2")
            problem = _check_symbol(rule.base, i, g.alphabet_size)
            if problem:
                return ValidationReport(False, i, problem)
    return ValidationReport(True)


def ref_encode(g: Grammar) -> bytes:
    out = bytearray(_HEADER.pack(SLG_MAGIC, SLG_VERSION, g.alphabet_size,
                                 len(g.rules)))
    for rule in g.rules:
        if isinstance(rule, SeqRule):
            out.append(0)
            out += _U64.pack(len(rule.rhs))
            for sym in rule.rhs:
                out += _I64.pack(sym)
        else:
            out.append(1)
            out += _I64.pack(rule.base)
            out += _U64.pack(rule.exponent)
    return bytes(out)


def ref_decode(data: bytes) -> Grammar:
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
    rules = []
    for i in range(count):
        if pos >= len(data):
            raise FormatError(f"truncated at rule {i + 1}")
        kind = data[pos]
        pos += 1
        if kind == 0:
            if pos + 8 > len(data):
                raise FormatError(f"truncated at rule {i + 1}")
            (length,) = _U64.unpack_from(data, pos)
            pos += 8
            if pos + 8 * length > len(data):
                raise FormatError(f"truncated at rule {i + 1}")
            rules.append(SeqRule(struct.unpack_from(f"<{length}q", data,
                                                    pos)))
            pos += 8 * length
        elif kind == 1:
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
    report = ref_validate(g)
    if not report.ok:
        raise FormatError(f"rule {report.rule_index}: {report.message}")
    return g


def ref_expand(g: Grammar, rule_index: int | None = None) -> bytes:
    """Expansion of a rule (the start by default), by recursion over
    the rule objects; each rule is expanded once."""
    rules = g.rules
    done: dict[int, bytes] = {}

    def go(sym: int) -> bytes:
        if sym < 0:
            return bytes((term_byte(sym),))
        if sym not in done:
            rule = rules[sym - 1]
            if isinstance(rule, RunRule):
                done[sym] = go(rule.base) * rule.exponent
            else:
                done[sym] = b"".join(map(go, rule.rhs))
        return done[sym]

    return go(len(rules) if rule_index is None else rule_index)


def ref_prune(g: Grammar) -> Grammar:
    report = ref_validate(g)
    if not report.ok:
        where = f"rule {report.rule_index}: " if report.rule_index else ""
        raise GrammarError(where + report.message)
    rules = g.rules
    if not rules:
        return g
    m = len(rules)
    alive = [False] * (m + 1)
    alive[m] = True
    for j in range(m, 0, -1):
        if alive[j]:
            rule = rules[j - 1]
            for s in rule.rhs if isinstance(rule, SeqRule) else (rule.base,):
                if s > 0:
                    alive[s] = True
    new = [0] * (m + 1)
    kept = []
    for i, rule in enumerate(rules, start=1):
        if alive[i]:
            kept.append(rule)
            new[i] = len(kept)
    return Grammar([SeqRule(tuple(new[s] if s > 0 else s for s in r.rhs))
                    if isinstance(r, SeqRule)
                    else RunRule(new[r.base] if r.base > 0 else r.base,
                                 r.exponent)
                    for r in kept], g.alphabet_size)


def ref_slg_to_slp(g: Grammar) -> Grammar:
    """Each sequence rule x0 x1 ... xk as the left comb (x0 x1),
    (r1 x2), ..., (r(k-1) xk), the last one taking the old rule's place."""
    if all(isinstance(r, RunRule) or len(r.rhs) <= 2 for r in g.rules):
        return g
    remap: list[int] = [0] * (len(g.rules) + 1)
    out: list[SeqRule | RunRule] = []
    for i, rule in enumerate(g.rules, start=1):
        if isinstance(rule, RunRule):
            base = rule.base if rule.base < 0 else remap[rule.base]
            out.append(RunRule(base, rule.exponent))
        else:
            rhs = [s if s < 0 else remap[s] for s in rule.rhs]
            while len(rhs) > 2:
                out.append(SeqRule((rhs[0], rhs[1])))
                rhs[:2] = [len(out)]
            out.append(SeqRule(tuple(rhs)))
        remap[i] = len(out)
    return Grammar(out, g.alphabet_size)


def ref_check_factorization(fz: Factorization) -> None:
    """The checks lz_to_slg made before factorizations were arrays: one
    phrase at a time, in Python integers."""
    total = 0
    for k, (p, length) in enumerate(zip(fz.pos.tolist(), fz.length.tolist()),
                                    start=1):
        if length == 0:
            if not 0 <= p <= 255:
                raise ParseError(f"phrase {k}: literal {p} out of range")
            total += 1
            continue
        if length < 0:
            raise ParseError(f"phrase {k}: negative length {length}")
        if p < 1 or p > total:
            raise ParseError(f"phrase {k}: source {p} beyond prefix")
        total += length
    if total != fz.text_length:
        raise ParseError(f"phrases expand to {total} bytes, "
                         f"header promised {fz.text_length}")
    if total > MAX_EXPANSION:
        raise ParseError(f"text of {total} bytes exceeds 2^63-1")


def symbol_rank(sym: int) -> int:
    """Level symbol (rank) of an output-grammar symbol: terminals first
    by byte value, then grammar symbols by rule index."""
    return -sym if sym < 0 else 256 + sym


def builder_rules(builder: RlslpBuilder) -> list:
    """The rules the builder has made so far, in id order."""
    # closing on the last rule made adds no rule
    return builder.finish(builder.productions).rules


def rhs(lg, j: int) -> list[int]:
    """Right-hand side of rule j of a working grammar."""
    return lg.ent[lg.ptr[j - 1]:lg.ptr[j]].tolist()


def total_weight(pairs: PairMaps) -> int:
    return int(pairs.weight.sum())


def oriented_items(pairs: PairMaps):
    """Yield ((a, b), weight) in original text orientation, a and b
    level symbols."""
    yield from zip(zip(pairs.syms[pairs.first].tolist(),
                       pairs.syms[pairs.second].tolist()),
                   pairs.weight.tolist())


def sides(part: Partition) -> dict[int, bool]:
    """The split as a dict of symbol to side, True for left."""
    return dict(zip(part.syms.tolist(), part.left.tolist()))


def replaced_weight(pairs: PairMaps, part: Partition) -> int:
    """Total weight of the pairs a replacement pass will consume."""
    crossing = ((part.sides_of(pairs.syms[pairs.first]) == 1)
                & (part.sides_of(pairs.syms[pairs.second]) == -1))
    return int(pairs.weight[crossing].sum())


def ref_deterministic_partition(pairs: PairMaps) -> Partition:
    """Greedy split of the alphabet pairs.syms maximizing crossing
    weight, then oriented the better way round, one symbol at a time
    over a dict of neighbour weights.
    Replaced weight is at least a quarter of the total.

    Symbols are placed in rank order, each opposite the heavier side of
    its already placed neighbours; ties go left.  The split is flipped
    when the weight of the pairs it takes left to right is below that of
    the pairs right to left.
    """
    syms = sorted(int(s) for s in pairs.syms)
    near: dict[int, dict[int, int]] = {s: {} for s in syms}
    for (a, b), w in oriented_items(pairs):
        if a != b and a in near and b in near:
            near[a][b] = near[a].get(b, 0) + w
            near[b][a] = near[b].get(a, 0) + w
    left: dict[int, bool] = {}
    for s in syms:
        balance = 0
        for t, w in near[s].items():
            if t in left:
                balance += w if left[t] else -w
        # opposite the heavier side; a tie goes left
        left[s] = balance <= 0
    forward = backward = 0
    for (a, b), w in oriented_items(pairs):
        if a in left and b in left:
            if left[a] and not left[b]:
                forward += w
            elif left[b] and not left[a]:
                backward += w
    if forward < backward:
        left = {s: not x for s, x in left.items()}
    return Partition(left)


def ref_randomized_partition(alphabet, rng: random.Random) -> Partition:
    """Independent fair coin per symbol, in rank order for stable
    replay under a fixed seed."""
    return Partition({sym: bool(rng.getrandbits(1))
                      for sym in sorted(int(s) for s in alphabet)})


def ref_inline(rules: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Working grammar rules (start last) with every rule referenced
    once inlined, one rule at a time: the kept rules' right-hand sides,
    numbered by height (ties in id order), and the layer bounds."""
    m = len(rules)
    refs = [0] * (m + 1)
    for rhs in rules:
        for e in rhs:
            if e > 0:
                refs[e] += 1
    kept = [j for j in range(1, m + 1) if refs[j] != 1]
    body = {}
    for j in kept:
        out: list[int] = []
        stack = [iter(rules[j - 1])]
        while stack:
            for e in stack[-1]:
                if e > 0 and refs[e] == 1:
                    stack.append(iter(rules[e - 1]))
                    break
                out.append(e)
            else:
                stack.pop()
        body[j] = out
    height: dict[int, int] = {}
    for j in kept:
        height[j] = max((height[e] + 1 for e in body[j] if e > 0), default=0)
    order = sorted(kept, key=height.__getitem__)
    new = {j: i for i, j in enumerate(order, start=1)}
    layers = [i for i in range(len(order))
              if i == 0 or height[order[i]] != height[order[i - 1]]]
    return ([[new[e] if e > 0 else e for e in body[j]] for j in order],
            layers + [len(order)])
