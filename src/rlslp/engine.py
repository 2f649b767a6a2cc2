"""Grammar-level recompression engine.

Runs the same round structure as the string-level reference, but on a
straight-line grammar of the text instead of the text itself, so each
round costs time proportional to the current grammar size.  The level
string is never materialized: run replacement works on per-rule maximal
prefix/suffix runs, pair replacement on exposed boundary symbols.

The working grammar is a straight-line grammar with rules of any
length (an SLG, for which Jeż states recompression), not a binary SLP:
the import inlines every rule referenced only once, so every rule but
the start is referenced at least twice, and the rewrites keep it so.
It is stored flat: rule j's right-hand side is ent[ptr[j-1]:ptr[j]],
and an entry is either a reference to a working rule (positive) or an
encoded level symbol (negative).  A level symbol is an output-grammar
symbol: a terminal -(c+1) or a previously created rule id, encoded here
as -(256 + id).

Rules are sorted by height layer, and a rule only references rules of
lower layers, so rules of one layer never depend on each other: every
bottom-up or top-down pass is one numpy sweep per layer, as in the
level-wise processing of Jeż ("Faster fully compressed pattern matching
by recompression", TALG 2015).  A rule rewritten from a rule of layer L
only references rules rewritten from lower layers, so each rewrite
carries the layers forward instead of recomputing them.  The start rule
is alone in the top layer and is rewritten whole; every other rule
hands its boundary runs or symbols up to its parents.  A run round
whose level string has no two equal neighbours keeps the grammar as it
is.  Once the level string is no longer than the grammar, a round on
the grammar costs more than one on the string, so the engine
materializes the level string and the string engine's rounds
(`naive.string_rounds`) finish the work with the same builder and
partition source.
"""

from __future__ import annotations

import numpy as np

from .grammar import MAX_EXPANSION, Grammar, GrammarError, power, validate
from .naive import string_rounds
from .partition import (ConvergenceError, Laps, PairMaps, Partition,
                        PartitionSource, RecompressResult, RlslpBuilder,
                        RoundRecord, round_limit, round_record)


def _enc(syms: np.ndarray) -> np.ndarray:
    """Encode level symbols for storage in a working rhs."""
    return np.where(syms < 0, syms, -256 - syms)


def _dec(entries: np.ndarray) -> np.ndarray:
    return np.where(entries >= -256, entries, -256 - entries)


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


def _heights(ptr: np.ndarray, ent: np.ndarray) -> np.ndarray:
    """Height of every rule (slot 0 unused): 0 for a rule without rule
    references, else one more than its highest child.  Rules are settled
    a layer at a time, once all their children are."""
    m = len(ptr) - 1
    row = np.repeat(np.arange(1, m + 1), np.diff(ptr))
    kid = ent > 0
    child, parent = ent[kid], row[kid]
    waiting = np.bincount(parent, minlength=m + 1)
    parents = parent[np.argsort(child, kind="stable")]
    first = np.concatenate(([0], np.cumsum(np.bincount(child,
                                                       minlength=m + 1))))
    height = np.zeros(m + 1, dtype=np.int64)
    settled = (waiting[1:] == 0).nonzero()[0] + 1
    level = 0
    while len(settled):
        height[settled] = level
        up = np.sort(parents[_ranges(first[settled],
                                     first[settled + 1] - first[settled])])
        np.subtract.at(waiting, up, 1)
        up = up[_starts(up)]
        settled = up[waiting[up] == 0]
        level += 1
    return height


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


def _layered(ptr: np.ndarray, ent: np.ndarray, rules: np.ndarray,
             height: np.ndarray) -> "LevelGrammar":
    """The given rules of the flat grammar (ptr, ent), in topological
    order and closed under references, as a LevelGrammar: sorted by
    height, renumbered from 1 in that order, and cut into layers."""
    # a stable sort by height keeps the order topological
    rules = rules[np.argsort(height[rules], kind="stable")]
    remap = np.zeros(len(ptr), dtype=np.int64)
    remap[rules] = np.arange(1, len(rules) + 1)
    ent = ent[_entries_of(ptr, rules)]
    ent = np.where(ent > 0, remap[np.maximum(ent, 0)], ent)
    layers = [0] + _starts(height[rules])[1:].tolist() + [len(rules)]
    lens = ptr[rules] - ptr[rules - 1]
    return LevelGrammar(np.concatenate(([0], lens.cumsum())), ent, layers)


class LevelGrammar:
    """Working straight-line grammar over the current level alphabet.

    Rule j (1-based) has right-hand side ent[ptr[j-1]:ptr[j]].  Rules are
    sorted by height layer: layer i holds rules layers[i]+1..layers[i+1],
    and the start rule is the last rule, alone in the top layer.
    """

    __slots__ = ("ptr", "ent", "layers", "_row")

    def __init__(self, ptr: np.ndarray, ent: np.ndarray,
                 layers: list[int]) -> None:
        self.ptr = ptr
        self.ent = ent
        self.layers = layers
        self._row = None

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def rhs(self, j: int) -> list[int]:
        """Right-hand side of rule j."""
        return self.ent[self.ptr[j - 1]:self.ptr[j]].tolist()

    @property
    def row(self) -> np.ndarray:
        """Rule of every entry."""
        if self._row is None:
            self._row = np.repeat(np.arange(1, len(self) + 1),
                                  np.diff(self.ptr))
        return self._row

    def sweep(self):
        """Per layer, bottom up: (lo, hi, a, b) for rules lo+1..hi, whose
        entries are ent[a:b]."""
        ptr = self.ptr
        bounds = self.layers
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield lo, hi, int(ptr[lo]), int(ptr[hi])

    @classmethod
    def from_slp(cls, g: Grammar) -> "LevelGrammar":
        """Import a grammar, keeping only rules reachable from the start.

        A run rule Y^k becomes O(log k) binary rules by doubling; the
        level string is the text either way.  Unreachable rules would
        otherwise shed dead productions into the output and shift fresh
        symbol ids away from what the reference engine assigns for the
        same text.  A grammar that `validate` rejects, also for a rule
        the start does not reach, and one whose text is longer than
        2^63 - 1, which the int64 level lengths cannot hold, raise
        GrammarError.
        """
        report = validate(g)
        if not report.ok:
            raise GrammarError(f"rule {report.rule_index}: {report.message}")
        m = len(g)
        ent, ptr = g.ent, g.ptr
        runs = np.flatnonzero(g.run)
        if len(runs):
            ent = ent.copy()
            extra: list[int] = []

            def join(a: int, b: int) -> int:
                extra.extend((a, b))
                return m + len(extra) // 2

            at = ptr[runs]
            for j, base, exponent in zip(at.tolist(), ent[at].tolist(),
                                         ent[at + 1].tolist()):
                power(join, base, exponent & (2**64 - 1))
                # the run rule takes the place of the rule made last
                ent[j + 1] = extra.pop()
                ent[j] = extra.pop()
            ent = np.concatenate((ent, np.array(extra, dtype=np.int64)))
            ptr = np.concatenate((ptr, ptr[-1] + np.arange(2, len(extra) + 1,
                                                           2)))
        lg = _layered(ptr, ent, _reachable(ptr, ent, m).nonzero()[0],
                      _heights(ptr, ent))
        # float lengths are close enough to clear all but near-limit
        # texts, which are summed again in Python integers
        if (lg._lengths(np.float64)[-1] >= 2.0 ** 62
                and lg._lengths(object)[-1] > MAX_EXPANSION):
            raise GrammarError("expansion length of the start rule "
                               "exceeds 2^63-1")
        return lg

    def level_lengths(self) -> tuple[np.ndarray, int]:
        """Per-rule expansion length in level symbols, plus total rhs size."""
        return self._lengths(np.int64), len(self.ent)

    def _lengths(self, dtype, opened: np.ndarray | None = None
                 ) -> np.ndarray:
        """Per-rule expansion length, where an entry counts as its rule's
        length if `opened` (a mask over the entries; default: every rule
        reference) and as one symbol otherwise."""
        ent, ptr = self.ent, self.ptr
        # lengths by entry + off: the encoded level symbols -off..-1 come
        # first, with length 1, then rule j at off + j
        off = -int(ent.min())
        lengths = np.zeros(off + len(self) + 1, dtype=dtype)
        lengths[:off] = 1
        at = ent + off if opened is None else np.where(opened, ent + off, 0)
        for lo, hi, a, b in self.sweep():
            lengths[off + lo + 1:off + hi + 1] = np.add.reduceat(
                lengths[at[a:b]], ptr[lo:hi] - a)
        return lengths[off:]

    def level_string(self) -> np.ndarray:
        """Materialized level string."""
        out, _ = self.expansions(np.array([len(self)]), self.ent > 0)
        return _dec(out)

    def expansions(self, roots: np.ndarray, opened: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The right-hand sides of the root rules, concatenated in the
        order given, with every opened entry (a mask over the entries,
        set on rule references only) replaced by its rule's right-hand
        side, recursively; and the length of each.

        Rule occurrences are placed top down, a layer at a time: an
        occurrence at position p puts each entry at p plus the entry's
        offset in the rule, an opened reference into its rule's layer
        and any other entry into the output, so every occurrence is
        visited once.
        """
        ptr, ent, layers = self.ptr, self.ent, np.array(self.layers)
        lengths = self._lengths(np.int64, opened)
        width = np.where(opened, lengths[np.maximum(ent, 0)], 1)
        # offsets are differences within one rule, exact even where the
        # running sum wraps around
        before = width.cumsum() - width
        spans = lengths[roots]
        out = np.empty(int(spans.sum()), dtype=np.int64)
        # per layer: (rules, positions) of the occurrences to place
        pending = [[] for _ in layers[1:]]

        def place(rules: np.ndarray, at: np.ndarray) -> None:
            lay = np.searchsorted(layers, rules) - 1
            order = np.argsort(lay, kind="stable")
            rules, at, lay = rules[order], at[order], lay[order]
            cut = _starts(lay).tolist() + [len(lay)]
            for a, b in zip(cut[:-1], cut[1:]):
                pending[lay[a]].append((rules[a:b], at[a:b]))

        place(roots, spans.cumsum() - spans)
        for layer in reversed(range(len(pending))):
            if not pending[layer]:
                continue
            rules, at = map(np.concatenate, zip(*pending[layer]))
            first = ptr[rules - 1]
            counts = ptr[rules] - first
            entries = _ranges(first, counts)
            pos = (at - before[first]).repeat(counts) + before[entries]
            go = opened[entries]
            out[pos[~go]] = ent[entries[~go]]
            place(ent[entries[go]], pos[go])
        return out, spans


def inline(lg: LevelGrammar) -> LevelGrammar:
    """The grammar with every rule referenced once inlined.

    The start rule and the rules referenced two or more times are kept;
    every reference to another rule is replaced by that rule's
    right-hand side, recursively, so the level string stays as it was.
    The kept rules are layered again by height, as in `from_slp`.
    """
    m = len(lg)
    ent = lg.ent
    refs = np.bincount(ent[ent > 0], minlength=m + 1)
    once = refs == 1
    if not once.any():
        return lg
    kept = (~once[1:]).nonzero()[0] + 1
    ent, spans = lg.expansions(kept, once[np.maximum(ent, 0)] & (ent > 0))
    # number the kept rules in id order, which is topological, to find
    # their heights
    k = len(kept)
    remap = np.zeros(m + 1, dtype=np.int64)
    remap[kept] = np.arange(1, k + 1)
    ent = np.where(ent > 0, remap[np.maximum(ent, 0)], ent)
    ptr = np.concatenate(([0], spans.cumsum()))
    return _layered(ptr, ent, np.arange(1, k + 1), _heights(ptr, ent))


def _rewrite(lg: LevelGrammar, own: tuple, step, add) -> LevelGrammar:
    """Bottom-up rewrite shared by run and pair replacement.

    An atom is a (val, key, flag) triple.  Every entry of a rule yields
    atoms: its own atom for a level symbol (`own`, each field an array
    over the entries or one value for all), or the atoms a child handed
    up.  `step(val, key, flag, row, start)` rewrites the atoms of a
    layer's rules locally (row: the rule of each atom) and returns them
    with every rule's first and last atom and whether those move up to
    the parents (never for the start rule); the remaining inner atoms
    must then be entries of the next grammar: a final entry with key 0,
    or a pending rule key (val, key) whose id `add` assigns once the
    round's keys are all known.  Inner atoms two or more wide become a
    new rule, and the parents get a reference to it in their place;
    narrower ones move up as they are.
    """
    m = len(lg)
    ent, row = lg.ent, lg.row
    size = len(ent)
    # an entry reads its atoms from a slot: a child's slot holds the
    # atoms the child handed up (at most three), slot m + 1 + i the own
    # atom of entry i; slot j's atoms are store[beg[j]:beg[j] + count[j]]
    slot = np.where(ent > 0, ent, np.arange(m + 1, m + 1 + size))
    beg = np.zeros(m + 1 + size, dtype=np.int64)
    beg[m + 1:] = np.arange(size)
    count = np.ones(m + 1 + size, dtype=np.int8)
    store = [np.empty(size + 3 * m, dtype=np.asarray(x).dtype) for x in own]
    for arr, x in zip(store, own):
        arr[:size] = x
    val, key, flag = store
    free = size
    vals, keys, widths, counts = [], [], [], []
    made = 0
    for lo, hi, a, b in lg.sweep():
        c = count[slot[a:b]]
        at = _ranges(beg[slot[a:b]], c)
        start = hi == m
        v, y, f, first, last, pop_l, pop_r = step(
            val[at], key[at], flag[at], row[a:b].repeat(c), start)
        n = last - first + 1
        width = n - pop_l - pop_r
        make = width >= 2
        if start:
            make[:] = True
        new = make.nonzero()[0]
        inner = _inner(make, n, first, last, pop_l, pop_r)
        vals.append(v[inner])
        keys.append(y[inner])
        widths.append(width[new])
        counts.append(len(new))
        if start:
            break
        # a new rule hands up a reference in place of its inner atoms
        mid = first[new] + pop_l[new]
        v[mid] = made + 1 + np.arange(len(new))
        y[mid] = 0
        f[mid] = 0
        made += len(new)
        inner[mid] = False
        up = (~inner).nonzero()[0]
        for arr, x in zip(store, (v, y, f)):
            arr[free:free + len(up)] = x[up]
        handed = n - (width - 1) * make
        beg[lo + 1:hi + 1] = free + handed.cumsum() - handed
        count[lo + 1:hi + 1] = handed
        free += len(up)
    return _next_grammar(vals, keys, widths, counts, add)


def _next_grammar(vals, keys, widths, counts, add) -> LevelGrammar:
    """Assemble the rewritten grammar from per-layer pieces.

    An entry with a nonzero key is a pending (vals, keys) rule key,
    replaced here by the encoded id the builder assigns to it.
    """
    val = np.concatenate(vals)
    key = np.concatenate(keys)
    pending = key.nonzero()[0]
    val[pending] = _enc(add(val[pending], key[pending]))
    lens = np.concatenate(widths)
    sizes = np.array(counts)
    layers = np.concatenate(([0], np.cumsum(sizes[sizes > 0]))).tolist()
    return LevelGrammar(np.concatenate(([0], np.cumsum(lens))), val, layers)


def _bounds(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last atom of every rule, for atoms grouped by rule."""
    first = _starts(r)
    return first, np.concatenate((first[1:], [len(r)])) - 1


def _inner(keep, n, first: np.ndarray, last: np.ndarray,
           pop_l: np.ndarray, pop_r: np.ndarray) -> np.ndarray:
    """Mask of the atoms that stay in their rule: all atoms of rules with
    keep set (per rule, or one value for all; n atoms each) except the
    popped first and last ones, which move up."""
    inner = np.asarray(keep).repeat(n)
    inner[first[pop_l]] = False
    inner[last[pop_r]] = False
    return inner


def _merge_runs(sym, run, block, r, start):
    """bcomp step: atoms are runs (block true: symbol, length) or child
    caps (entries); adjacent runs of one symbol inside a rule merge, and
    a rule's first and last runs move up."""
    join = (block[1:] & block[:-1] & (sym[1:] == sym[:-1])
            & (r[1:] == r[:-1]))
    gs = np.concatenate(([True], ~join)).nonzero()[0]
    sym, block = sym[gs], block[gs]
    run = np.add.reduceat(run, gs)
    first, last = _bounds(r[gs])
    pop_l = np.empty(len(first), dtype=bool)
    pop_l[:] = not start
    pop_r = pop_l & (last > first)
    # inner runs become entries: one symbol plain, longer ones pending
    inner = _inner(True, len(sym), first, last, pop_l, pop_r)
    plain = inner & block & (run == 1)
    sym[plain] = _enc(sym[plain])
    run[plain] = 0
    block[inner] = False
    return sym, run, block, first, last, pop_l, pop_r


def bcomp(lg: LevelGrammar, builder: RlslpBuilder) -> LevelGrammar:
    """One run-replacement round on the working grammar.

    Per rule, bottom up: the level expansion is a maximal prefix run, a
    cap and a maximal suffix run.  A rule's atoms are its own symbols
    and, per child, the child's prefix run, cap and suffix run (a child
    that is one run gives just that run); adjacent runs of one symbol
    merge.  The rule's first and last merged runs are its boundary runs,
    which its parents absorb; the atoms between them form its cap, a new
    rule when two or more entries wide.  Every maximal run of the level
    string therefore lies in some cap or in the start rule, which keeps
    all its atoms, so run rules are created from those places only.

    Two neighbours of the level string are equal only where some rule
    has adjacent entries whose expansions end and begin with the same
    symbol; every rule is reachable, so without such entries the round
    makes no rule and the grammar is returned as it is.
    """
    first, last = _entry_ends(lg)
    row = lg.row
    if not ((last[:-1] == first[1:]) & (row[1:] == row[:-1])).any():
        return lg
    return _rewrite(lg, (_dec(lg.ent), 1, True), _merge_runs,
                    builder.add_runs)


def compute_nocc(lg: LevelGrammar) -> np.ndarray:
    """How often each rule occurs in the derivation of the start symbol.

    Occurrence counts flow from the start rule down, layer by layer,
    weighted by how often a rule mentions its child; a layer's counts
    are final once every higher layer has been passed.
    """
    m = len(lg)
    occ = np.zeros(m + 1, dtype=np.int64)
    occ[m] = 1
    ent, row = lg.ent, lg.row
    for lo, hi, a, b in reversed(list(lg.sweep())):
        e = ent[a:b]
        kid = e > 0
        np.add.at(occ, e[kid], occ[row[a:b][kid]])
    return occ


def _entry_ends(lg: LevelGrammar) -> tuple[np.ndarray, np.ndarray]:
    """First and last level symbol of every entry's expansion."""
    m = len(lg)
    ent, ptr = lg.ent, lg.ptr
    # by entry + off: a level symbol is its own, a rule's comes from its
    # first (last) entry
    off = -int(ent.min())
    lms = np.concatenate((_dec(np.arange(-off, 0)),
                          np.zeros(m + 1, dtype=np.int64)))
    rms = lms.copy()
    firsts = ent[ptr[:-1]] + off
    lasts = ent[ptr[1:] - 1] + off
    for lo, hi, _a, _b in lg.sweep():
        lms[off + lo + 1:off + hi + 1] = lms[firsts[lo:hi]]
        rms[off + lo + 1:off + hi + 1] = rms[lasts[lo:hi]]
    at = ent + off
    return lms[at], rms[at]


def collect_pair_frequencies(lg: LevelGrammar, occ: np.ndarray
                             ) -> tuple[PairMaps, np.ndarray]:
    """Weighted boundary pairs of all reachable rules, and the alphabet
    in symbol_rank order.

    Every adjacent position of the level string crosses exactly one rule
    boundary (at the lowest rule spanning it), so summing boundary pairs
    weighted by rule occurrences counts each adjacency exactly once.
    """
    ent, row = lg.ent, lg.row
    first, last = _entry_ends(lg)
    weight = occ[row]
    # adjacent entries of one reachable rule
    inner = (weight[:-1] > 0) & (row[1:] == row[:-1])
    maps = PairMaps()
    maps.add_arrays(last[:-1][inner], first[1:][inner], weight[:-1][inner])
    # an encoded level symbol's symbol_rank is -entry
    ranks = np.bincount(-ent[(ent < 0) & (weight > 0)]).nonzero()[0]
    return maps, _dec(-ranks)


def _pair_up(val, key, side, r, start):
    """pcomp step: atoms are level symbols (entry-coded, with their side
    in the partition), pending pairs and references.  A left symbol
    followed by a right one inside a rule becomes a pending pair; a
    rule's first symbol moves up if right, its last if left."""
    starts = ((side[:-1] == 1) & (side[1:] == -1)
              & (r[:-1] == r[1:])).nonzero()[0]
    if len(starts):
        key[starts] = _dec(val[starts + 1])
        val[starts] = _dec(val[starts])
        side[starts] = 0
        alive = np.ones(len(r), dtype=bool)
        alive[starts + 1] = False
        val, key, side, r = val[alive], key[alive], side[alive], r[alive]
    first, last = _bounds(r)
    if start:
        pop_l = pop_r = np.zeros(1, dtype=bool)
    else:
        pop_l = side[first] == -1
        pop_r = (side[last] == 1) & (last - first + 1 > pop_l)
    return val, key, side, first, last, pop_l, pop_r


def pcomp(lg: LevelGrammar, part: Partition, builder: RlslpBuilder
          ) -> LevelGrammar:
    """One pair-replacement round on the working grammar.

    Each rule is rewritten over exposed atoms: its own level symbols,
    and per child the stripped boundary symbols around an opaque middle.
    A left-side first symbol or right-side last symbol can only combine
    across the rule boundary, so it moves up to the parent; everything
    else is settled locally.  Candidate pairs never overlap (a symbol is
    on one side only), so all of them are replaced at once.
    """
    ent = lg.ent
    side = np.where(ent < 0, part.sides_of(_dec(ent)), 0)
    return _rewrite(lg, (ent, 0, side.astype(np.int8)), _pair_up,
                    builder.add_pairs)


def recompress(slp: Grammar, strategy: str = "mixed", seed: int = 42,
               source: PartitionSource | None = None,
               collect_trace: bool = False) -> RecompressResult:
    """Run-length grammar of the text a grammar expands to.

    Alternates run and pair replacement on the working grammar while
    its level string is longer than the grammar, then on the level
    string itself until that is a single symbol; that symbol, wrapped
    if needed, becomes the start of the accumulated output grammar.
    """
    if not len(slp):
        raise GrammarError("cannot recompress an empty grammar")
    lg = inline(LevelGrammar.from_slp(slp))
    lengths, size = lg.level_lengths()
    length = int(lengths[-1])
    if source is None:
        source = PartitionSource(strategy, seed)
    builder = RlslpBuilder()
    records: list[RoundRecord] = []
    trace: list[np.ndarray] | None = [] if collect_trace else None
    limit = round_limit(length)
    round_no = 0
    while length > 1 and length > size:
        if round_no >= limit:
            raise ConvergenceError(f"no convergence within {limit} phases")
        laps = Laps()
        before, made = length, builder.productions
        if round_no % 2 == 0:
            lg = bcomp(lg, builder)
        else:
            occ = compute_nocc(lg)
            laps.lap("nocc_s")
            pairs, alphabet = collect_pair_frequencies(lg, occ)
            laps.lap("pair_count_s")
            part = source.next_partition(pairs, alphabet)
            laps.lap("partition_s")
            lg = pcomp(lg, part, builder)
        laps.lap("rewrite_s")
        lengths, size = lg.level_lengths()
        laps.lap("level_lengths_s")
        length = int(lengths[-1])
        records.append(round_record(round_no, before, length,
                                    builder.productions - made, size, laps))
        if trace is not None:
            trace.append(lg.level_string())
        round_no += 1
    s = lg.level_string()
    del lg, lengths  # free the grammar for the string rounds
    final = string_rounds(s, round_no, builder, source, records, trace,
                          limit)
    return RecompressResult(builder.finish(final), records, source.log,
                            trace)
