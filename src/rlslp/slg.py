"""Factorization-to-grammar conversion and grammar pruning.

lz_to_slg turns an LZ factorization into a straight-line grammar by
keeping a height-balanced concatenation tree over the processed prefix;
every phrase is materialized from O(log n) existing nodes, and only the
rules reachable from the final root are emitted.  prune_slp validates a
grammar and keeps the rules its start reaches, which is all of
lz_to_slg's output; the engine admits every grammar through it.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat

import numpy as np

from .grammar import (MAX_ALPHABET, Grammar, SeqRule, _check_valid,
                      _reachable, power)
from .lz import Factorization, check_factorization

# symbol x is stored at index x + _T of the builder's lists: terminals
# -256..-1 at 0..255, rule r at 256 + r
_T = MAX_ALPHABET
# a pair of symbols (a, b) is keyed as (a + _T) << _KEY | (b + _T)
_KEY = 32
_LOW = (1 << _KEY) - 1


class _Builder:
    """Binary concatenation rules with hash-consing and AVL balancing.

    Nodes are symbol ids: negative terminals (height 0, length 1) or
    1-based rule ids.  Joins keep the AVL criterion, sibling heights
    differ by at most one, so node height stays O(log length).  Children,
    heights and lengths are flat lists indexed by node + 256, terminals
    included, so no lookup needs a branch.
    """

    def __init__(self) -> None:
        self.left = [0] * (_T + 1)
        self.right = [0] * (_T + 1)
        self.height = [0] * (_T + 1)
        self.length = [1] * _T + [0]
        self.dedup: dict[int, int] = {}

    def node(self, a: int, b: int) -> int:
        key = (a + _T) << _KEY | (b + _T)
        found = self.dedup.get(key)
        if found is not None:
            return found
        left = self.left
        rid = len(left) - _T
        self.dedup[key] = rid
        left.append(a)
        self.right.append(b)
        h = self.height
        ha, hb = h[a + _T], h[b + _T]
        h.append((ha if ha > hb else hb) + 1)
        n = self.length
        n.append(n[a + _T] + n[b + _T])
        return rid

    def join(self, a: int, b: int) -> int:
        h = self.height
        ha, hb = h[a + _T], h[b + _T]
        if ha > hb + 1:
            return self._join_right(a, b)
        if hb > ha + 1:
            return self._join_left(a, b)
        return self.node(a, b)

    def _join_right(self, a: int, b: int) -> int:
        # pre: height(a) >= height(b) + 2, so a is an internal node.
        # Descend a's right spine to the first node whose right child is
        # low enough, attach b there, and rebalance on the way back up.
        h, left, right, node = self.height, self.left, self.right, self.node
        top = h[b + _T] + 1
        path = []
        while h[right[a + _T] + _T] > top:
            path.append(left[a + _T])
            a = right[a + _T]
        al, ar = left[a + _T], right[a + _T]
        t = node(ar, b)
        if h[t + _T] <= h[al + _T] + 1:
            t = node(al, t)
        else:
            t = node(node(al, left[ar + _T]), node(right[ar + _T], b))
        while path:
            al = path.pop()
            if h[t + _T] <= h[al + _T] + 1:
                t = node(al, t)
            else:
                t = node(node(al, left[t + _T]), right[t + _T])
        return t

    def _join_left(self, a: int, b: int) -> int:
        # mirror image of _join_right: descend b's left spine
        h, left, right, node = self.height, self.left, self.right, self.node
        top = h[a + _T] + 1
        path = []
        while h[left[b + _T] + _T] > top:
            path.append(right[b + _T])
            b = left[b + _T]
        bl, br = left[b + _T], right[b + _T]
        t = node(a, bl)
        if h[t + _T] <= h[br + _T] + 1:
            t = node(t, br)
        else:
            t = node(node(a, left[bl + _T]), node(right[bl + _T], br))
        while path:
            br = path.pop()
            if h[t + _T] <= h[br + _T] + 1:
                t = node(t, br)
            else:
                t = node(left[t + _T], node(right[t + _T], br))
        return t

    def extract(self, x: int, lo: int, hi: int) -> int:
        """Node expanding to positions [lo, hi) of x's expansion."""
        n, left, right = self.length, self.left, self.right
        while True:
            if lo == 0 and hi == n[x + _T]:
                return x
            a, b = left[x + _T], right[x + _T]
            mid = n[a + _T]
            if hi <= mid:
                x = a
            elif lo >= mid:
                x = b
                lo -= mid
                hi -= mid
            else:
                return self.join(self.extract(a, lo, mid),
                                 self.extract(b, 0, hi - mid))

    def nodes(self, a: np.ndarray, b: np.ndarray, height: int) -> np.ndarray:
        """node(a[i], b[i]) for every i, all of the given height and with
        children of equal height: one np.unique over the packed pairs."""
        keys, inv = np.unique((a + _T) << _KEY | (b + _T),
                              return_inverse=True)
        ids = np.fromiter(map(self.dedup.get, keys.tolist(), repeat(0)),
                          dtype=np.int64, count=len(keys))
        new = np.flatnonzero(ids == 0)
        if len(new):
            ids[new] = np.arange(len(self.left) - _T,
                                 len(self.left) - _T + len(new))
            fresh = keys[new]
            self.dedup.update(zip(fresh.tolist(), ids[new].tolist()))
            self.left.extend(((fresh >> _KEY) - _T).tolist())
            self.right.extend(((fresh & _LOW) - _T).tolist())
            self.height.extend(repeat(height, len(new)))
            self.length.extend(repeat(1 << height, len(new)))
        return ids[inv]

    def literal_runs(self, leaves: np.ndarray, counts: np.ndarray
                     ) -> list[int]:
        """Tree of each run of literals, for runs of counts[r] leaves laid
        end to end in leaves.

        Pairing neighbours level by level, with an odd last item carried
        up, makes of a run of k leaves the perfect blocks given by the
        binary digits of k, largest first, joined right to left.  The
        blocks of every run are built together, one level at a time; the
        block of size 2^j is a run's last full group of level j.
        """
        runs, blocks = [], []
        cur, cnt = leaves, counts
        height = 0
        while True:
            ends = np.cumsum(cnt)
            odd = np.flatnonzero(cnt & 1)
            runs.append(odd)
            blocks.append(cur[ends[odd] - 1])
            half = cnt >> 1
            if not half.any():
                break
            # without the odd last entries, each run pairs up neighbours
            keep = np.ones(len(cur), dtype=bool)
            keep[ends[odd] - 1] = False
            pairs = cur[keep].reshape(-1, 2)
            height += 1
            cur = self.nodes(pairs[:, 0], pairs[:, 1], height)
            cnt = half
        # per run, smallest block first: each larger one joins on the left
        runs = np.concatenate(runs)
        # stable: a run's blocks were listed smallest first, and must stay so
        order = np.argsort(runs, kind="stable")
        trees = [0] * len(counts)
        for r, x in zip(runs[order].tolist(),
                        np.concatenate(blocks)[order].tolist()):
            t = trees[r]
            trees[r] = x if t == 0 else self.join(x, t)
        return trees

    def live_grammar(self, root: int) -> Grammar:
        """The rules reachable from root, renumbered in creation order;
        root, made after all of them, comes last."""
        if root < 0:
            return Grammar([SeqRule((root,))])
        ent = np.empty(2 * root, dtype=np.int64)
        ent[0::2] = self.left[_T + 1:_T + 1 + root]
        ent[1::2] = self.right[_T + 1:_T + 1 + root]
        return _live(Grammar.from_arrays(ent, np.arange(0, 2 * root + 1, 2),
                                         np.zeros(root, dtype=bool)))


class _Root:
    """The concatenation tree of the text so far, appended to by AVL joins.

    The tree is kept as its right spine: root = s_0 with s_i =
    spine[i] . s_{i+1} for every level but the last, and s_k = spine[k].
    Every spine[i] is a node, starts[i] is its offset in the text and
    hts[i] is the height of s_i.  The suffix trees s_i are nodes only
    once something needs them whole (collapse); an append rebuilds the
    spine below the join point and rebalances upwards exactly as
    _Builder.join would, but the spine nodes above, which the next
    append would replace again, are never made.
    """

    def __init__(self, b: _Builder) -> None:
        self.b = b
        self.spine: list[int] = []
        self.starts: list[int] = []
        self.hts: list[int] = []
        self.total = 0

    def collapse(self, i: int) -> int:
        """s_i as a node; the levels from i down become that one node."""
        spine, node = self.spine, self.b.node
        t = spine[-1]
        for j in range(len(spine) - 2, i - 1, -1):
            t = node(spine[j], t)
        spine[i] = t
        del spine[i + 1:], self.starts[i + 1:], self.hts[i + 1:]
        return t

    def append(self, x: int) -> None:
        """root = join(root, x)."""
        b = self.b
        h = b.height
        hx = h[x + _T]
        spine, hts = self.spine, self.hts
        if not spine:
            spine.append(x)
            self.starts.append(0)
            hts.append(hx)
        elif hts[0] > hx + 1:
            self._attach(x, hx)
        elif hx > hts[0] + 1:
            t = b._join_left(self.collapse(0), x)
            spine[0] = t
            hts[0] = h[t + _T]
        else:
            # root . x is balanced as it stands
            self.collapse(0)
            spine.append(x)
            self.starts.append(self.total)
            hts[0] = (hts[0] if hts[0] > hx else hx) + 1
            hts.append(hx)
        self.total += b.length[x + _T]

    def _attach(self, x: int, hx: int) -> None:
        # _Builder._join_right(root, x) on the spine: x goes below the
        # deepest level i taller than hx + 1, whose right subtree s_{i+1}
        # must be a node
        b = self.b
        h, left, right, n, node = b.height, b.left, b.right, b.length, b.node
        spine, starts, hts = self.spine, self.starts, self.hts
        top = hx + 1
        k = len(spine) - 1
        if hts[k] > top:
            # descend the last node's right spine, which exists
            y = spine[k]
            while hts[-1] > top:
                spine[-1] = left[y + _T]
                y = right[y + _T]
                starts.append(starts[-1] + n[spine[-1] + _T])
                spine.append(y)
                hts.append(h[y + _T])
            i = len(spine) - 2
        else:
            i = k - 1
            while hts[i] <= top:
                i -= 1
            if i + 1 < k:
                self.collapse(i + 1)
        al, ar = spine[i], spine[i + 1]
        ha, har = h[al + _T], h[ar + _T]
        ht = (har if har > hx else hx) + 1
        if ht > ha + 1:
            # (al . ar.left) . (ar.right . x)
            al = spine[i] = node(al, left[ar + _T])
            ar = spine[i + 1] = right[ar + _T]
            starts[i + 1] = starts[i] + n[al + _T]
            ha, har = h[al + _T], h[ar + _T]
            ht = (har if har > hx else hx) + 1
        hts[i + 1] = ht
        hts[i] = (ha if ha > ht else ht) + 1
        spine.append(x)
        starts.append(self.total)
        hts.append(hx)
        # rebalance upwards until a level keeps its height
        for j in range(i - 1, -1, -1):
            al, ht = spine[j], hts[j + 1]
            ha = h[al + _T]
            if ht > ha + 1:
                # (al . s_{j+1}.left) . s_{j+1}.right: levels j, j+1 merge
                al = spine[j] = node(al, spine[j + 1])
                del spine[j + 1], starts[j + 1], hts[j + 1]
                ha, ht = h[al + _T], hts[j + 1]
            elif (ha if ha > ht else ht) + 1 == hts[j]:
                break
            hts[j] = (ha if ha > ht else ht) + 1

    def extract(self, lo: int, hi: int) -> int:
        """Node expanding to positions [lo, hi) of the text so far."""
        return self._extract(bisect_right(self.starts, lo) - 1, lo, hi)

    def _extract(self, i: int, lo: int, hi: int) -> int:
        # pre: starts[i] <= lo < starts[i + 1]
        spine, starts = self.spine, self.starts
        start = starts[i]
        if i == len(spine) - 1 or hi <= starts[i + 1]:
            return self.b.extract(spine[i], lo - start, hi - start)
        if lo == start and hi == self.total:
            return self.collapse(i)
        end = starts[i + 1]
        return self.b.join(self.b.extract(spine[i], lo - start, end - start),
                           self._extract(i + 1, end, hi))


def lz_to_slg(fz: Factorization) -> Grammar:
    """Straight-line grammar (binary rules) expanding to the parsed text.

    Phrases are appended to one AVL concatenation tree (Rytter, TCS
    2003), each maximal run of literals as one balanced tree built in
    bulk.  Only the rules reachable from the final root are returned, so
    the grammar has no dead rules, chains or duplicate right-hand sides.
    """
    check_factorization(fz)
    lit = fz.length == 0
    head = lit & ~np.concatenate(([False], lit[:-1]))
    tail = lit & ~np.concatenate((lit[1:], [False]))
    counts = np.flatnonzero(tail) - np.flatnonzero(head) + 1
    b = _Builder()
    runs = iter(b.literal_runs(-1 - fz.pos[lit], counts))
    root = _Root(b)
    at = np.flatnonzero(head | ~lit)
    for src, length in zip(fz.pos[at].tolist(), fz.length[at].tolist()):
        if length == 0:
            root.append(next(runs))
            continue
        src -= 1
        window = root.total - src
        if length <= window:
            root.append(root.extract(src, src + length))
        else:
            # overlapping phrase: the content is periodic with period
            # `window`
            period = root.extract(src, root.total)
            reps, rest = divmod(length, window)
            root.append(power(b.join, period, reps))
            if rest:
                root.append(root.extract(src, src + rest))
    if not root.spine:
        return Grammar()
    return b.live_grammar(root.collapse(0))


def _live(g: Grammar) -> Grammar:
    """The rules of g that its start reaches, in their order and
    renumbered from 1; g itself if that is every rule."""
    sym = g.symbol_mask()
    # a run's exponent is not a symbol: read it as 0
    ent = np.where(sym, g.ent, 0) if g.run.any() else g.ent
    alive = _reachable(g.ptr, ent, len(g))
    live = alive[1:]
    if live.all():
        return g
    keep = np.repeat(live, np.diff(g.ptr))
    ent = g.ent[keep]
    ref = sym[keep] & (ent > 0)
    ent[ref] = np.cumsum(alive)[ent[ref]]
    ptr = np.concatenate(([0], np.cumsum(np.diff(g.ptr)[live])))
    return Grammar.from_arrays(ent, ptr, g.run[live], g.alphabet_size)


def prune_slp(g: Grammar) -> Grammar:
    """The rules the start reaches, in their order and renumbered.

    A grammar that `validate` rejects, also for a rule the start does
    not reach, raises GrammarError, naming the rule if the fault is in
    one.  A grammar whose rules are all reachable, such as every one
    lz_to_slg makes, is returned as it is.
    """
    _check_valid(g)
    return _live(g) if len(g) else g
