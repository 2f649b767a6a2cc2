"""Shared corpus builders for the test suite, and a look into the
expansion memo."""

from __future__ import annotations

import random

from rlslp import grammar
from rlslp.grammar import Grammar, RunRule, SeqRule


def random_text(rng: random.Random, max_len: int = 2000,
                alphabets=(1, 2, 4, 256)) -> bytes:
    sigma = rng.choice(alphabets)
    n = rng.randint(1, max_len)
    return bytes(rng.randrange(sigma) for _ in range(n))


def mutated_text(rng: random.Random, base_len: int, total_len: int) -> bytes:
    """Repetitive text: seeded base repeated with sparse point edits."""
    base = bytes(rng.randrange(4) for _ in range(base_len))
    reps = -(-total_len // base_len)
    buf = bytearray(base * reps)
    del buf[total_len:]
    for _ in range(max(1, total_len // 200)):
        buf[rng.randrange(total_len)] = rng.randrange(4)
    return bytes(buf)


def random_seq_grammar(rng: random.Random, max_rules: int = 12,
                       max_rhs: int = 5, sigma: int = 4) -> Grammar:
    """Valid sequence-only grammar with references to earlier rules."""
    m = rng.randint(1, max_rules)
    rules = []
    for i in range(1, m + 1):
        k = rng.randint(1, max_rhs)
        rhs = []
        for _ in range(k):
            if i > 1 and rng.random() < 0.5:
                rhs.append(rng.randint(1, i - 1))
            else:
                rhs.append(-(rng.randrange(sigma) + 1))
        rules.append(SeqRule(tuple(rhs)))
    return Grammar(rules)


def random_rlslp(rng: random.Random, max_rules: int = 12,
                 sigma: int = 4) -> Grammar:
    """Valid grammar mixing sequence and run rules."""
    m = rng.randint(1, max_rules)
    rules = []
    for i in range(1, m + 1):
        def sym():
            if i > 1 and rng.random() < 0.5:
                return rng.randint(1, i - 1)
            return -(rng.randrange(sigma) + 1)
        if rng.random() < 0.3:
            rules.append(RunRule(sym(), rng.randint(2, 5)))
        else:
            rules.append(SeqRule(tuple(sym()
                                       for _ in range(rng.randint(1, 4)))))
    return Grammar(rules)


def memo_sizes(g: Grammar) -> dict[int, int]:
    """Expansion length of every rule the expansion memoizes, by rule id,
    under the module's current budget."""
    _, memo = grammar._expansions(g.ent.tolist(), g.ptr.tolist(),
                                  g.run.tolist(), grammar._MEMO_BUDGET)
    return {i: len(x) for i, x in enumerate(memo[1:len(g) + 1], start=1)
            if x is not None}
