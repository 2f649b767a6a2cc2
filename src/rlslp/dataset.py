"""Repetitive dataset generation.

Test inputs are built the way large repetitive corpora behave: a base
text is duplicated up to the target size, then hit with independent
point mutations.  Outputs for growing sizes under one seed form a
prefix chain, so a small run is literally a prefix of a bigger one.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

_SAMPLE = "data/sample.txt"
# mask draws per step, so the float64 buffer stays at 8 MiB
_CHUNK = 1 << 20


def load_sample() -> bytes:
    """Bundled DNA-like sample used as the default generator base."""
    return resources.files("rlslp").joinpath(_SAMPLE).read_bytes()


def gen_dataset(base: bytes, target_size: int, mutation_rate: float = 0.0,
                seed: int = 42) -> bytes:
    """Duplicate base to target_size bytes, then mutate positions.

    Each position independently mutates with probability mutation_rate
    into a uniformly random different symbol of base's alphabet.  Masks
    and replacement choices come from two seeded substreams consumed
    position by position, which is what makes the prefix property hold:
    gen_dataset(b, s, r, seed) == gen_dataset(b, 2 * s, r, seed)[:s].
    """
    if not base:
        raise ValueError("base text must be nonempty")
    if target_size < len(base):
        raise ValueError("target_size must be at least the base length")
    if not 0.0 <= mutation_rate <= 1.0:
        raise ValueError("mutation_rate must lie in [0, 1]")
    arr = np.frombuffer(base, dtype=np.uint8)
    reps = -(-target_size // len(base))
    text = np.tile(arr, reps)[:target_size].copy()
    if mutation_rate > 0.0 and target_size > 0:
        mask_seq, choice_seq = np.random.SeedSequence(seed).spawn(2)
        draw = np.random.default_rng(mask_seq).random
        at = np.concatenate([
            np.flatnonzero(draw(min(_CHUNK, target_size - lo))
                           < mutation_rate) + lo
            for lo in range(0, target_size, _CHUNK)])
        hits = len(at)
        alpha = np.unique(arr)
        if hits and len(alpha) > 1:
            sigma = len(alpha)
            lut = np.zeros(256, dtype=np.int64)
            lut[alpha] = np.arange(sigma)
            draws = np.random.default_rng(choice_seq).random(hits)
            # shift in [1, sigma-1] guarantees an actual change
            shift = 1 + np.floor(draws * (sigma - 1)).astype(np.int64)
            text[at] = alpha[(lut[text[at]] + shift) % sigma]
    return text.tobytes()
