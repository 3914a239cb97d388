"""Deterministic random streams and the rational binding sampler.

A single user-facing seed fans out into independent, label-addressed
streams so that adding one more draw in one place never shifts any other
stream.
"""

from __future__ import annotations

import zlib
from fractions import Fraction

import numpy as np


def spawn_rng(seed: int, *labels: object) -> np.random.Generator:
    """Independent generator for (seed, labels); stable across platforms."""
    entropy = [int(seed) & 0xFFFFFFFF]
    entropy += [zlib.crc32(str(label).encode("utf8")) for label in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def rational_binding(param_ids, rng: np.random.Generator) -> dict[str, Fraction]:
    """Exact-rational bindings: magnitudes in [1/4, 2] on denominator 16,
    random signs."""
    out = {}
    for pid in param_ids:
        num = int(rng.integers(4, 33))
        out[pid] = Fraction((int(rng.integers(0, 2)) * 2 - 1) * num, 16)
    return out
