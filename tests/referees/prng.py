"""Float binding sampler of the tests, the acceptance suite and the golden
corpus, beside the package's rational one.  The golden corpus draws its
truths with it, so its draws must not change."""

from __future__ import annotations

import numpy as np


def random_binding(param_ids, rng: np.random.Generator) -> dict[str, float]:
    """Magnitudes uniform in [1/4, 2], random signs; never zero."""
    out = {}
    for pid in param_ids:
        mag = float(rng.uniform(0.25, 2.0))
        out[pid] = (int(rng.integers(0, 2)) * 2 - 1) * mag
    return out
