"""Test-only reference for the sampled batteries.

`random_ordered_pair` is the scalar draw that `simplex.harnack_battery` reads
in blocks from the raw generator stream: each call is one ordered pair drawn
through numpy's `Generator` methods, so a block draw must give the pairs of
successive calls bit for bit.
"""
import numpy as np


def random_ordered_pair(rng, dim: int, box_top: float) -> tuple[np.ndarray, np.ndarray]:
    """Strictly ordered pair with a common support inside the box."""
    x = rng.uniform(1e-6, box_top, dim)
    if dim > 1 and rng.random() < 0.3:
        mask = rng.random(dim) < 0.5
        if not mask.any():
            mask[int(rng.integers(dim))] = True
        x[~mask] = 0.0
    support = x > 0.0
    y = x.copy()
    room = box_top - x[support]
    y[support] = x[support] + rng.uniform(0.0, 1.0, int(support.sum())) * room * 0.999 + 1e-9
    y = np.minimum(y, box_top)
    return x, y
