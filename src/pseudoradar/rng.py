"""Counter-based random streams: every seeded stage draws from one of these."""

from __future__ import annotations

import numpy as np


def philox(seed: int, stream: int) -> np.random.Generator:
    """Philox stream keyed by (seed, stream): portable and order-free."""
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
