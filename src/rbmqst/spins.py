"""Spin/bit conventions and configuration enumeration.

Convention used everywhere in this package: spin +1 maps to bit 0, spin -1
to bit 1, and qubit 0 is the leftmost / most significant bit of a basis
index. A configuration is a vector of +-1 floats.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def _all_configs_cached(n: int) -> np.ndarray:
    idx = np.arange(2**n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1
    configs = (1.0 - 2.0 * bits).astype(np.float64)
    configs.setflags(write=False)
    return configs

def all_configs(n: int) -> np.ndarray:
    """All 2^n spin configurations, row k = configuration with basis index k.

    The returned array is cached and read-only; copy before mutating.
    """
    if n < 0:
        raise ValueError("negative qubit count")
    return _all_configs_cached(n)

def configs_to_indices(configs: np.ndarray) -> np.ndarray:
    """Basis indices of +-1 configurations (rows)."""
    configs = np.asarray(configs)
    n = configs.shape[-1]
    bits = (configs < 0).astype(np.int64)
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    return bits @ weights

def indices_to_configs(indices: np.ndarray, n: int) -> np.ndarray:
    """Inverse of configs_to_indices."""
    idx = np.asarray(indices, dtype=np.int64)
    bits = (idx[..., None] >> np.arange(n - 1, -1, -1)) & 1
    return (1.0 - 2.0 * bits).astype(np.float64)
