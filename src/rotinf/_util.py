"""Seed derivation and read-only array helpers."""

from __future__ import annotations

import numpy as np


def rng_for(seed, *key):
    """Generator for a (seed, key...) stream; identical across platforms and runs."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def child_seed(seed, *key):
    """Derive an integer sub-seed, for handing a whole stream to a sub-task."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def readonly_array(values, dtype=float):
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out
