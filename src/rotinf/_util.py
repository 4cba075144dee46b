"""Seed derivation, read-only array and count-check helpers."""

from __future__ import annotations

import numbers

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


def positive_int(name: str, value) -> int:
    """An integer parameter of at least 1, refused with its name otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    return int(value)
