"""Deterministic counter-based random streams.

Every sample path owns a Philox generator keyed by a hash of
(seed, path index), so the values drawn for a given path never depend
on batch size or evaluation order.  Child seeds for experiment
records are derived the same way from (master seed, experiment, index).
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["mix64", "child_seed", "path_generator"]


def mix64(*parts) -> int:
    """Stable 64-bit hash of a tuple of ints and strings."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, str):
            h.update(b"s" + part.encode("utf-8") + b"\x00")
        else:
            h.update(b"i" + int(part).to_bytes(16, "little", signed=True))
    return int.from_bytes(h.digest(), "little")


def child_seed(master_seed: int, experiment: str, index: int) -> int:
    return mix64(master_seed, experiment, index)


def path_generator(seed: int, path_index: int) -> np.random.Generator:
    """Generator for one sample path; reproducible bit-for-bit from its key."""
    key = mix64(seed, 0, path_index)   # the 0 is part of the fixed key layout
    return np.random.Generator(np.random.Philox(key=key))
