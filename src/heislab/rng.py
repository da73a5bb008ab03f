"""Deterministic counter-based random streams.

Every sample path draws from a Philox stream keyed by a hash of
(seed, path index), so the values drawn for a given path never depend
on batch size or evaluation order.  Philox is counter-based: a stream is
fixed by its key and counter alone, so ``path_generator`` re-keys one
shared Philox per path (key set, counter zeroed, buffer emptied) rather
than building a new one, and each path's stream is bit for bit the one a
fresh ``Philox(key=...)`` gives.  Child seeds for experiment records are
derived the same way from (master seed, experiment, index).
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

__all__ = ["mix64", "child_seed", "path_generator"]


def _encode(part) -> bytes:
    """The bytes mix64 hashes for one part: the key layout."""
    if isinstance(part, str):
        return b"s" + part.encode("utf-8") + b"\x00"
    return b"i" + int(part).to_bytes(16, "little", signed=True)


def mix64(*parts) -> int:
    """Stable 64-bit hash of a tuple of ints and strings."""
    h = hashlib.blake2b(b"".join(map(_encode, parts)), digest_size=8)
    return int.from_bytes(h.digest(), "little")


def child_seed(master_seed: int, experiment: str, index: int) -> int:
    return mix64(master_seed, experiment, index)


@functools.cache
def _shared_philox():
    """The Philox that ``path_generator`` re-keys, its Generator, and the
    state it assigns: a freshly keyed Philox's (zero counter, empty buffer,
    no spare 32-bit half) with its key list kept for rewriting.

    The state holds Python ints and lists, not numpy arrays: numpy's setter
    reads it element by element, and a list element costs less to convert.
    Built on first use, not at import, so that runs which draw no paths
    never load ``numpy.random``.
    """
    bitgen = np.random.Philox(key=0)
    key = [0, 0]
    state = dict(bitgen.state, state={"counter": [0] * 4, "key": key}, buffer=[0] * 4)
    return np.random.Generator(bitgen), bitgen, state, key


@functools.lru_cache(maxsize=1)
def _path_key_prefix(seed: int):
    """blake2b with ``mix64(seed, 0, i)``'s first two parts absorbed (the 0
    is part of the fixed key layout); shared, so callers update a copy."""
    return hashlib.blake2b(_encode(seed) + _encode(0), digest_size=8)


def path_generator(seed: int, path_index: int) -> np.random.Generator:
    """Generator for one sample path; reproducible bit-for-bit from its key.

    The generator is shared: the next call re-keys it, so draw everything
    the path needs before asking for the next one, and do not call this
    from more than one thread.
    """
    gen, bitgen, state, key = _shared_philox()
    h = hashlib.blake2b.copy(_path_key_prefix(seed))
    h.update(_encode(path_index))
    key[0] = int.from_bytes(h.digest(), "little")   # mix64(seed, 0, path_index)
    bitgen.state = state
    return gen
