"""A fixed probe of the host's speed, run next to every timed piece of work.

The benchmark shares a few cores of a host with other work, and the host's
speed drifts: a fixed pure-Python loop's medians over windows of 10 to 60
seconds differ by about 10% (quartile spread over median) from window to
window, with stretches of a minute running a quarter slower, and longer
runs do not average it away.  So every timed CLI run and every set-up
sample is bracketed by two runs of this probe, and its time is scaled by
``REF_S / probe time``: the time the same work would take on a host where
the probe takes ``REF_S``.  On the 2-vCPU host where the benchmark was
written, ``REF_S`` is the probe's typical time, so the scaled figures read
close to raw seconds there.

The probe mixes the three kinds of work the workloads do: interpreted
Python (the Gamma calculus, orchestration), small numpy vector operations
(sampling, stencils), and first touches of fresh anonymous pages (large
temporaries, imports), 1 MiB at a time.  It calls nothing of heislab, so a change to the
program does not move it.  It keeps its arrays below glibc's mmap
threshold and maps its pages with ``mmap`` directly, so that it leaves the
allocator's adaptive thresholds, which heislab's grid solve is sensitive
to, as it found them.
"""

from __future__ import annotations

import mmap
from time import perf_counter

import numpy as np

# the probe's time on the reference host, in seconds
REF_S = 0.022

_PY_ITERATIONS = 25_000
_NP_SIZE = 4096            # 32 KiB of float64, below the mmap threshold
_NP_REPEATS = 90
_PAGES = 256               # 1 MiB of fresh pages, mapped 8 times
_MAPS = 8


def _python_part():
    # dict updates keyed by exponent tuples, as in the polynomial algebra
    terms = {}
    for i in range(_PY_ITERATIONS):
        key = (i % 31, i % 7, i % 5)
        terms[key] = terms.get(key, 0.0) + 0.5 * i
    return len(terms)


def _numpy_part(rng):
    total = 0.0
    for _ in range(_NP_REPEATS):
        a = rng.standard_normal(_NP_SIZE)
        np.cumsum(a, out=a)
        total += float(np.dot(a, a))
    return total


def _page_part():
    # a small region, mapped again and again, so that the probe adds little
    # to the peak resident memory that the benchmark reports
    page = mmap.PAGESIZE
    for _ in range(_MAPS):
        with mmap.mmap(-1, _PAGES * page) as region:
            for off in range(0, _PAGES * page, page):
                region[off] = 1


def probe() -> float:
    """Seconds of one probe run."""
    rng = np.random.Generator(np.random.PCG64(12345))
    t0 = perf_counter()
    _python_part()
    _numpy_part(rng)
    _page_part()
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work scaled to the reference host, from the probe runs
    just before and just after it."""
    return seconds * REF_S / (0.5 * (before + after))
