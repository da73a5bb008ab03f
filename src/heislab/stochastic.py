"""Group Brownian motion: horizontal Brownian paths with the slaved vertical
stochastic integral, computed by the left-point rule of
``OmegaForm.running_path_integral`` and ``OmegaForm.path_integral``.

Because the form is antisymmetric the Ito and Stratonovich integrals
coincide, so the left-point sum M targets the group Brownian motion whose
endpoint is (B_K, M_K / 2).  Every path is reproducible bit for bit from
(seed, path index).  Paths are arrays, all drawn in place by one route:
``sample_paths`` gives a batch (B, M) and ``sample_endpoints`` gives only
the endpoints (W, C).  The rank-m projection of a path is its leading m
coordinates, a path of the group of ``form.restrict(m)``.

Every batch of paths is sized by one rule, ``_chunks``: as many whole paths
as ``CHUNK_BYTES`` of positions hold, at least one.  So the memory of a
sampler does not grow with the number of paths, and each temporary that
scales with a batch, such as the pairing of consecutive positions, is at
most one budget.  No output depends on the batch size, bit for bit.

``convergence_study`` draws one path set and both of its studies read each
batch: the time-step refinement of the left-point area reads coarser grids
as subsamples of the positions, and the rank-m projection reads the leading
columns.  No path is drawn twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import OmegaForm
from .rng import path_generator

__all__ = [
    "sample_paths",
    "sample_endpoints",
    "convergence_study",
    "refinement_convergence",
    "approximation_report",
    "mean_se", "within_3se",
]

# bytes of positions in one batch of paths, for every sampler
CHUNK_BYTES = 1 << 20

# path keys drawn since cli.run last set this to 0; it goes to manifest.json
paths_drawn = 0


def _check_grid(T, K):
    if not T > 0:
        raise ValueError(f"terminal time must be positive, got {T}")
    if K < 1:
        raise ValueError(f"step count must be at least 1, got {K}")


def _chunks(samples, K, n):
    """(start, count) of consecutive batches of the path indices 0..samples-1:
    each is as many whole paths of positions (K+1, n) as ``CHUNK_BYTES``
    holds, and at least one."""
    size = max(1, CHUNK_BYTES // ((K + 1) * n * 8))
    for start in range(0, samples, size):
        yield start, min(size, samples - start)


def _draw_positions(form: OmegaForm, T, K, seed, start, count):
    """Positions (count, K+1, n) of paths start..start+count-1, keyed
    (seed, p), with row 0 zero.  Each path's normals are drawn straight into
    its rows 1..K, one contiguous block, then scaled and summed there in
    place, so the positions are the only path-sized array."""
    global paths_drawn
    paths_drawn += count
    B = np.empty((count, K + 1, form.n))
    B[:, 0] = 0.0
    for p in range(count):
        path_generator(seed, start + p).standard_normal(out=B[p, 1:])
    B *= np.sqrt(T / K)
    np.cumsum(B, axis=1, out=B)
    return B


def mean_se(v):
    """Sample mean of v and its standard error (0 for a single sample).

    ``v.std`` squares the deviations, and those below about 1e-154 square
    to zero, so a spread under 2^-450 is taken again of v / 2^e, with 2^e
    the smallest power of two above max|v|, and scaled back.  Scaling by a
    power of two is exact, and above 2^-450 the lost squares are far below
    the sum's rounding.
    """
    if len(v) < 2:
        return float(v.mean()), 0.0
    sd = v.std(ddof=1)
    if sd < 2.0 ** -450:
        e = int(np.frexp(np.abs(v).max())[1])
        sd = np.ldexp(np.ldexp(v, -e).std(ddof=1), e)
    return float(v.mean()), float(sd / np.sqrt(len(v)))


def within_3se(margin, *stderrs) -> bool:
    """The pass rule of every statistical record: ``margin`` (positive when the
    claim holds) is at least -3 times the combined error hypot(stderrs)."""
    return bool(margin >= -3.0 * math.hypot(*stderrs))


def sample_paths(form: OmegaForm, T: float, K: int, count: int, seed: int,
                 start: int = 0):
    """Paths start..start+count-1 of K steps on [0, T], keyed (seed, p), as
    arrays B (count, K+1, n) and M (count, K+1, d) whose row 0 is zero."""
    _check_grid(T, K)
    B = _draw_positions(form, T, K, seed, start, count)
    return B, form.running_path_integral(B)


def sample_endpoints(form: OmegaForm, T: float, K: int, samples: int, seed: int):
    """Endpoints of ``samples`` independent paths as arrays (W, C).

    W has shape (samples, n) and C = M_K/2 shape (samples, d): W is the last
    row of ``sample_paths`` and C is half of ``form.path_integral`` of its
    positions (the last row of M up to round-off).  Only one batch of
    positions, at most ``CHUNK_BYTES`` or one path, is held at a time, so
    the memory beyond W and C does not grow with ``samples``.  Path p always
    uses the generator keyed (seed, p), so results do not depend on the
    batch size.
    """
    _check_grid(T, K)
    W = np.empty((samples, form.n))
    C = np.empty((samples, form.d))
    for start, count in _chunks(samples, K, form.n):
        B = _draw_positions(form, T, K, seed, start, count)
        W[start:start + count] = B[:, -1]
        C[start:start + count] = 0.5 * form.path_integral(B)
        del B                   # before the next batch is drawn
    return W, C


def refinement_convergence(form: OmegaForm, B, M, K_list):
    """Endpoint areas M_T of one batch of paths at each step count of K_list.

    B and M are a ``sample_paths`` batch of K_list[-1] steps, which every
    step count divides.  Level K is ``form.path_integral`` of its grid's
    positions B[:, ::K_list[-1] // K], so each coarse step sums consecutive
    fine steps (the levels are coupled); the finest level is the last row
    of M.  Returns shape (len(K_list), count, d).
    """
    areas = [form.path_integral(B[:, ::K_list[-1] // K]) for K in K_list[:-1]]
    areas.append(M[:, -1])
    return np.stack(areas)


def approximation_report(B, M, forms):
    """Per projected form, of rank m = its n, each path's sup over grid
    times of the homogeneous norm of (B, M/2) minus its rank-m projection:
    shape (len(forms), count).  ``forms`` are ``form.restrict(m)`` of the
    form that drew B and M, built once by the caller.

    The horizontal gap is B[..., m:]; the projection's vertical part is
    recomputed from the leading columns B[..., :m] by the projected form,
    not projected from M, and dies on return.  No projected copy of B is
    made.  The sup runs over grid times
    only; the continuous-time gap is not corrected.
    """
    sups = np.zeros((len(forms), len(B)))
    for i, form_m in enumerate(forms):
        m = form_m.n
        if m < B.shape[-1]:
            dw2 = np.einsum("pki,pki->pk", B[..., m:], B[..., m:])
            Mm = form_m.running_path_integral(B[..., :m])
            dc = np.linalg.norm(0.5 * (M - Mm), axis=2)
            sups[i] = np.sqrt(dw2 + dc).max(axis=1)
    return sups


@dataclass
class RefinementReport:
    K_list: list
    rms: list
    fitted_order: float


@dataclass
class ApproximationReport:
    ranks: list
    errors: dict          # (rank, p) -> Monte Carlo mean of sup-norm^p
    stderrs: dict
    monotone_ok: bool

    def sequence(self, p):
        return [self.errors[(m, p)] for m in self.ranks]


def convergence_study(form: OmegaForm, T: float, K_list, ranks, samples: int,
                      p_moments=(1, 2, 4), seed: int = 0):
    """Both convergence studies on one set of ``samples`` paths of K_list[-1]
    steps, each batch drawn once and read by ``refinement_convergence`` (the
    RMS differences of M_T between successive step counts isolate the
    left-point rule's quadrature error, whose order in the step size is the
    fitted slope) and by ``approximation_report`` (per rank, the mean p-th
    power of the sup gap, and whether it falls with the rank within 3
    standard errors).  Returns (RefinementReport, ApproximationReport).
    """
    K_list, ranks = list(K_list), list(ranks)
    if any(b <= a for a, b in zip(K_list, K_list[1:])):
        raise ValueError("step counts must be strictly increasing")
    if any(K_list[-1] % k for k in K_list):
        raise ValueError("every step count must divide the largest one")
    if any(b <= a for a, b in zip(ranks, ranks[1:])):
        raise ValueError("ranks must be strictly increasing")
    # a bad rank fails here, before any path is drawn
    forms = [form.restrict(m) for m in ranks]
    diffs, sups = [], []
    for start, count in _chunks(samples, K_list[-1], form.n):
        B, M = sample_paths(form, T, K_list[-1], count, seed, start)
        areas = refinement_convergence(form, B, M, K_list)
        diffs.append(areas[:-1] - areas[1:])
        sups.append(approximation_report(B, M, forms))
        del B, M                # before the next batch is drawn
    # squared and summed once over all paths, so no batch size moves the sum
    rms = np.sqrt(np.sum(np.concatenate(diffs, axis=1) ** 2, axis=(1, 2)) / samples)
    steps = [T / k for k in K_list[:-1]]
    if len(steps) >= 2 and np.all(rms > 0):
        order = float(np.polyfit(np.log(steps), np.log(rms), 1)[0])
    else:
        order = float("nan")
    sup = np.concatenate(sups, axis=1)
    errors, stderrs = {}, {}
    for m, row in zip(ranks, sup):
        for p in p_moments:
            errors[(m, p)], stderrs[(m, p)] = mean_se(row ** p)
    monotone = all(within_3se(errors[(a, p)] - errors[(b, p)], stderrs[(a, p)], stderrs[(b, p)])
                   for p in p_moments for a, b in zip(ranks, ranks[1:]))
    return (RefinementReport(K_list, [float(v) for v in rms], order),
            ApproximationReport(ranks, errors, stderrs, monotone))
