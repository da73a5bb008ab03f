"""Group Brownian motion: horizontal Brownian paths with the slaved vertical
stochastic integral, computed by the left-point rule.

The running vertical process M accumulates form(B_k, B_{k+1} - B_k) over grid
steps.  Because the form is antisymmetric the Ito and Stratonovich integrals
coincide, so this left-point sum targets the group Brownian motion whose
endpoint is (B_K, M_K / 2).  Every path is reproducible bit for bit from
(seed, path index); the batch size never changes the draws.  Paths are
arrays: ``sample_paths`` gives a batch (B, M) and ``sample_endpoints`` gives
only the endpoints (W, C).  The rank-m projection of a path is its leading m
coordinates, a path of the group of ``form.restrict(m)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import OmegaForm
from .rng import path_generator

__all__ = [
    "sample_paths",
    "sample_endpoints",
    "approximation_report",
    "refinement_convergence",
]

# paths per batch of the convergence studies, which keep whole paths in memory
STUDY_CHUNK = 512

# path keys drawn since cli.run last set this to 0; it goes to manifest.json
paths_drawn = 0


def _accumulate_vertical(form: OmegaForm, B, dB):
    """Left-point sums form(B_k, dB_k) cumulated along the step axis.

    B has shape (..., K, n) (positions at left endpoints), dB the increments.
    Returns the running sums with a leading zero row, shape (..., K+1, d).
    A rank-m projection passes ``form.restrict(m)`` and the leading m
    columns (``_projected_vertical``), never zeroed columns.
    """
    steps = form.pair(B, dB)
    zeros = np.zeros(steps.shape[:-2] + (1, steps.shape[-1]))
    return np.concatenate([zeros, np.cumsum(steps, axis=-2)], axis=-2)


def _endpoint_area(form: OmegaForm, left, inc):
    """The whole left-point sum form(B_k, dB_k), without its running values.

    ``left`` and ``inc`` have shape (..., K, n); the result, shape (..., d),
    equals the last row of ``_accumulate_vertical``.  The step sum collapses
    into one batched matrix product S = left^T inc of shape (..., n, n), so
    no per-step temporary is formed.
    """
    S = left.swapaxes(-1, -2) @ inc
    return np.einsum("...ij,lij->...l", S, form.vertical_matrices())


def _check_grid(T, K):
    if not T > 0:
        raise ValueError(f"terminal time must be positive, got {T}")
    if K < 1:
        raise ValueError(f"step count must be at least 1, got {K}")


def _chunks(samples, size):
    """(start, count) of consecutive batches of at most ``size`` path indices."""
    for start in range(0, samples, size):
        yield start, min(size, samples - start)


def _batch_increments(form, T, K, seed, start, count):
    global paths_drawn
    paths_drawn += count
    inc = np.empty((count, K, form.n))
    for p in range(count):
        path_generator(seed, start + p).standard_normal(out=inc[p])
    inc *= np.sqrt(T / K)
    return inc


def _endpoint_sums(form, inc):
    """Final values (B_K, M_K) of the paths with increments ``inc`` (count, K, n).

    The first step starts at the origin and adds no area, so the area sum
    pairs the positions after steps 1..K-1 with the increments 2..K.
    """
    B = np.cumsum(inc, axis=1)
    return B[:, -1, :], _endpoint_area(form, B[:, :-1, :], inc[:, 1:, :])


def _mean_se(v):
    """Sample mean of v and its standard error (0 for a single sample)."""
    se = v.std(ddof=1) / np.sqrt(len(v)) if len(v) > 1 else 0.0
    return float(v.mean()), float(se)


def sample_paths(form: OmegaForm, T: float, K: int, count: int, seed: int,
                 start: int = 0):
    """Paths start..start+count-1 of K steps on [0, T], keyed (seed, p), as
    arrays B (count, K+1, n) and M (count, K+1, d) whose row 0 is zero."""
    _check_grid(T, K)
    inc = _batch_increments(form, T, K, seed, start, count)
    B = np.concatenate([np.zeros((count, 1, form.n)), np.cumsum(inc, axis=1)], axis=1)
    return B, _accumulate_vertical(form, B[:, :-1, :], inc)


def sample_endpoints(form: OmegaForm, T: float, K: int, samples: int, seed: int,
                     chunk: int = 2048):
    """Endpoints of ``samples`` independent paths as arrays (W, C).

    W has shape (samples, n) and C = M_K/2 shape (samples, d), the last rows
    of ``sample_paths`` (C up to round-off: its sum runs in another order).
    Path p always uses the generator keyed (seed, p), so results are
    independent of the chunk size.
    """
    _check_grid(T, K)
    W = np.empty((samples, form.n))
    C = np.empty((samples, form.d))
    for start, count in _chunks(samples, chunk):
        inc = _batch_increments(form, T, K, seed, start, count)
        W[start:start + count], M = _endpoint_sums(form, inc)
        C[start:start + count] = 0.5 * M
    return W, C


def _projected_vertical(form: OmegaForm, B, m: int):
    """The left-point vertical part of the rank-m projection of the paths B.

    The sums run over the leading columns B[..., :m] with
    ``form.restrict(m)``, by the same left-point rule as ``sample_paths``;
    the result is recomputed from those columns, not a projection of M.
    """
    Bm = B[..., :m]
    return _accumulate_vertical(form.restrict(m), Bm[..., :-1, :], np.diff(Bm, axis=-2))


def _sup_gap(form, B, M, m):
    """Per path, the sup over grid times of the homogeneous norm of (B, M/2)
    minus its rank-m projection.  The horizontal gap is B[..., m:] and the
    projection's vertical part dies on return; no projected copy of B is
    made."""
    if m == form.n:
        return np.zeros(len(B))
    dw2 = np.sum(B[..., m:] ** 2, axis=2)
    dc = np.linalg.norm(0.5 * (M - _projected_vertical(form, B, m)), axis=2)
    return np.sqrt(dw2 + dc).max(axis=1)


@dataclass
class ApproximationReport:
    ranks: list
    errors: dict          # (rank, p) -> Monte Carlo mean of sup-norm^p
    stderrs: dict
    monotone_ok: bool

    def sequence(self, p):
        return [self.errors[(m, p)] for m in self.ranks]


def approximation_report(form: OmegaForm, T: float, K: int, ranks, samples: int,
                         p_moments=(1, 2, 4), seed: int = 0) -> ApproximationReport:
    """Monte Carlo sup-over-grid error between projected and full paths.

    For each rank in [1, n], estimates E[sup_k |g^rank_k - g_k|^p] in the
    homogeneous norm of the coordinate difference.  The sup runs over grid
    times only; the continuous-time gap is not corrected.
    """
    ranks = list(ranks)
    if any(b <= a for a, b in zip(ranks, ranks[1:])):
        raise ValueError("ranks must be strictly increasing")
    for m in ranks:
        form.restrict(m)        # a bad rank fails before any path is drawn
    sups = {m: [] for m in ranks}
    for start, count in _chunks(samples, STUDY_CHUNK):
        B, M = sample_paths(form, T, K, count, seed, start)
        for m in ranks:
            sups[m].append(_sup_gap(form, B, M, m))
    errors, stderrs = {}, {}
    for m, chunks in sups.items():
        sup = np.concatenate(chunks)
        for p in p_moments:
            errors[(m, p)], stderrs[(m, p)] = _mean_se(sup ** p)
    monotone = True
    for p in p_moments:
        for a, b in zip(ranks, ranks[1:]):
            slack = 3.0 * np.hypot(stderrs[(a, p)], stderrs[(b, p)])
            if errors[(b, p)] > errors[(a, p)] + slack:
                monotone = False
    return ApproximationReport(ranks, errors, stderrs, monotone)


@dataclass
class RefinementReport:
    K_list: list
    rms: list
    fitted_order: float


def refinement_convergence(form: OmegaForm, T: float, K_list, samples: int,
                           seed: int = 0) -> RefinementReport:
    """Coupled refinement study of the vertical integral discretization.

    All resolutions reuse the same underlying increments (coarser levels sum
    consecutive fine steps), so the reported RMS differences of M_T between
    successive resolutions isolate the quadrature error of the left-point
    rule; its order in the step size is the fitted slope.
    """
    K_list = list(K_list)
    if any(b <= a for a, b in zip(K_list, K_list[1:])):
        raise ValueError("step counts must be strictly increasing")
    K_max = K_list[-1]
    if any(K_max % k for k in K_list):
        raise ValueError("every step count must divide the largest one")
    sq_diffs = np.zeros(len(K_list) - 1)
    for start, count in _chunks(samples, STUDY_CHUNK):
        inc = _batch_increments(form, T, K_max, seed, start, count)
        m_at_K = []
        for K in K_list:
            factor = K_max // K
            inc_c = inc.reshape(count, K, factor, form.n).sum(axis=2)
            m_at_K.append(_endpoint_sums(form, inc_c)[1])
        for i in range(len(K_list) - 1):
            sq_diffs[i] += float(np.sum((m_at_K[i] - m_at_K[i + 1]) ** 2))
    rms = np.sqrt(sq_diffs / samples)
    steps = [T / k for k in K_list[:-1]]
    if len(steps) >= 2 and np.all(rms > 0):
        order = float(np.polyfit(np.log(steps), np.log(rms), 1)[0])
    else:
        order = float("nan")
    return RefinementReport(K_list, [float(v) for v in rms], order)
