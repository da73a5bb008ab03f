"""Group Brownian motion: horizontal Brownian paths with the slaved vertical
stochastic integral, computed by the left-point rule.

The running vertical process M accumulates form(B_k, B_{k+1} - B_k) over grid
steps.  Because the form is antisymmetric the Ito and Stratonovich integrals
coincide, so this left-point sum targets the group Brownian motion whose
endpoint is (B_K, M_K / 2).  Every path is reproducible bit for bit from
(seed, path index); the batch size never changes the draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import GroupElement, OmegaForm
from .rng import path_generator

__all__ = [
    "BrownianPath",
    "sample_path",
    "endpoint",
    "sample_endpoints",
    "project_path",
    "path_from_increments",
    "approximation_report",
    "refinement_convergence",
]

# paths per batch of the convergence studies, which keep whole paths in memory
STUDY_CHUNK = 512


@dataclass(frozen=True)
class BrownianPath:
    T: float
    K: int
    B: np.ndarray   # (K+1, n) horizontal values at grid times
    M: np.ndarray   # (K+1, d) running integral of form(B, dB)
    seed: int
    stream_index: int

    def __post_init__(self):
        B = np.array(self.B, dtype=float)
        M = np.array(self.M, dtype=float)
        B.flags.writeable = False
        M.flags.writeable = False
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "M", M)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.K + 1)

    def group_endpoint(self) -> GroupElement:
        return GroupElement(self.B[-1], 0.5 * self.M[-1])


def _accumulate_vertical(form: OmegaForm, B, dB):
    """Left-point sums form(B_k, dB_k) cumulated along the step axis.

    B has shape (..., K, n) (positions at left endpoints), dB the increments.
    Returns the running sums with a leading zero row, shape (..., K+1, d).
    """
    mats = form.vertical_matrices()
    steps = np.einsum("...ki,lij,...kj->...kl", B, mats, dB)
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


def path_from_increments(form: OmegaForm, T: float, increments,
                         seed: int = -1, stream_index: int = -1) -> BrownianPath:
    """Assemble a path from given horizontal increments (testing hook)."""
    inc = np.atleast_2d(np.asarray(increments, dtype=float))
    K = inc.shape[0]
    B = np.vstack([np.zeros(form.n), np.cumsum(inc, axis=0)])
    M = _accumulate_vertical(form, B[:-1], inc)
    return BrownianPath(T, K, B, M, seed, stream_index)


def sample_path(form: OmegaForm, T: float, K: int, seed: int,
                stream_index: int = 0) -> BrownianPath:
    """One Brownian path with K steps on [0, T]."""
    _check_grid(T, K)
    inc = _batch_increments(form, T, K, seed, stream_index, 1)[0]
    return path_from_increments(form, T, inc, seed, stream_index)


def endpoint(form: OmegaForm, T: float, K: int, seed: int, index: int) -> GroupElement:
    """Group endpoint (B_K, M_K / 2); a pure function of (seed, index).

    Computed exactly as row ``index`` of ``sample_endpoints``.
    """
    _check_grid(T, K)
    W, M = _endpoint_sums(form, _batch_increments(form, T, K, seed, index, 1))
    return GroupElement(W[0], 0.5 * M[0])


def _check_grid(T, K):
    if not T > 0:
        raise ValueError(f"terminal time must be positive, got {T}")
    if K < 1:
        raise ValueError(f"step count must be at least 1, got {K}")


def _batch_increments(form, T, K, seed, start, count):
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


def sample_endpoints(form: OmegaForm, T: float, K: int, samples: int, seed: int,
                     chunk: int = 2048):
    """Endpoints of ``samples`` independent paths as arrays (W, C).

    W has shape (samples, n) and C = M_K/2 shape (samples, d).  Path p always
    uses the generator keyed (seed, p), so results are independent of
    the chunk size.
    """
    _check_grid(T, K)
    W = np.empty((samples, form.n))
    C = np.empty((samples, form.d))
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        inc = _batch_increments(form, T, K, seed, start, count)
        W[start:start + count], M = _endpoint_sums(form, inc)
        C[start:start + count] = 0.5 * M
    return W, C


def project_path(form: OmegaForm, path: BrownianPath, m: int) -> BrownianPath:
    """Project the horizontal path to rank m and rebuild the vertical integral.

    The projected vertical part is recomputed from the projected increments
    with the same left-point rule; it is not the projection of M.
    """
    if not 1 <= m <= form.n:
        raise ValueError(f"rank must be in [1, {form.n}], got {m}")
    if m == form.n:
        return path
    B = np.array(path.B)
    B[:, m:] = 0.0
    inc = np.diff(B, axis=0)
    M = _accumulate_vertical(form, B[:-1], inc)
    return BrownianPath(path.T, path.K, B, M, path.seed, path.stream_index)


@dataclass
class ApproximationReport:
    ranks: list
    p_moments: list
    errors: dict          # (rank, p) -> Monte Carlo mean of sup-norm^p
    stderrs: dict
    errors_euclidean: dict
    monotone_ok: bool
    samples: int

    def sequence(self, p):
        return [self.errors[(m, p)] for m in self.ranks]


def approximation_report(form: OmegaForm, T: float, K: int, ranks, samples: int,
                         p_moments=(1, 2, 4), seed: int = 0) -> ApproximationReport:
    """Monte Carlo sup-over-grid error between projected and full paths.

    For each rank, estimates E[sup_k |g^rank_k - g_k|^p] in the homogeneous
    norm of the coordinate difference (the Euclidean-norm variant is reported
    alongside).  The sup runs over grid times only; the continuous-time gap is
    not corrected.
    """
    ranks = list(ranks)
    if any(b <= a for a, b in zip(ranks, ranks[1:])):
        raise ValueError("ranks must be strictly increasing")
    acc = {(m, p): [] for m in ranks for p in p_moments}
    acc_e = {(m, p): [] for m in ranks for p in p_moments}
    for start in range(0, samples, STUDY_CHUNK):
        count = min(STUDY_CHUNK, samples - start)
        inc = _batch_increments(form, T, K, seed, start, count)
        B = np.concatenate([np.zeros((count, 1, form.n)), np.cumsum(inc, axis=1)], axis=1)
        M = _accumulate_vertical(form, B[:, :-1, :], inc)
        for m in ranks:
            if m >= form.n:
                dw2 = np.zeros((count, K + 1))
                dc = np.zeros((count, K + 1))
            else:
                Bp = B.copy()
                Bp[:, :, m:] = 0.0
                incp = np.diff(Bp, axis=1)
                Mp = _accumulate_vertical(form, Bp[:, :-1, :], incp)
                dw2 = np.sum((B - Bp) ** 2, axis=2)
                dc = np.linalg.norm(0.5 * (M - Mp), axis=2)
            sup_h = np.sqrt(dw2 + dc).max(axis=1)
            sup_e = np.sqrt(dw2 + dc * dc).max(axis=1)
            for p in p_moments:
                acc[(m, p)].append(sup_h ** p)
                acc_e[(m, p)].append(sup_e ** p)
    errors, stderrs, errors_e = {}, {}, {}
    for key, chunks in acc.items():
        vals = np.concatenate(chunks)
        errors[key] = float(vals.mean())
        stderrs[key] = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        errors_e[key] = float(np.concatenate(acc_e[key]).mean())
    monotone = True
    for p in p_moments:
        for a, b in zip(ranks, ranks[1:]):
            slack = 3.0 * np.hypot(stderrs[(a, p)], stderrs[(b, p)])
            if errors[(b, p)] > errors[(a, p)] + slack:
                monotone = False
    return ApproximationReport(ranks, list(p_moments), errors, stderrs, errors_e,
                               monotone, samples)


@dataclass
class RefinementReport:
    K_list: list
    step_sizes: list
    rms: list
    fitted_order: float
    samples: int


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
    for start in range(0, samples, STUDY_CHUNK):
        count = min(STUDY_CHUNK, samples - start)
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
    return RefinementReport(K_list, steps, [float(v) for v in rms], order, samples)
