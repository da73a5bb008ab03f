"""Horizontal paths and the Carnot-Caratheodory distance.

A horizontal path is stored by its horizontal nodes only; the vertical
component is slaved to the path through the exact piecewise-linear rule

    a_{k+1} = a_k + 0.5 * form(A_k, A_{k+1} - A_k),

which reproduces the line integral of the form exactly for polygonal paths.

``cc_distance`` has two routes.  When the form (restricted to the allowed
rank) is a direct sum of weighted symplectic pairs, as every preset is, the
distance is exact (Gaveau 1977, Acta Math. 139; Beals, Gaveau & Greiner
2000, J. Math. Pures Appl. 79): the geodesic of vertical coordinate l turns
the velocity of each of its pairs at angular speed q_j * theta_l, one shared
multiplier per coordinate, so pair j traces a circular arc over its chord,
and a heaviest pair whose chord is zero may carry a whole loop.  A
horizontal target is reached by the straight segment on every form.  Every
other target goes to a numerical solver, which minimizes the path energy
over increments with the horizontal endpoint eliminated analytically
(increments are optimized in the affine subspace of fixed sum) and the
vertical endpoint enforced by an augmented Lagrangian whose penalty doubles
until the residual is met, plus a final least-norm Newton projection onto
the constraint manifold; its result is an upper bound.  Distance is the
square root of the minimized energy; over the unit time interval the two
agree at constant-speed minimizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .groups import GroupElement, OmegaForm, dilate, homogeneous_norm, identity, inverse, multiply
from .rng import mix64

__all__ = [
    "HorizontalPath",
    "SolverError",
    "DistanceOptions",
    "DistanceResult",
    "vertical_displacement",
    "cc_distance",
    "check_distance_norm_equivalence",
    "projected_distance_convergence",
]


class SolverError(RuntimeError):
    """No restart reached the vertical endpoint tolerance.

    Carries the best infeasible iterate in ``best`` for diagnosis.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class HorizontalPath:
    """Piecewise-linear horizontal path: K segments, nodes at uniform times."""

    nodes: np.ndarray          # (K+1, n) horizontal positions
    start_vertical: np.ndarray  # (d,)

    def __post_init__(self):
        nodes = np.atleast_2d(np.array(self.nodes, dtype=float))
        sv = np.atleast_1d(np.array(self.start_vertical, dtype=float))
        nodes.flags.writeable = False
        sv.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "start_vertical", sv)

    @property
    def segments(self) -> int:
        return self.nodes.shape[0] - 1

    def increments(self) -> np.ndarray:
        return np.diff(self.nodes, axis=0)

    def length(self) -> float:
        return float(np.linalg.norm(self.increments(), axis=1).sum())

    def energy(self) -> float:
        inc = self.increments()
        return float(self.segments * np.sum(inc * inc))

    def reversed(self) -> "HorizontalPath":
        return HorizontalPath(self.nodes[::-1].copy(), self.start_vertical)

    def vertical_profile(self, form: OmegaForm) -> np.ndarray:
        """Vertical coordinates at every node, from the exact segment rule."""
        inc = self.increments()
        if len(inc) == 0:
            return self.start_vertical[None, :].copy()
        steps = 0.5 * form.pair(self.nodes[:-1], inc)
        return np.vstack([self.start_vertical, self.start_vertical + np.cumsum(steps, axis=0)])

    def endpoint(self, form: OmegaForm) -> GroupElement:
        return GroupElement(self.nodes[-1], self.vertical_profile(form)[-1])


def vertical_displacement(form: OmegaForm, path: HorizontalPath) -> np.ndarray:
    """Total vertical displacement a_K - a_0; refinement invariant."""
    inc = path.increments()
    if len(inc) == 0:
        return np.zeros(form.d)
    return 0.5 * form.pair(path.nodes[:-1], inc).sum(axis=0)


# Augmented Lagrangian: initial penalty, and the L-BFGS-B gradient tolerance
# and iteration cap of each inner solve.  Vertical residual targets on the
# dilation-normalized problem: of a feasible witness, and of the outer loop.
_MU0 = 100.0
_GTOL = 1e-10
_MAX_INNER = 400
_VERT_TOL = 1e-12
_AL_TOL = 1e-9


@dataclass
class DistanceOptions:
    segments: int = 64
    restarts: int = 16
    seed: int = 0
    max_outer: int = 30


@dataclass
class DistanceResult:
    distance: float
    witness: HorizontalPath
    energy: float
    constraint_residual: float
    restart_index: int
    diagnostics: dict = field(default_factory=dict)


def _restricted_matrices(form: OmegaForm, rank: int) -> np.ndarray:
    return np.moveaxis(form.coeffs[:rank, :rank, :], 2, 0).copy()  # (d, rank, rank)


def _residual_and_positions(mats, disp, w_t, c_t):
    pos = np.vstack([np.zeros(disp.shape[1]), np.cumsum(disp, axis=0)[:-1]])
    r = 0.5 * np.einsum("ki,lij,kj->l", pos, mats, disp) - c_t
    return r, pos


def _al_objective(u, mats, w_t, c_t, lam, mu, K):
    disp = u.reshape(K, -1)
    disp = disp - disp.mean(axis=0) + w_t / K
    r, pos = _residual_and_positions(mats, disp, w_t, c_t)
    energy = K * float(np.sum(disp * disp))
    coeff = lam + mu * r
    val = energy + float(lam @ r) + 0.5 * mu * float(r @ r)
    # gradient wrt the increments, then projected through the mean-removal map
    v = w_t - 2.0 * pos - disp
    omega_c = np.einsum("l,lij->ij", coeff, mats)
    grad = 2.0 * K * disp + 0.5 * v @ omega_c.T
    grad = grad - grad.mean(axis=0)
    return val, grad.ravel()


def _newton_project(mats, disp, w_t, c_t, tol=1e-14, iters=6):
    """Least-norm correction onto the vertical constraint, inside the affine subspace."""
    K = disp.shape[0]
    for _ in range(iters):
        r, pos = _residual_and_positions(mats, disp, w_t, c_t)
        if np.linalg.norm(r) <= tol:
            break
        v = w_t - 2.0 * pos - disp
        jac = 0.5 * np.einsum("lij,kj->lki", mats, v)   # (d, K, n)
        jac = jac - jac.mean(axis=1, keepdims=True)
        jflat = jac.reshape(jac.shape[0], -1)
        gram = jflat @ jflat.T
        try:
            delta = np.linalg.solve(gram, -r)
        except np.linalg.LinAlgError:
            break
        disp = disp + (jflat.T @ delta).reshape(disp.shape)
    r, _ = _residual_and_positions(mats, disp, w_t, c_t)
    return disp, float(np.linalg.norm(r))


def _initial_increments(rank, K, w_t, restart, seed):
    t = np.linspace(0.0, 1.0, K + 1)
    nodes = t[:, None] * w_t[None, :]
    if restart > 0:
        rng = np.random.Generator(np.random.Philox(key=mix64(seed, "cc-init", restart)))
        for _ in range(1 + restart % 2):
            i, j = rng.choice(rank, size=2, replace=False) if rank >= 2 else (0, 0)
            amp = rng.uniform(0.2, 1.3) * rng.choice([-1.0, 1.0])
            phase = rng.uniform(0.0, 2 * np.pi)
            turns = 1 if restart < 8 else int(rng.integers(1, 3))
            ang = 2 * np.pi * turns * t + phase
            arc_u = amp * (np.cos(ang) - np.cos(phase))
            arc_v = amp * (np.sin(ang) - np.sin(phase))
            nodes[:, i] += arc_u
            if rank >= 2:
                nodes[:, j] += arc_v
    return np.diff(nodes, axis=0)


def _solve_normalized(mats, rank, K, w_t, c_t, opts: DistanceOptions, warm=None):
    """Energy minimization for a target of homogeneous norm about one."""
    # the only scipy user; presets never reach it
    from scipy.optimize import minimize as scipy_minimize

    starts = [_initial_increments(rank, K, w_t, r, opts.seed) for r in range(opts.restarts)]
    if warm is not None:
        starts.append(np.array(warm, dtype=float))
    best = None
    best_infeasible = None
    for idx, disp0 in enumerate(starts):
        lam = np.zeros(len(mats))
        mu = _MU0
        u = disp0.ravel()
        prev_r = np.inf
        for _ in range(opts.max_outer):
            res = scipy_minimize(
                _al_objective, u, args=(mats, w_t, c_t, lam, mu, K),
                method="L-BFGS-B", jac=True,
                options={"maxiter": _MAX_INNER, "gtol": _GTOL, "ftol": 1e-16},
            )
            u = res.x
            disp = u.reshape(K, -1)
            disp = disp - disp.mean(axis=0) + w_t / K
            r, _ = _residual_and_positions(mats, disp, w_t, c_t)
            rnorm = float(np.linalg.norm(r))
            if rnorm <= _AL_TOL:
                break
            lam = lam + mu * r
            if rnorm > 0.25 * prev_r:
                mu *= 2.0
            prev_r = rnorm
        disp, rnorm = _newton_project(mats, disp, w_t, c_t)
        energy = K * float(np.sum(disp * disp))
        feasible = rnorm <= _VERT_TOL
        entry = (energy, idx, disp, rnorm)
        if feasible:
            if best is None or energy < best[0]:
                best = entry
        elif best_infeasible is None or rnorm < best_infeasible[3]:
            best_infeasible = entry
    return best, best_infeasible


def cc_distance(form: OmegaForm, x: GroupElement, y: GroupElement,
                rank: int | None = None, opts: DistanceOptions | None = None,
                warm: HorizontalPath | None = None) -> DistanceResult:
    """Horizontal distance between x and y with a witness path.

    Exact when the form restricted to the first ``rank`` coordinates is a
    direct sum of weighted pairs, or when x^-1 y is horizontal; the witness
    is then the geodesic sampled at ``opts.segments`` + 1 uniform times, and
    ``constraint_residual`` is that polygon's vertical miss.  Otherwise the
    numerical solver gives an upper bound that tightens as the segment count
    and restart budget grow.  ``diagnostics["method"]`` says which route
    ran.  When ``rank`` is given, only the first ``rank`` horizontal
    directions may be used; the restricted form must then still satisfy the
    bracket-generating rank condition.
    """
    opts = opts or DistanceOptions()
    rank = form.n if rank is None else rank
    form.require_hormander(rank)
    z = multiply(form, inverse(x), y)
    if np.any(z.w[rank:] != 0.0):
        raise ValueError(
            f"target separation uses horizontal coordinates beyond rank {rank}"
        )
    scale = homogeneous_norm(z)
    if scale == 0.0:
        witness = HorizontalPath(x.w[None, :], x.c)
        return DistanceResult(0.0, witness, 0.0, 0.0, -1,
                              {"shortcut": "coincident", "method": "closed-form"})
    pairs = _weighted_pairs(form, rank)
    if pairs is not None or not np.any(z.c):
        return _closed_form_distance(form, x, z, pairs or [], opts.segments)

    lam = 1.0 / scale
    zn = dilate(lam, z)
    mats = _restricted_matrices(form, rank)
    K = opts.segments
    warm_disp = None
    if warm is not None and warm.segments == K:
        warm_disp = np.diff(warm.nodes[:, :rank] * lam, axis=0)
    best, best_inf = _solve_normalized(mats, rank, K, zn.w[:rank], zn.c, opts, warm=warm_disp)
    if best is None:
        entry = best_inf
        nodes = _witness_nodes(entry[2] / lam, form.n, rank, x)
        raise SolverError(
            f"vertical constraint not met after {opts.restarts} restarts "
            f"(best residual {entry[3]:.3e})",
            best=DistanceResult(np.sqrt(entry[0]) / lam,
                                HorizontalPath(nodes, x.c), entry[0] / lam**2,
                                entry[3] / lam**2, entry[1], {"method": "solver"}),
        )
    energy_n, idx, disp_n, rnorm_n = best
    disp = disp_n / lam
    nodes = _witness_nodes(disp, form.n, rank, x)
    energy = energy_n / lam**2
    distance = float(np.sqrt(energy))
    witness = HorizontalPath(nodes, x.c)
    return DistanceResult(
        distance, witness, energy, rnorm_n / lam**2, idx,
        {"method": "solver", "normalization": lam, "residual_normalized": rnorm_n},
    )


def _weighted_pairs(form: OmegaForm, rank: int):
    """[(i, j, l, q_ij)] with i < j if the form restricted to the first
    ``rank`` coordinates is a direct sum of weighted pairs, else None.

    It is one exactly when every horizontal row holds at most one nonzero
    entry over all (j, l); coordinates in no pair are free.
    """
    coeffs = form.coeffs[:rank, :rank, :]
    if np.count_nonzero(coeffs.reshape(rank, -1), axis=1).max() > 1:
        return None
    return [(i, j, l, float(coeffs[i, j, l])) for i, j, l in zip(*np.nonzero(coeffs)) if i < j]


def _arc_area(phi):
    """(phi - sin phi) / (8 sin^2(phi/2)): area between an arc turning by phi
    in (0, 2 pi) and its chord, per unit squared chord."""
    num = np.where(phi < 1e-2, phi**3 / 6 - phi**5 / 120 + phi**7 / 5040, phi - np.sin(phi))
    return num / (8.0 * np.sin(0.5 * phi) ** 2)


def _arc_energy(phi):
    """(phi/2)^2 / sin^2(phi/2): squared length of that arc per unit squared chord."""
    return (0.5 * phi / np.sin(0.5 * phi)) ** 2


def _multiplier(q, chord_sq, c):
    """The geodesic of one vertical coordinate of a d = 1 sum of pairs.

    ``q`` holds the pair weights (positive), ``chord_sq`` the squared chords
    |w_j|^2 and ``c`` > 0 the vertical target.  Returns the multiplier theta
    in (0, 2 pi / q_max], the area of the loop carried by a heaviest pair,
    and d^2.  Pair j turns by phi_j = q_j theta and contributes q_j times its
    arc area to c; the sum S(theta) rises from 0 to infinity on
    (0, 2 pi / q_max) unless every heaviest pair has a zero chord.  Then, for
    c >= S(2 pi / q_max), the cut-locus branch loops in a heaviest pair,
    where area costs squared length 4 pi / q_max per unit.
    """
    q_max = float(q.max())
    top = 2.0 * math.pi / q_max
    moving = chord_sq > 0
    q, chord_sq = q[moving], chord_sq[moving]

    def area(theta):
        return float(np.sum(q * chord_sq * _arc_area(q * theta)))

    excess = 0.0
    if not np.any(q == q_max) and c >= area(top):
        theta = top
        excess = c - area(top)
    else:
        lo, hi = 0.0, top
        for _ in range(2000):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if area(mid) < c:
                lo = mid
            else:
                hi = mid
        theta = 0.5 * (lo + hi)
    energy = float(np.sum(chord_sq * _arc_energy(q * theta))) + 4.0 * math.pi * excess / q_max
    return theta, excess / q_max, energy


def _closed_form_distance(form, x, z, pairs, K) -> DistanceResult:
    """Exact distance from x to x z on a sum of weighted pairs (or for a
    horizontal z on any form), and the geodesic sampled at K + 1 times."""
    t = np.arange(K + 1) / K
    rel = t[:, None] * z.w[None, :]         # free coordinates: straight segments
    free = np.ones(form.n, dtype=bool)
    free[[k for i, j, _, _ in pairs for k in (i, j)]] = False
    energy = float(np.sum(z.w[free] ** 2))
    thetas, loops = [], []
    for l in range(form.d):
        mine = [(i, j, q) for i, j, ll, q in pairs if ll == l]
        chords = np.array([z.w[i] + 1j * z.w[j] for i, j, _ in mine], dtype=complex)
        chord_sq = chords.real ** 2 + chords.imag ** 2
        weights = np.array([abs(q) for _, _, q in mine])
        c = abs(float(z.c[l]))
        theta, loop, e_l = (_multiplier(weights, chord_sq, c) if c > 0.0
                            else (0.0, 0.0, float(np.sum(chord_sq))))
        energy += e_l
        thetas.append(theta)
        loops.append(loop)
        looped = loop == 0.0
        for (i, j, q), chord in zip(mine, chords):
            # a pair turning counterclockwise in (w_i, w_j) encloses positive
            # area, which adds q times it to c_l
            turn = math.copysign(1.0, q * z.c[l])
            phi = turn * abs(q) * theta
            if chord != 0.0 and phi != 0.0:
                path = chord * _unit_arc(phi * t) / _unit_arc(phi)
            elif not looped and abs(q) == weights.max():
                # the circle through the origin of area ``loop``
                path = -1j * turn * math.sqrt(loop / math.pi) * _unit_arc(turn * 2 * math.pi * t)
                looped = True
            else:
                continue
            rel[:, i], rel[:, j] = path.real, path.imag
    rel[-1] = z.w
    residual = float(np.linalg.norm(
        vertical_displacement(form, HorizontalPath(rel, np.zeros(form.d))) - z.c))
    distance = math.sqrt(energy)
    return DistanceResult(
        distance, HorizontalPath(rel + x.w[None, :], x.c), energy, residual, -1,
        {"method": "closed-form", "theta": thetas, "loop_area": loops},
    )


def _unit_arc(x):
    """exp(i x) - 1, without cancellation at small x."""
    return -2.0 * np.sin(0.5 * x) ** 2 + 1j * np.sin(x)


def _witness_nodes(disp, n, rank, x: GroupElement):
    K = disp.shape[0]
    nodes = np.zeros((K + 1, n))
    nodes[1:, :rank] = np.cumsum(disp, axis=0)
    return nodes + x.w[None, :]


@dataclass
class RatioReport:
    ratios: np.ndarray
    min_ratio: float
    max_ratio: float
    bounded_ok: bool
    failures: int


def check_distance_norm_equivalence(form, targets, opts=None,
                                    lower=0.05, upper=50.0) -> RatioReport:
    """Ratios d(e, x) / (|w| + sqrt(|c|)) over sampled targets.

    The comparison constants are not known a priori; the report records the
    empirical envelope and only asserts it stays inside a loose positive band.
    """
    opts = opts or DistanceOptions()
    e = identity(form)
    ratios = []
    failures = 0
    for tgt in targets:
        denom = float(np.linalg.norm(tgt.w) + np.sqrt(np.linalg.norm(tgt.c)))
        if denom == 0.0:
            continue
        try:
            res = cc_distance(form, e, tgt, opts=opts)
        except SolverError:
            failures += 1
            continue
        ratios.append(res.distance / denom)
    ratios = np.array(ratios)
    lo = float(ratios.min()) if len(ratios) else np.nan
    hi = float(ratios.max()) if len(ratios) else np.nan
    ok = len(ratios) > 0 and failures == 0 and lower <= lo and hi <= upper
    return RatioReport(ratios, lo, hi, ok, failures)


@dataclass
class ConvergenceReport:
    ranks: list
    distances: list
    monotone_tol: float
    monotone_ok: bool
    matches_full_rank: bool


def projected_distance_convergence(form, x: GroupElement, ranks,
                                   opts=None) -> ConvergenceReport:
    """Distances d_rank(e, x) for increasing ranks, chained by warm starts.

    Each rank may reuse the previous witness (feasible for any larger rank),
    so the reported sequence is nonincreasing up to inner-solver noise.
    """
    opts = opts or DistanceOptions()
    ranks = list(ranks)
    if any(b <= a for a, b in zip(ranks, ranks[1:])):
        raise ValueError("ranks must be strictly increasing")
    support = np.nonzero(x.w)[0]
    if len(support) and support.max() >= ranks[0]:
        raise ValueError("target horizontal support must fit inside the smallest rank")
    e = identity(form)
    distances = []
    witness = None
    for rank in ranks:
        res = cc_distance(form, e, x, rank=rank, opts=opts, warm=witness)
        distances.append(res.distance)
        witness = res.witness
    # endpoint feasibility is met to _VERT_TOL on the normalized problem, so
    # sqrt of it is the homogeneous-norm error scale of the witness
    tol = 2.0 * float(np.sqrt(_VERT_TOL) * max(distances[0], 1.0))
    mono = all(b <= a + tol for a, b in zip(distances, distances[1:]))
    full = cc_distance(form, e, x, opts=opts, warm=witness)
    matches = abs(distances[-1] - full.distance) <= max(tol, 1e-9) \
        if ranks[-1] == form.n else True
    return ConvergenceReport(ranks, distances, tol, mono, matches)
