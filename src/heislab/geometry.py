"""Horizontal paths and the Carnot-Caratheodory distance.

A horizontal path is the (K+1, n) array of its horizontal nodes; the
vertical component is slaved to it through the exact piecewise-linear rule

    a_{k+1} = a_k + 0.5 * form(A_k, A_{k+1} - A_k),

which reproduces the line integral of the form exactly for polygonal paths:
a_k - a_0 is half of ``form.running_path_integral`` of the nodes, and the
whole vertical displacement half of ``form.path_integral``.

``cc_distance`` is exact on every form whose vertical coordinates act on
pairwise disjoint sets of horizontal coordinates: every d = 1 form and
every preset.  Each A_l of such a form is orthogonally a sum of weighted
symplectic pairs q_j J, so the distance is the closed form on pairs (Gaveau
1977, Acta Math. 139; Beals, Gaveau & Greiner 2000, J. Math. Pures Appl. 79)
in the rotated basis.  A horizontal target is reached by the straight
segment on every form; any other target on a form whose vertical
coordinates share a horizontal one has no closed form here and raises
``ValueError``.  The rank condition comes from the same rule as every
curvature constant, ``curvature.curvature_constants``: a form that fails it
gets ``HormanderError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import curvature_constants
from .groups import GroupElement, OmegaForm, homogeneous_norm, inverse, multiply

__all__ = [
    "DistanceOptions",
    "DistanceResult",
    "cc_distance",
]


@dataclass
class DistanceOptions:
    """``segments`` is the witness polygon's segment count.  ``restarts`` and
    ``seed`` are accepted and ignored: every distance is exact, so nothing is
    restarted or seeded."""

    segments: int = 64
    restarts: int = 16
    seed: int = 0


@dataclass
class DistanceResult:
    distance: float
    witness: np.ndarray         # (K+1, n) horizontal nodes of the geodesic
    energy: float
    constraint_residual: float
    diagnostics: dict = field(default_factory=dict)


def cc_distance(form: OmegaForm, x: GroupElement, y: GroupElement,
                opts: DistanceOptions | None = None) -> DistanceResult:
    """Exact horizontal distance between x and y with a witness path.

    The witness is the array of the horizontal nodes of the geodesic sampled
    at ``opts.segments`` + 1 uniform times (one node x.w when x = y), and
    ``constraint_residual`` is that polygon's vertical miss.  The
    form must pass the rank rule of ``curvature_constants``, which raises
    ``HormanderError`` otherwise; the distance of the rank-m projection group
    is that of ``form.restrict(m)``.  Raises
    ``ValueError`` when x^-1 y is not horizontal and two vertical
    coordinates of the form act on a common horizontal coordinate: that
    form has no closed form.
    """
    opts = opts or DistanceOptions()
    curvature_constants(form)
    z = multiply(form, inverse(x), y)
    if homogeneous_norm(z) == 0.0:
        return DistanceResult(0.0, x.w[None, :], 0.0, 0.0, {"shortcut": "coincident"})
    basis = _pair_basis(form)
    if basis is None:
        if np.any(z.c):
            raise ValueError(
                "no closed-form distance: the form has vertical coordinates sharing "
                "a horizontal one"
            )
        basis = (np.zeros((form.n, 0)), np.zeros((form.n, 0)), np.zeros(0), np.zeros(0, int))
    return _closed_form_distance(form, x, z, *basis, opts.segments)


def _pair_basis(form: OmegaForm):
    """(e1, e2, q, owner): orthonormal columns e1[:, j], e2[:, j] span pair j,
    on which vertical coordinate owner[j] is q[j] > 0 times the standard
    symplectic form (e1_j^T A_l e2_j = q_j), for A_l the matrices of
    ``form.vertical_matrices()``.  None if two A_l share a horizontal
    coordinate.

    Each A_l is taken on its own support.  Its singular values are the
    q_j, each twice; for a right singular vector v of q_j, v and
    A_l^T v / q_j span an A_l-invariant plane on which A_l is q_j J.  Each
    pair starts from the singular vector that sticks out furthest from the
    planes already taken, so equal weights still give orthonormal pairs.
    An SVD pages in 0.6 MB of LAPACK per run, the Hermitian eigensolver of
    i A_l 1.4 MB.
    """
    mats = form.vertical_matrices()
    supports = np.any(mats != 0.0, axis=2)
    if supports.sum(axis=0).max() > 1:
        return None
    basis, q, owner = [], [], []
    for l, (mat, sup) in enumerate(zip(mats, supports)):
        idx = np.flatnonzero(sup)
        a = mat[np.ix_(idx, idx)]
        _, sv, vt = np.linalg.svd(a)
        vecs = vt[sv > 1e-12 * sv[0]].T     # the rest is the kernel: free
        planes = np.zeros((len(idx), 0))
        for _ in range(vecs.shape[1] // 2):
            rest = vecs - planes @ (planes.T @ vecs)
            norms = np.linalg.norm(rest, axis=0)
            v = rest[:, np.argmax(norms)] / norms.max()
            u = a.T @ v
            q.append(np.linalg.norm(u))
            planes = np.column_stack([planes, v, u / q[-1]])
        basis.append(np.zeros((form.n, planes.shape[1])))
        basis[-1][idx] = planes
        owner.append(np.full(planes.shape[1] // 2, l))
    basis = np.hstack(basis)
    return basis[:, 0::2], basis[:, 1::2], np.array(q), np.concatenate(owner)


def _arc(q, q_max, theta, tau):
    """For pairs of weight q turning by phi = q theta: the area between arc
    and chord per unit squared chord, (phi - sin phi) / (8 sin^2(phi/2)),
    sin(phi/2) and sin(phi).  tau = 2 pi / q_max - theta: past phi = pi the
    sines come from h = pi - phi/2 = pi (1 - q/q_max) + q tau/2, exact for a
    heaviest pair, which keeps the digits that phi loses near 2 pi."""
    phi = q * theta
    h = math.pi * (1.0 - q / q_max) + 0.5 * q * tau
    near = h < 0.5 * math.pi
    half = np.where(near, np.sin(h), np.sin(0.5 * phi))
    full = np.where(near, -np.sin(2.0 * h), np.sin(phi))
    num = np.where(phi < 1e-2, phi**3 / 6 - phi**5 / 120 + phi**7 / 5040, phi - full)
    return num / (8.0 * half ** 2), half, full


def _multiplier(q, chord_sq, c):
    """The geodesic of one vertical coordinate of a d = 1 sum of pairs.

    ``q`` holds the pair weights (positive), ``chord_sq`` the squared chords
    |w_j|^2 and ``c`` > 0 the vertical target.  Returns the multiplier theta
    in (0, 2 pi / q_max], tau = 2 pi / q_max - theta, the area of the loop
    carried by a heaviest pair, and d^2.  The geodesic turns the velocity of
    pair j at angular speed q_j theta, so it traces a circular arc over its
    chord, turning by phi_j = q_j theta and adding q_j times its arc area to
    c; the sum S(theta) rises from 0 to infinity on (0, 2 pi / q_max) unless
    every heaviest pair has a zero chord.  Then, for c >= S(2 pi / q_max),
    the cut-locus branch loops in a heaviest pair, where area costs squared
    length 4 pi / q_max per unit.  The root is bisected in theta below
    pi / q_max and in tau above it: a heaviest pair with a tiny chord turns
    by nearly 2 pi, and theta alone cannot tell how nearly.
    """
    q_max = float(q.max())
    top = 2.0 * math.pi / q_max
    moving = chord_sq > 0
    q, chord_sq = q[moving], chord_sq[moving]

    def area(theta, tau):
        return float(np.sum(q * chord_sq * _arc(q, q_max, theta, tau)[0]))

    if not np.any(q == q_max) and c >= area(top, 0.0):
        theta, tau, excess = top, 0.0, c - area(top, 0.0)
    else:
        half = 0.5 * top
        upper = area(half, top - half) < c
        lo, hi, excess = 0.0, half, 0.0
        for _ in range(2000):
            mid = 0.5 * (lo + hi)
            theta, tau = (top - mid, mid) if upper else (mid, top - mid)
            if mid <= lo or mid >= hi:
                break
            if (area(theta, tau) < c) != upper:
                lo = mid
            else:
                hi = mid
    # an arc's squared length per unit squared chord is (phi/2)^2 / sin^2(phi/2)
    half = _arc(q, q_max, theta, tau)[1]
    energy = float(np.sum(chord_sq * (0.5 * q * theta / half) ** 2))
    return theta, tau, excess / q_max, energy + 4.0 * math.pi * excess / q_max


def _closed_form_distance(form, x, z, e1, e2, q, owner, K) -> DistanceResult:
    """Exact distance from x to x z, and the geodesic sampled at K + 1 times.

    z.w is rotated into the pair basis (e1, e2); what lies outside it is
    free and moves along a straight segment.  Each pair's path is built as a
    complex curve u_1 + i u_2 in its plane and rotated back.
    """
    t = np.arange(K + 1) / K
    u1, u2 = z.w @ e1, z.w @ e2
    free = z.w - e1 @ u1 - e2 @ u2
    energy = float(free @ free)
    chords = u1 + 1j * u2
    paths = np.zeros((K + 1, len(q)), dtype=complex)
    loops = []
    for l in range(form.d):
        mine = np.flatnonzero(owner == l)
        chord_sq = chords[mine].real ** 2 + chords[mine].imag ** 2
        weights = q[mine]
        c = abs(float(z.c[l]))
        theta, tau, loop, e_l = (_multiplier(weights, chord_sq, c) if c > 0.0
                                 else (0.0, 0.0, 0.0, float(np.sum(chord_sq))))
        energy += e_l
        loops.append(loop)
        looped = loop == 0.0
        # a pair turning counterclockwise encloses positive area, which adds
        # q times it to c_l
        turn = math.copysign(1.0, z.c[l])
        for j, chord, moving, wt in zip(mine, chords[mine], chord_sq > 0, weights):
            phi = wt * theta
            if moving and phi != 0.0:
                _, half, full = _arc(wt, weights.max(), theta, tau)
                end = -2.0 * half ** 2 + 1j * turn * full      # exp(i turn phi) - 1
                paths[:, j] = chord * np.expm1(1j * (turn * phi * t)) / end
            elif moving:
                paths[:, j] = chord * t
            elif not looped and wt == weights.max():
                # the circle through the origin of area ``loop``
                paths[:, j] = -1j * turn * math.sqrt(loop / math.pi) * np.expm1(
                    1j * (turn * 2 * math.pi * t))
                looped = True
    rel = t[:, None] * free[None, :] + paths.real @ e1.T + paths.imag @ e2.T
    rel[-1] = z.w
    residual = float(np.linalg.norm(0.5 * form.path_integral(rel) - z.c))
    return DistanceResult(math.sqrt(energy), rel + x.w[None, :], energy, residual,
                          {"loop_area": loops})
