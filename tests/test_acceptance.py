"""Acceptance suite: every quantitative claim at its stated tolerance.

One test per criterion, each printing a single PASS/FAIL line (run pytest
with -s or read captured output).  Expensive shared artifacts (the full-grid
density solve and the large endpoint sets) live in session fixtures.
"""

import json
import math
import os

import numpy as np
import pytest

from heislab.cli import main as cli_main
from heislab.curvature import curvature_constants, hs_norm_sq, rho2, vertical_gram
from heislab.differential import cd_terms
from heislab.geometry import cc_distance
from heislab.groups import GroupElement, OmegaForm, make_preset, multiply_arrays
from heislab.heat import (
    BumpFunction,
    SemigroupSampler,
    pde_oracle_h3,
    strong_feller_modulus,
    verify_integrated_harnack,
    verify_reverse_logsobolev,
    verify_reverse_poincare,
    verify_wang_harnack,
)
from heislab.polynomials import constant, random_polynomial
from heislab.rng import child_seed
from heislab.stochastic import _mean_se, convergence_study, sample_endpoints
from test_differential import (
    bracket_relation, commutation, coordinates, gamma2z_squares, gamma_expansion,
    generator_expansion, rel_close,
)

H1 = make_preset("heisenberg", pairs=1).form
E2 = GroupElement([0.0, 0.0], [0.0])

ACCEPTANCE_GRID = {"box": ((-6.0, 6.0), (-6.0, 6.0), (-8.0, 8.0)),
                   "shape": (96, 96, 128), "mollifier_cells": 3.0}


def report(num, name, ok, details=""):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {details}")
    return ok


@pytest.fixture(scope="session")
def acceptance_density():
    return pde_oracle_h3("delta", T=1.0, **ACCEPTANCE_GRID)


@pytest.fixture(scope="session")
def acceptance_sampler(acceptance_density):
    return SemigroupSampler(H1, 1.0, 1024, 200000, seed=child_seed(2024, "c7", 0),
                            mollifier=3.0 * np.array(acceptance_density.steps()))


def test_criterion_01_group_algebra_exactness():
    presets = [("heisenberg", {"pairs": 1}), ("heisenberg", {"pairs": 2}),
               ("block_sum", {"weights": [1, 1]}),
               ("wiener_truncation", {"pairs": 16, "s": 2})]
    tol = 1e-12
    worst = 0.0
    rng = np.random.default_rng(child_seed(2024, "c1", 0))
    for name, kw in presets:
        form = make_preset(name, **kw).form
        N = 10000
        W = [rng.uniform(-10, 10, (N, form.n)) for _ in range(3)]
        C = [rng.uniform(-10, 10, (N, form.d)) for _ in range(3)]
        lw, lc = multiply_arrays(form, *multiply_arrays(form, W[0], C[0], W[1], C[1]),
                                 W[2], C[2])
        rw, rc = multiply_arrays(form, W[0], C[0],
                                 *multiply_arrays(form, W[1], C[1], W[2], C[2]))
        worst = max(worst, np.abs(lw - rw).max(), np.abs(lc - rc).max())
        iw, ic = multiply_arrays(form, W[0], C[0], -W[0], -C[0])
        worst = max(worst, np.abs(iw).max(), np.abs(ic).max())
        # product equals sum plus half bracket
        pw, pc = multiply_arrays(form, W[0], C[0], W[1], C[1])
        worst = max(worst,
                    np.abs(pw - (W[0] + W[1])).max(),
                    np.abs(pc - (C[0] + C[1] + 0.5 * form.pair(W[0], W[1]))).max())
        for lam in (0.5, 1.7, 2.0, 4.0):
            aw, ac = multiply_arrays(form, lam * W[0], lam * lam * C[0],
                                     lam * W[1], lam * lam * C[1])
            worst = max(worst, np.abs(aw - lam * pw).max(),
                        np.abs(ac - lam * lam * pc).max())
    ok = worst <= tol
    assert report(1, "group algebra exactness", ok,
                  f"worst deviation {worst:.2e} <= {tol:.0e} over 1e4 triples x 4 presets")


def test_criterion_02_curvature_constants():
    h1 = curvature_constants(H1)
    exact_h1 = (h1.hs_norm_sq, h1.rho2, h1.harnack_coeff) == (2.0, 2.0, 3.0)
    bs = curvature_constants(make_preset("block_sum", weights=[1, 3]).form)
    exact_bs = (bs.hs_norm_sq, bs.rho2, bs.harnack_coeff) == (20.0, 2.0, 21.0)
    d1_exact = True
    for name, kw in [("heisenberg", {"pairs": 2}),
                     ("wiener_truncation", {"pairs": 8, "s": 2}),
                     ("wiener_truncation", {"pairs": 16, "s": 2})]:
        form = make_preset(name, **kw).form
        d1_exact &= rho2(form) == hs_norm_sq(form)
    rng = np.random.default_rng(child_seed(2024, "c2", 0))
    sampled_ok = True
    for _ in range(100):
        a = rng.uniform(-1, 1, size=(5, 5, 3))
        form = OmegaForm(5, 3, a - np.transpose(a, (1, 0, 2)))
        gram = vertical_gram(form)
        xs = rng.normal(size=(100000, 3))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        sampled = np.einsum("ki,ij,kj->k", xs, gram, xs).min()
        sampled_ok &= rho2(form) <= sampled + 1e-9
    ok = exact_h1 and exact_bs and d1_exact and sampled_ok
    assert report(2, "curvature constants", ok,
                  f"heisenberg(1)=(2,2,3):{exact_h1} block_sum([1,3])=(20,2,21):{exact_bs} "
                  f"d=1 exact:{d1_exact} eigen<=sampled+1e-9 on 100 forms:{sampled_ok}")


def test_criterion_03_curvature_dimension_inequality():
    # Gamma_2 + nu Gamma_2^Z >= (rho2/4) Gamma^Z - (hs/nu) Gamma: the
    # antisymmetric part of a horizontal second derivative is half a bracket,
    # so the vertical term carries rho2/4, not the nominal rho2.  The sweep
    # checks the inequality; the witness checks that rho2/4 cannot be raised.
    presets = [("heisenberg", {"pairs": 1}), ("block_sum", {"weights": [1, 1]})]
    nus = (0.1, 1.0, 10.0)
    total = violations = 0
    worst_rel = np.inf
    witness = None
    sharp_errors = []
    for name, kw in presets:
        form = make_preset(name, **kw).form
        nvars = form.n + form.d
        r2, hs = rho2(form), hs_norm_sq(form)
        vc = 0.25 * r2
        rng = np.random.default_rng(child_seed(2024, f"c3-{name}", 0))
        for fi in range(1000):
            f = random_polynomial(nvars, 4, rng, terms=8)
            g2, g2z, gz, g = cd_terms(form, f)
            pts = rng.uniform(-3, 3, size=(100, nvars))
            a, b, c, d = g2(pts), g2z(pts), gz(pts), g(pts)
            for nu in nus:
                margin = (a + nu * b) - (vc * c - (hs / nu) * d)
                scale = np.abs(a) + nu * np.abs(b) + vc * np.abs(c) + (hs / nu) * np.abs(d)
                bad = margin < -1e-8 * scale
                total += margin.size
                violations += int(bad.sum())
                if bad.any():
                    rel = (margin / np.maximum(scale, 1e-300)).min()
                    if rel < worst_rel:
                        worst_rel = rel
                        worst_idx = int(np.argmin(margin / np.maximum(scale, 1e-300)))
                        witness = (name, fi, nu, pts[worst_idx], float(margin[worst_idx]))
        # sharpness: f = <x_min, c> for the unit eigenvector x_min of the
        # smallest Gram eigenvalue has, at the identity, Gamma_2 = rho2/4,
        # Gamma_2^Z = 0, Gamma^Z = 1 and Gamma = 0
        x_min = np.linalg.eigh(vertical_gram(form))[1][:, 0]
        f = constant(nvars, 0.0)
        for c_k, coef in zip(coordinates(nvars)[form.n:], x_min):
            f = f + c_k * float(coef)
        a, b, c, d = (t(np.zeros(nvars)) for t in cd_terms(form, f))
        for nu in nus:
            for coeff, expected in ((vc, 0.0), (r2, -0.75 * r2)):
                margin = (a + nu * b) - (coeff * c - (hs / nu) * d)
                if abs(margin - expected) > 1e-12:
                    sharp_errors.append(f"{name} nu={nu} coeff={coeff}: margin "
                                        f"{margin:.3e}, expected {expected:.3e}")
    ok = violations == 0 and not sharp_errors
    detail = (f"{violations}/{total} margins below -1e-8*scale at rho2/4; "
              f"sharpness witness errors: {sharp_errors[:3]}")
    if violations:
        detail += (f"; worst relative margin {worst_rel:.3f}; example: preset={witness[0]} "
                   f"f#{witness[1]} nu={witness[2]} margin={witness[4]:.4f}")
    assert report(3, "curvature-dimension inequality", ok, detail), detail


def test_criterion_04_exact_polynomial_identities():
    presets = [("heisenberg", {"pairs": 1}), ("block_sum", {"weights": [1, 1]})]
    failures = []
    count = 0
    for name, kw in presets:
        form = make_preset(name, **kw).form
        nvars = form.n + form.d
        rng = np.random.default_rng(child_seed(2024, f"c4-{name}", 0))
        for k in range(100):
            f = random_polynomial(nvars, 4, rng, terms=6)
            g = random_polynomial(nvars, 4, rng, terms=6)
            i, j = map(int, rng.choice(form.n, size=2, replace=False))
            checks = [
                ("commutation", commutation(form, f)),
                ("bracket", bracket_relation(form, i, j, f)),
                ("gamma2z-sos", gamma2z_squares(form, f)),
                ("generator", generator_expansion(form, f)),
                ("gamma-decomp", gamma_expansion(form, f, g)),
            ]
            count += len(checks)
            failures += [f"{name}#{k}:{label}" for label, sides in checks
                         if not rel_close(*sides)]
    ok = not failures
    assert report(4, "exact polynomial identities", ok,
                  f"{count} checks on 200 draws, failures: {failures[:5]}")


def test_criterion_05_cc_distance():
    msgs, ok = [], True
    rng = np.random.default_rng(child_seed(2024, "c5", 2))
    for _ in range(3):
        w = rng.uniform(-2, 2, size=2)
        d = cc_distance(H1, E2, GroupElement(w, [0.0])).distance
        rel = abs(d - np.linalg.norm(w)) / np.linalg.norm(w)
        ok &= rel <= 1e-3
        msgs.append(f"horiz rel={rel:.1e}")
    d_vert = cc_distance(H1, E2, GroupElement([0, 0], [1.0])).distance
    rel = abs(d_vert - 2 * math.sqrt(math.pi)) / (2 * math.sqrt(math.pi))
    ok &= rel <= 1e-2
    msgs.append(f"vertical rel={rel:.1e}")
    x = GroupElement([0.5, 0.2], [0.4])
    base = cc_distance(H1, E2, x).distance
    for lam in (0.5, 2.0, 4.0):
        d = cc_distance(H1, E2, GroupElement(lam * x.w, lam * lam * x.c)).distance
        rel = abs(d - lam * base) / (lam * base)
        ok &= rel <= 1e-2
    msgs.append("dilation<=1e-2")
    # a geodesic of a rank-m projection group is admissible at every larger
    # rank, so d_m(e, (0, c)) does not grow with m
    wt = make_preset("wiener_truncation", pairs=8, s=2).form
    dists = [cc_distance(wt.restrict(m), GroupElement(np.zeros(m), [0.0]),
                         GroupElement(np.zeros(m), [0.5])).distance for m in (2, 4, 8, 16)]
    mono = all(b <= a + 1e-12 * max(dists[0], 1.0) for a, b in zip(dists, dists[1:]))
    ok &= mono
    msgs.append(f"d_n={['%.5f' % d for d in dists]} monotone={mono}")
    assert report(5, "Carnot-Caratheodory distance", ok, "; ".join(msgs))


def test_criterion_06_brownian_statistics():
    T, N, K = 1.0, 100000, 1024
    W, C = sample_endpoints(H1, T, K, N, seed=child_seed(2024, "c6", 0))
    se_diag = T * math.sqrt(2.0 / N)
    se_off = T / math.sqrt(N)
    cov_ok = (abs((W[:, 0] ** 2).mean() - T) < 3 * se_diag
              and abs((W[:, 1] ** 2).mean() - T) < 3 * se_diag
              and abs((W[:, 0] * W[:, 1]).mean()) < 3 * se_off)
    v = C[:, 0] ** 2
    se_var = v.std(ddof=1) / math.sqrt(N)
    var_ok = abs(v.mean() - T * T / 4) < 3 * se_var
    # two studies: the refinement on H3 and the projection on wt
    ref, _ = convergence_study(H1, T, [16, 32, 64, 128, 256, 512], [H1.n], 4000,
                               seed=child_seed(2024, "c6", 1))
    order_ok = abs(ref.fitted_order - 0.5) <= 0.15
    wt = make_preset("wiener_truncation", pairs=16, s=2).form
    _, rep = convergence_study(wt, T, [256], [4, 8, 16, 32], 2000,
                               seed=child_seed(2024, "c6", 2))
    ok = cov_ok and var_ok and order_ok and rep.monotone_ok
    assert report(6, "Brownian statistics", ok,
                  f"cov3sigma:{cov_ok} varM:{v.mean():.4f} (target {T*T/4}) "
                  f"order:{ref.fitted_order:.3f} projection monotone:{rep.monotone_ok}")


def test_criterion_07_mc_pde_consistency(acceptance_density, acceptance_sampler):
    dens, samp = acceptance_density, acceptance_sampler
    w1, w2, c = dens.grid_coords()
    pts = np.stack([w1.ravel(), w2.ravel(), c.ravel()], axis=1)
    bumps = [
        BumpFunction(E2, 2.0, 1.0),
        BumpFunction(GroupElement([1.0, 0.0], [0.5]), 1.5, 1.0),
        BumpFunction(GroupElement([0.0, -1.0], [-1.0]), 2.5, 1.0),
        BumpFunction(GroupElement([-0.8, 0.6], [0.0]), 2.0, 0.7, 0.05),
        BumpFunction(GroupElement([0.3, 0.3], [1.2]), 1.8, 1.2),
    ]
    ok = True
    msgs = []
    for k, f in enumerate(bumps):
        value, se = _mean_se(samp.values(f, E2))
        oracle = dens.quadrature(f(pts).reshape(dens.values.shape) * dens.values)
        slack = 0.01 * (f.sup_bound() + abs(oracle))
        good = abs(value - oracle) <= 3 * se + slack
        ok &= good
        msgs.append(f"b{k}: |{value:.5f}-{oracle:.5f}|={abs(value-oracle):.5f} "
                    f"tol={3*se+slack:.5f}")
    assert report(7, "MC/PDE consistency", ok, "; ".join(msgs))


def test_criterion_08_functional_inequalities(acceptance_density):
    cc = curvature_constants(H1)
    points = [E2, GroupElement([0.5, 0.5], [0.2]), GroupElement([-1.0, 0.3], [-0.5]),
              GroupElement([0.2, -0.8], [0.4]), GroupElement([1.2, 0.7], [0.0])]
    bump = BumpFunction(GroupElement([0.2, -0.1], [0.1]), 2.5, 1.0)
    bump_floor = BumpFunction(GroupElement([0.2, -0.1], [0.1]), 2.5, 1.0, 0.1)
    records = []
    for T in (0.25, 0.5, 1.0, 2.0):
        samp = SemigroupSampler(H1, T, 256, 30000, seed=child_seed(2024, f"c8-T{T}", 0))
        for x in points:
            records.append(verify_reverse_poincare(samp, bump, x, cc))
            records.append(verify_reverse_logsobolev(samp, bump_floor, x, cc))
    rp_ok = all(r.passed for r in records)

    T = 1.0
    samp = SemigroupSampler(H1, T, 256, 30000, seed=child_seed(2024, "c8-wang", 0))
    pairs = [
        (E2, E2, 0.0),
        (E2, GroupElement([1.0, 0.0], [0.0]), 1.0),
        (E2, GroupElement([0.0, 0.5], [0.0]), 0.25),
        (GroupElement([0.3, 0.0], [0.0]), GroupElement([0.9, 0.0], [0.0]), 0.36),
        (E2, GroupElement([0.0, 0.0], [0.25]), 4 * math.pi * 0.25),
        (GroupElement([0.2, 0.1], [0.0]), GroupElement([-0.4, 0.6], [0.15]),
         cc_distance(H1, GroupElement([0.2, 0.1], [0.0]),
                     GroupElement([-0.4, 0.6], [0.15])).distance ** 2),
    ]
    wang = [rec for (x, y, d2) in pairs
            for rec in verify_wang_harnack(samp, bump, x, y, (1.5, 2.0, 4.0), d2, cc)]
    wang_ok = all(r.passed for r in wang)

    ys = [(E2, 0.0),
          (GroupElement([0.5, 0.0], [0.0]), 0.25),
          (GroupElement([0.0, -0.4], [0.0]), 0.16),
          (GroupElement([0.0, 0.0], [0.25]), 4 * math.pi * 0.25),
          (GroupElement([0.3, 0.3], [0.1]),
           cc_distance(H1, E2, GroupElement([0.3, 0.3], [0.1])).distance ** 2)]
    ih = [rec for (y, d2) in ys
          for rec in verify_integrated_harnack(acceptance_density, H1, y, (1.5, 2.0, 3.0), d2, cc)]
    ih_ok = all(r.passed for r in ih)

    sf = strong_feller_modulus(
        samp, bump, GroupElement([0.4, 0.2], [0.1]), np.array([1.0, 0.0]),
        [0.5, 0.25, 0.125], cc, bump.sup_bound())
    sf_ok = all(r.passed for r in sf)

    ok = rp_ok and wang_ok and ih_ok and sf_ok
    assert report(8, "functional inequality suites", ok,
                  f"reverse-P/LS {sum(r.passed for r in records)}/{len(records)}; "
                  f"wang {sum(r.passed for r in wang)}/{len(wang)}; "
                  f"integrated {sum(r.passed for r in ih)}/{len(ih)}; "
                  f"strong-feller {sum(r.passed for r in sf)}/{len(sf)}")


def test_criterion_09_heat_kernel_symmetry(acceptance_density):
    u = acceptance_density.values
    asym = float(np.abs(u - u[::-1, ::-1, ::-1]).max() / u.max())
    ok = asym < 1e-3
    assert report(9, "heat kernel inversion symmetry", ok,
                  f"max relative asymmetry {asym:.2e} < 1e-3")


def test_criterion_10_determinism(tmp_path):
    cfg = {"seed": 77,
           "params": {"functions": 15, "points": 5, "vertical_coeff_scale": 0.25}}
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    bodies = []
    for workers in (1, 4, 16):
        out = str(tmp_path / f"w{workers}")
        code = cli_main(["verify-cd", "--config", str(cfg_path), "--out", out,
                         "--workers", str(workers)])
        assert code == 0
        with open(os.path.join(out, "records.csv"), "rb") as fh:
            bodies.append(fh.read())
    ok = bodies[0] == bodies[1] == bodies[2]
    assert report(10, "determinism across worker counts", ok,
                  f"records.csv byte-identical at workers 1/4/16: {ok}")
