"""The four benchmark workloads: CLI operations made from the seed, and checks.

A workload's round is a fixed list of ``heislab`` CLI runs (experiment plus
a generated JSON config).  The seed sets the configs' master seeds (the
distance runs share a fixed one, and so do the verify-cd runs), times,
evaluation points and targets; the amount of work in a round does not
depend on it.  After timing, ``check`` compares the outputs of the last
round with closed forms, calling the program's public functions where a
check needs raw output.  The Monte Carlo workloads also check every endpoint
set that their verifiers drew: ``drawn_sets`` collects them from one more
round after timing.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field
from random import Random

import numpy as np

from heislab.differential import cd_terms
from heislab.groups import make_preset
from heislab.heat import SemigroupSampler, pde_oracle_h3
from heislab.polynomials import PolynomialFunction
from heislab.stochastic import sample_endpoints

from checks import (
    Z_DRAWN, Check, check_cd_witness, check_distance, check_endpoints, check_grid,
    gaveau_distance, h3_separation, smallest_gram_pair,
)

H3 = {"name": "heisenberg", "params": {"pairs": 1}}
BLOCK = {"name": "block_sum", "params": {"weights": [1, 3]}}
WIENER = {"name": "wiener_truncation", "params": {"pairs": 8, "s": 2}}

# The Monte Carlo runs use the CLI's default of 256 steps per path, the
# step count at which the sampling layer is judged; fewer paths than the
# default 30,000 keep a round at about two seconds.
MC_STEPS = 256

# Large endpoint draws for the Levy-area check: 120,000 paths put a 2%
# scaling of C at about 7 standard errors of E[C^2].  Eight steps keep the
# draw cheap; the exact moment carries the (1 - 1/K) factor of the rule.
CHECK_PATHS = 120_000
CHECK_STEPS = 8

# Coarse H3 grid: 1,125 explicit steps at T = 0.25 instead of about 11,000 on
# the 96x96x128 default at T = 1; mass stays above 0.9999 and the second
# moments within a few 1e-4 of their exact values.
GRID = {"box": [[-3, 3], [-3, 3], [-2, 2]], "shape": [33, 33, 41],
        "mollifier_cells": 2.0, "cfl_fraction": 0.5}
GRID_T = 0.25

# one master seed for all distance runs and one for the verify-cd runs (see
# calculus_geodesic)
DISTANCE_SEED = 20240801
CD_SEED = 20240802

# |c| / |w|^2 bands of the generic distance targets: arc half-angles theta
# from about 0.24 to 1.8 radians
GENERIC_RATIOS = [(0.04, 0.08), (0.08, 0.14), (0.14, 0.22), (0.22, 0.32),
                  (0.32, 0.42), (0.42, 0.52)]


@dataclass
class Op:
    """One CLI run: ``heislab <experiment> --config <file>``."""

    name: str
    experiment: str
    config: dict
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list
    layers: tuple          # traced spans that must be hit on this workload
    check: object          # check(ops, outdir, drawn) -> list of Check
    draws: bool = False    # check needs the endpoint sets a round drew


@contextlib.contextmanager
def drawn_sets():
    """Collect every endpoint set that a ``SemigroupSampler`` estimate reads.

    Yields a dict filled while the block runs: id of the W array ->
    (T, steps, W, C), as the sampler holds them when ``values`` is called.
    """
    sets = {}
    original = SemigroupSampler.values

    def values(self, func, x):
        W, C = self.endpoints()
        sets.setdefault(id(W), (self.T, self.steps, W, C))
        return original(self, func, x)

    SemigroupSampler.values = values
    try:
        yield sets
    finally:
        SemigroupSampler.values = original


def check_drawn(label, drawn, form, T_grid) -> list:
    """Gaussian and Levy-area checks on every drawn set, and that each T has one."""
    checks = []
    for T, steps, W, C in sorted(drawn, key=lambda s: s[0]):
        name = f"{label}-drawn-T{T:.4g}-K{steps}-N{len(W)}"
        checks += check_endpoints(name, W, C, form.coeffs, T, steps, z=Z_DRAWN)
    missing = sorted(set(T_grid) - {s[0] for s in drawn})
    checks.append(Check(f"{label}-drawn:every-T-has-a-set", not missing, {"missing": missing}))
    return checks


def check_large_draw(label, form, T, seed) -> list:
    """The checks at full power, on a large draw through ``SemigroupSampler``."""
    W, C = SemigroupSampler(form, T, CHECK_STEPS, CHECK_PATHS, seed).endpoints()
    return check_endpoints(label, W, C, form.coeffs, T, CHECK_STEPS)


def _cfg(preset, seed, params):
    return {"preset": preset, "seed": seed, "params": params}


def _point(rnd, n, d, wmax, cmax):
    return {"w": [rnd.uniform(-wmax, wmax) for _ in range(n)],
            "c": [rnd.uniform(-cmax, cmax) for _ in range(d)]}


def _master(rnd):
    return rnd.randrange(2**31)


def _read(outdir, op, name):
    with open(os.path.join(outdir, op.name, name), encoding="utf-8") as fh:
        return fh.read()


def _form(spec):
    return make_preset(spec["name"], **spec["params"]).form


# --------------------------------------------------------------------------
# mc-h3

MC_H3_SAMPLES = 2000


def mc_h3(seed: int) -> Workload:
    rnd = Random(f"mc-h3/{seed}")
    steps, samples = MC_STEPS, MC_H3_SAMPLES
    T_grid = [base * rnd.uniform(0.8, 1.25) for base in (0.25, 0.5, 1.0, 2.0)]
    points = [_point(rnd, 2, 1, 0.6, 0.3) for _ in range(5)]
    sweep = {"T_grid": T_grid, "samples": samples, "steps": steps, "points": points}
    pairs = []
    for _ in range(4):
        x, y = _point(rnd, 2, 1, 0.6, 0.2), _point(rnd, 2, 1, 0.6, 0.2)
        w, c = h3_separation(x["w"], x["c"][0], y["w"], y["c"][0])
        pairs.append({"x": x, "y": y, "dist_sq": gaveau_distance(w, c) ** 2})
    sim = {"T": rnd.uniform(0.5, 2.0), "steps": steps, "samples": samples}
    ops = [
        Op("reverse-poincare", "verify-reverse-poincare", _cfg(H3, _master(rnd), sweep)),
        Op("reverse-logsobolev", "verify-reverse-logsobolev", _cfg(H3, _master(rnd), sweep)),
        # x lies off the bump's centre, in the offset direction (+w1): the
        # shrinking record asserts |P_T f(x + h e1) - P_T f(x)| falls with h,
        # which is false when x + h e1 crosses a critical point of P_T f
        Op("strong-feller", "verify-strong-feller", _cfg(H3, _master(rnd), {
            "T": rnd.uniform(0.5, 1.5), "samples": samples, "steps": steps,
            "x": {"w": [rnd.uniform(0.3, 0.6), rnd.uniform(-0.3, 0.3)],
                  "c": [rnd.uniform(-0.2, 0.2)]}})),
        Op("wang-harnack", "verify-harnack", _cfg(H3, _master(rnd), {
            "T": rnd.uniform(0.5, 1.5), "samples": samples, "steps": steps, "pairs": pairs})),
        Op("simulate", "simulate", _cfg(H3, _master(rnd), sim)),
    ]
    check_T, check_seed = rnd.uniform(0.5, 2.0), _master(rnd)

    def check(ops, outdir, drawn):
        sim_op = ops[-1]
        p = sim_op.config["params"]
        form = _form(H3)
        text = _read(outdir, sim_op, "endpoints.csv")
        got = np.loadtxt(text.splitlines()[1:], delimiter=",", ndmin=2)
        W, C = sample_endpoints(form, p["T"], p["steps"], p["samples"], sim_op.config["seed"])
        same = got.shape == (p["samples"], 3) and np.array_equal(got, np.hstack([W, C]))
        checks = [Check("simulate:endpoints.csv-matches-sample_endpoints", bool(same))]
        checks += check_endpoints("simulate", got[:, :2], got[:, 2:], form.coeffs, p["T"],
                                  p["steps"], z=Z_DRAWN)
        T_all = T_grid + [op.config["params"]["T"] for op in ops[2:4]]
        checks += check_drawn("heisenberg(1)", drawn, form, T_all)
        checks += check_large_draw("heisenberg(1)", form, check_T, check_seed)
        return checks

    layers = ("rng.path_generator", "stochastic.sample_endpoints",
              "heat.SemigroupSampler.init", "heat.SemigroupSampler.values",
              "heat.verify_reverse_poincare", "heat.verify_reverse_logsobolev",
              "heat.verify_wang_harnack", "heat.verify_strong_feller",
              "heat.strong_feller_modulus", "records.records_to_csv", "cli.run")
    return Workload("mc-h3", ops, layers, check, draws=True)


# --------------------------------------------------------------------------
# mc-wide

# at n=16 a path costs about eight times what it costs at n=2, so fewer
# paths; the refinement study ends at the CLI's default finest K of 256
MC_WIDE_SAMPLES = 500
MC_WIDE_CONVERGENCE_SAMPLES = 400
MC_WIDE_K_LIST = [32, 64, 128, 256]


def mc_wide(seed: int) -> Workload:
    rnd = Random(f"mc-wide/{seed}")
    ops, presets = [], []
    for label, preset, n, d in (("block", BLOCK, 4, 2), ("wiener", WIENER, 16, 1)):
        sweep = {"T_grid": [base * rnd.uniform(0.8, 1.25) for base in (0.5, 1.0)],
                 "samples": MC_WIDE_SAMPLES, "steps": MC_STEPS,
                 "points": [_point(rnd, n, d, 0.5, 0.2) for _ in range(3)]}
        ops.append(Op(f"reverse-poincare-{label}", "verify-reverse-poincare",
                      _cfg(preset, _master(rnd), sweep)))
        ops.append(Op(f"convergence-{label}", "convergence", _cfg(preset, _master(rnd), {
            "T": rnd.uniform(0.5, 1.5), "samples": MC_WIDE_CONVERGENCE_SAMPLES,
            "K_list": MC_WIDE_K_LIST})))
        presets.append((preset, sweep["T_grid"], rnd.uniform(0.5, 2.0), _master(rnd)))

    def check(ops, outdir, drawn):
        checks = []
        for preset, T_grid, T, s in presets:
            form = _form(preset)
            label = preset["name"]
            mine = [d for d in drawn if d[2].shape[1] == form.n]
            checks += check_drawn(label, mine, form, T_grid)
            checks += check_large_draw(label, form, T, s)
        return checks

    layers = ("rng.path_generator", "stochastic.sample_endpoints",
              "stochastic.refinement_convergence", "stochastic.approximation_report",
              "heat.SemigroupSampler.init", "heat.SemigroupSampler.values",
              "heat.verify_reverse_poincare", "records.records_to_csv", "cli.run")
    return Workload("mc-wide", ops, layers, check, draws=True)


# --------------------------------------------------------------------------
# grid-h3


def grid_h3(seed: int) -> Workload:
    rnd = Random(f"grid-h3/{seed}")
    ys = [{"w": [0.0], "c": [0.0]}]
    for _ in range(2):
        ang, r = rnd.uniform(0.0, 2.0 * math.pi), rnd.uniform(0.1, 0.4)
        ys.append({"w": [r * math.cos(ang), r * math.sin(ang)], "c": [0.0]})
    ys.append({"w": [0.0], "c": [rnd.choice([-1.0, 1.0]) * rnd.uniform(0.02, 0.1)]})
    params = {"T": GRID_T, "q_grid": sorted(rnd.uniform(1.2, 4.0) for _ in range(3)),
              "ys": ys, "grid": GRID}
    ops = [Op("integrated-harnack", "verify-integrated-harnack",
              _cfg(H3, _master(rnd), params))]

    def check(ops, outdir, drawn):
        density = pde_oracle_h3("delta", GRID_T, box=tuple(map(tuple, GRID["box"])),
                                shape=tuple(GRID["shape"]),
                                cfl_fraction=GRID["cfl_fraction"],
                                mollifier_cells=GRID["mollifier_cells"])
        report = json.loads(_read(outdir, ops[0], "summary.json"))["report"]
        checks = [Check("integrated-harnack:mass-matches-pde_oracle_h3",
                        report["mass"] == density.mass,
                        {"cli": report["mass"], "direct": density.mass})]
        checks += check_grid("pde_oracle_h3", density.axes, density.values, GRID_T,
                             GRID["mollifier_cells"])
        return checks

    layers = ("heat.pde_oracle_h3", "heat.verify_integrated_harnack",
              "records.records_to_csv", "cli.run")
    return Workload("grid-h3", ops, layers, check)


# --------------------------------------------------------------------------
# calculus-geodesic


def _target(rnd, kind, sector, sectors, sign, ratio=0.0):
    """A target of the given kind, its direction in the given one of
    ``sectors`` equal sectors of the circle; generic ones have
    |c| / |w|^2 = ratio."""
    ang = 2.0 * math.pi * (sector + rnd.random()) / sectors
    r = rnd.uniform(0.5, 2.0)
    if kind == "horizontal":
        return [r * math.cos(ang), r * math.sin(ang)], 0.0
    if kind == "vertical":
        return [0.0, 0.0], sign * r
    return [r * math.cos(ang), r * math.sin(ang)], sign * ratio * r * r


def witness_terms(form):
    """cd_terms at the identity of the vertical coordinate along the smallest
    Gram eigenvector, with rho2 and the HS norm computed apart from heislab."""
    rho2, hs, v = smallest_gram_pair(form.coeffs)
    nvars = form.n + form.d
    terms = {}
    for l, vl in enumerate(v):
        exps = [0] * nvars
        exps[form.n + l] = 1
        terms[tuple(exps)] = float(vl)
    f = PolynomialFunction(nvars, terms)
    return [t(np.zeros(nvars)) for t in cd_terms(form, f)], rho2, hs


def calculus_geodesic(seed: int) -> Workload:
    rnd = Random(f"calculus-geodesic/{seed}")
    nu_grid = sorted(10.0 ** rnd.uniform(-1.0, 1.0) for _ in range(3))
    ops = []
    # every polynomial is checked at 3 points x 3 nu, so a cd_terms hoisted
    # out of that loop would do 9 times less symbolic work; the cost of one
    # polynomial's Gamma calculus depends steeply on its random degree (0.26
    # to 0.42 s for 16 of them), so the polynomials and points come from one
    # master seed for every seed, while the nu grid varies
    for label, preset, functions in (("h3", H3, 16), ("block", BLOCK, 6)):
        ops.append(Op(f"cd-{label}", "verify-cd", _cfg(preset, CD_SEED, {
            "functions": functions, "points": 3, "nu_grid": nu_grid,
            "vertical_coeff_scale": 0.25})))
    # the solver works on the target dilated to unit homogeneous norm, so its
    # cost depends on the ratio |c| / |w|^2 (the geodesic's arc angle), on
    # the direction and sign of the target (a vertical target costs twice as
    # much above the identity as below it) and on its restart paths.  One
    # restart seed for all targets, one generic target per fixed ratio band,
    # each in its own sector of directions, and signs in equal numbers keep
    # that cost the same for every seed, while size, direction within the
    # sector and position in the band vary
    kinds = ["horizontal"] * 2 + ["vertical"] * 4 + ["generic"] * len(GENERIC_RATIOS)
    ratios = [0.0] * 6 + [lo + (hi - lo) * rnd.random() for lo, hi in GENERIC_RATIOS]
    sectors = [0, 1] + [0] * 4 + list(range(len(GENERIC_RATIOS)))
    of = [2] * 2 + [1] * 4 + [len(GENERIC_RATIOS)] * len(GENERIC_RATIOS)
    signs = [1.0] * 2 + [1.0, -1.0] * 2 + [1.0, -1.0] * (len(GENERIC_RATIOS) // 2)
    for i, (kind, ratio) in enumerate(zip(kinds, ratios)):
        w, c = _target(rnd, kind, sectors[i], of[i], signs[i], ratio)
        ops.append(Op(f"distance-{i}-{kind}", "distance", _cfg(H3, DISTANCE_SEED, {
            "target": {"w": w, "c": [c]}, "segments": 64, "restarts": 4}),
            meta={"kind": kind, "w": w, "c": c}))

    def check(ops, outdir, drawn):
        checks = []
        for op in ops:
            if op.experiment != "distance":
                continue
            report = json.loads(_read(outdir, op, "summary.json"))["report"]
            checks.append(check_distance(op.name, report["distance"], op.meta["w"],
                                         op.meta["c"], op.meta["kind"]))
        for preset in (H3, BLOCK):
            values, rho2, hs = witness_terms(_form(preset))
            checks += check_cd_witness(f"cd-witness-{preset['name']}", values, rho2, hs,
                                       nu_grid, 0.25 * rho2)
        return checks

    layers = ("differential.cd_terms", "differential.check_cd_inequality",
              "geometry.cc_distance", "records.records_to_csv", "cli.run")
    return Workload("calculus-geodesic", ops, layers, check)


WORKLOADS = {
    "mc-h3": mc_h3,
    "mc-wide": mc_wide,
    "grid-h3": grid_h3,
    "calculus-geodesic": calculus_geodesic,
}
