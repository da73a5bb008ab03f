"""Command-line driver: configuration, orchestration, and result files.

Every experiment consumes a JSON config (unknown keys are rejected), derives
one deterministic child seed per work item from the master seed (a sweep over
T is one item: its endpoint set is drawn once and dilated to each T; so is
convergence: it draws one path set, and its refinement and projection studies
both read it), and writes three files to the output directory:

* records.csv   - one VerificationRecord per row; the body is byte-identical
                  across runs for equal configs
* summary.json  - pass/fail counts and experiment-specific report values
* manifest.json - resolved config echo (every params default filled in from
                  PARAMS_DEFAULTS, and the ranks and points that runners
                  derive), artifact version, wall clock, the seconds spent
                  loading and validating the config (config_s), the number of
                  sample paths drawn (paths_drawn), failure list (the only
                  file carrying timing)

Exit code 0 when every record passes, 1 when any verification fails, 2 on
configuration errors.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, stochastic
from .curvature import curvature_constants, rho2
from .differential import check_cd_inequality
from .geometry import DistanceOptions, cc_distance
from .groups import GroupElement, HormanderError, identity, make_preset, preset_catalog
from .heat import (
    BumpFunction,
    SemigroupSampler,
    pde_oracle_h3,
    strong_feller_modulus,
    verify_integrated_harnack,
    verify_reverse_logsobolev,
    verify_reverse_poincare,
    verify_wang_harnack,
)
from .polynomials import random_polynomial
from .records import VerificationRecord, coords_str, fmt_float, records_to_csv, summarize
from .rng import child_seed
from .stochastic import convergence_study, sample_endpoints

EXPERIMENTS = [
    "curvature", "distance", "simulate", "convergence", "verify-cd",
    "verify-harnack", "verify-reverse-poincare", "verify-reverse-logsobolev",
    "verify-integrated-harnack", "verify-strong-feller", "oracle-h3",
    "list-presets",
]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    experiment: str
    preset_name: str
    preset_params: dict
    ranks: list
    seed: int
    out: str
    params: dict

    def echo(self) -> dict:
        return {
            "experiment": self.experiment,
            "preset": {"name": self.preset_name, "params": self.preset_params},
            "ranks": self.ranks,
            "seed": self.seed,
            "params": self.params,
        }


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "experiment": {"type": "string", "enum": EXPERIMENTS},
        "preset": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "name": {"type": "string"},
                "params": {"type": "object"},
            },
            "required": ["name"],
        },
        "ranks": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        # rng._encode packs each key part into 16 signed bytes
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**127 - 1},
        "out": {"type": "string"},
        "params": {"type": "object"},
    },
}

_NUM = {"type": "number"}
_POSNUM = {"type": "number", "exclusiveMinimum": 0}
_POSINT = {"type": "integer", "minimum": 1}
_EXPONENT = {"type": "number", "exclusiveMinimum": 1}
_VEC = {"type": "array", "items": _NUM}
_POINT = {
    "type": "object", "additionalProperties": False,
    "properties": {"w": _VEC, "c": _VEC}, "required": ["w", "c"],
}
_BUMP = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "center": _POINT, "radius": _POSNUM, "height": _POSNUM,
        "floor": {"type": "number", "minimum": 0},
    },
}
_GRID = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "box": {"type": "array", "items": {"type": "array", "items": _NUM,
                                           "minItems": 2, "maxItems": 2},
                "minItems": 3, "maxItems": 3},
        "shape": {"type": "array", "items": _POSINT, "minItems": 3, "maxItems": 3},
        # cfl_fraction: accepted and ignored; the grid solve takes no time steps
        "cfl_fraction": _POSNUM,
        "mollifier_cells": _POSNUM,
    },
}
_REVERSE = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "T_grid": {"type": "array", "items": _POSNUM, "minItems": 1},
        "samples": _POSINT, "steps": _POSINT,
        "points": {"type": "array", "items": _POINT, "minItems": 1},
        "bump": _BUMP,
    },
}

PARAMS_SCHEMAS = {
    "curvature": {"type": "object", "additionalProperties": False, "properties": {}},
    "list-presets": {"type": "object", "additionalProperties": False, "properties": {}},
    "distance": {
        "type": "object", "additionalProperties": False,
        "properties": {
            # restarts: accepted and ignored; every distance is exact
            "target": _POINT, "segments": _POSINT, "restarts": _POSINT,
        },
        "required": ["target"],
    },
    "simulate": {
        "type": "object", "additionalProperties": False,
        "properties": {"T": _POSNUM, "steps": _POSINT,
                       "samples": {"type": "integer", "minimum": 2}},
    },
    "convergence": {
        "type": "object", "additionalProperties": False,
        "properties": {
            "T": _POSNUM, "samples": _POSINT,
            "K_list": {"type": "array", "items": _POSINT, "minItems": 2},
            "p_moments": {"type": "array", "items": _POSINT, "minItems": 1},
        },
    },
    "verify-cd": {
        "type": "object", "additionalProperties": False,
        "properties": {
            "functions": _POSINT, "points": _POSINT, "max_degree": _POSINT,
            "terms": _POSINT, "nu_grid": {"type": "array", "items": _POSNUM, "minItems": 1},
            "box_half_width": _POSNUM,
            "vertical_coeff_scale": _POSNUM,
        },
    },
    "verify-harnack": {
        "type": "object", "additionalProperties": False,
        "properties": {
            "T": _POSNUM, "samples": _POSINT, "steps": _POSINT,
            "p_grid": {"type": "array", "items": _EXPONENT, "minItems": 1},
            "pairs": {"type": "array", "minItems": 1, "items": {
                "type": "object", "additionalProperties": False,
                "properties": {"x": _POINT, "y": _POINT, "dist_sq": {"type": "number", "minimum": 0}},
                "required": ["x", "y"],
            }},
            "bump": _BUMP,
        },
    },
    "verify-reverse-poincare": _REVERSE,
    "verify-reverse-logsobolev": _REVERSE,
    "verify-integrated-harnack": {
        "type": "object", "additionalProperties": False,
        "properties": {
            "T": _POSNUM,
            "q_grid": {"type": "array", "items": _EXPONENT, "minItems": 1},
            "ys": {"type": "array", "items": _POINT, "minItems": 1},
            "grid": _GRID, "grid_tol": _POSNUM,
        },
    },
    "verify-strong-feller": {
        "type": "object", "additionalProperties": False,
        "properties": {
            "T": _POSNUM, "samples": _POSINT, "steps": _POSINT,
            "x": _POINT, "direction": _VEC,
            "offsets": {"type": "array", "items": _POSNUM, "minItems": 1},
            "bump": _BUMP,
        },
    },
    "oracle-h3": {
        "type": "object", "additionalProperties": False,
        "properties": {"T": _POSNUM, "grid": _GRID},
    },
}

_ZERO = {"w": [0.0], "c": [0.0]}
_BUMP_DEFAULTS = {"center": _ZERO, "radius": 2.5, "height": 1.0, "floor": 0.0}
_SAMPLER_DEFAULTS = {"samples": 30000, "steps": 256}
_GRID_DEFAULTS = {"T": 1.0, "grid": {"box": [[-6, 6], [-6, 6], [-8, 8]], "shape": [96, 96, 128],
                                     "mollifier_cells": 3.0}}
_REVERSE_DEFAULTS = {"T_grid": [0.25, 0.5, 1.0, 2.0], **_SAMPLER_DEFAULTS, "bump": _BUMP_DEFAULTS}

# Every experiment's params defaults.  load_config merges a config's params
# over them, one level into the nested bump and grid objects, and the runners
# read the result.  The runners fill in the defaults derived from the form,
# and write them back into the config so that the manifest echoes them: the
# reverse sweeps' points, and the ranks of curvature and convergence.
PARAMS_DEFAULTS = {
    "curvature": {},
    "list-presets": {},
    "distance": {"segments": 64},
    "simulate": {"T": 1.0, "steps": 256, "samples": 10000},
    "convergence": {"T": 1.0, "samples": 2000, "K_list": [16, 32, 64, 128, 256],
                    "p_moments": [1, 2, 4]},
    "verify-cd": {"functions": 50, "points": 20, "max_degree": 4, "terms": 8,
                  "nu_grid": [0.1, 1.0, 10.0], "box_half_width": 3.0, "vertical_coeff_scale": 1.0},
    "verify-harnack": {"T": 1.0, **_SAMPLER_DEFAULTS, "p_grid": [1.5, 2.0, 4.0],
                       "bump": _BUMP_DEFAULTS, "pairs": [
        {"x": _ZERO, "y": _ZERO}, {"x": _ZERO, "y": {"w": [1.0], "c": [0.0]}},
        {"x": _ZERO, "y": {"w": [0.0, 0.5], "c": [0.0]}},
        {"x": {"w": [0.3], "c": [0.0]}, "y": {"w": [0.9], "c": [0.0]}},
        {"x": _ZERO, "y": {"w": [0.4, 0.4], "c": [0.1]}},
        {"x": {"w": [0.2, 0.1], "c": [0.0]}, "y": {"w": [-0.4, 0.6], "c": [0.15]}}]},
    "verify-reverse-poincare": _REVERSE_DEFAULTS,
    "verify-reverse-logsobolev": {**_REVERSE_DEFAULTS, "bump": {**_BUMP_DEFAULTS, "floor": 0.1}},
    "verify-integrated-harnack": {**_GRID_DEFAULTS, "q_grid": [1.5, 2.0, 3.0], "grid_tol": 0.02,
                                  "ys": [_ZERO, {"w": [0.5], "c": [0.0]},
                                         {"w": [0.0, -0.4], "c": [0.0]}, {"w": [0.0], "c": [0.25]},
                                         {"w": [0.3, 0.3], "c": [0.1]}]},
    "verify-strong-feller": {"T": 1.0, **_SAMPLER_DEFAULTS, "x": {"w": [0.4, 0.2], "c": [0.1]},
                             "direction": [1.0], "offsets": [0.5, 0.25, 0.125],
                             "bump": _BUMP_DEFAULTS},
    "oracle-h3": _GRID_DEFAULTS,
}

# load_config checks configs against the schemas above with _schema_errors.
# It implements only the JSON Schema keywords they use (_SCHEMA_KEYWORDS, with
# additionalProperties false only), and words and picks each error as the
# reference validator in the tests does; only the tests need that package,
# and they also check the schemas against their meta-schema.  Unlike draft
# 2020-12, an integer is never a float: 16.0 at an integer key would crash
# its runner.
_JSON_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float), "integer": int}
_SCHEMA_KEYWORDS = frozenset({"type", "enum", "minimum", "maximum", "exclusiveMinimum", "items",
                              "minItems", "maxItems", "properties", "additionalProperties",
                              "required"})


def _is(instance, name: str) -> bool:
    return isinstance(instance, _JSON_TYPES[name]) and not isinstance(instance, bool)


def _schema_errors(schema: dict, x, path=()):
    """Yield (path, message) for each violation, in the schema's key order."""
    for key, want in schema.items():
        if key == "type" and not _is(x, want):
            yield path, f"{x!r} is not of type {want!r}"
        elif key == "enum" and x not in want:
            yield path, f"{x!r} is not one of {want!r}"
        elif key == "minimum" and _is(x, "number") and x < want:
            yield path, f"{x!r} is less than the minimum of {want!r}"
        elif key == "maximum" and _is(x, "number") and x > want:
            yield path, f"{x!r} is greater than the maximum of {want!r}"
        elif key == "exclusiveMinimum" and _is(x, "number") and x <= want:
            yield path, f"{x!r} is less than or equal to the minimum of {want!r}"
        elif key == "items" and _is(x, "array"):
            for index, item in enumerate(x):
                yield from _schema_errors(want, item, path + (index,))
        elif key == "minItems" and _is(x, "array") and len(x) < want:
            yield path, f"{x!r} {'should be non-empty' if want == 1 else 'is too short'}"
        elif key == "maxItems" and _is(x, "array") and len(x) > want:
            yield path, f"{x!r} is too long"
        elif key == "properties" and _is(x, "object"):
            for name, sub in want.items():
                if name in x:
                    yield from _schema_errors(sub, x[name], path + (name,))
        elif key == "additionalProperties" and not want and _is(x, "object"):
            extras = sorted(set(x) - set(schema.get("properties", {})), key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                yield path, (f"Additional properties are not allowed "
                             f"({', '.join(map(repr, extras))} {verb} unexpected)")
        elif key == "required" and _is(x, "object"):
            for name in want:
                if name not in x:
                    yield path, f"{name!r} is a required property"


def _validate(schema: dict, instance, what: str) -> None:
    """Raise ConfigError with the message of the error a JSON Schema
    validator's best match picks: the shallowest, then the last by path, then
    the first found."""
    error = max(_schema_errors(schema, instance), key=lambda e: (-len(e[0]), e[0]), default=None)
    if error is not None:
        raise ConfigError(f"{what}: {error[1]}")


def load_config(experiment: str, path: str | None, seed_flag, out_flag) -> RunConfig:
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _validate(CONFIG_SCHEMA, raw, "config schema violation")
    if seed_flag is not None:
        _validate(CONFIG_SCHEMA["properties"]["seed"], seed_flag, "--seed")
    if "experiment" in raw and raw["experiment"] != experiment:
        raise ConfigError(
            f"config is for experiment {raw['experiment']!r}, command is {experiment!r}"
        )
    params = raw.get("params", {})
    _validate(PARAMS_SCHEMAS[experiment], params, f"invalid params for {experiment}")
    resolved = dict(PARAMS_DEFAULTS[experiment])
    for key, value in params.items():
        if isinstance(value, dict):     # a partial bump or grid keeps the other defaults
            value = {**resolved.get(key, {}), **value}
        resolved[key] = value
    preset = raw.get("preset", {"name": "heisenberg", "params": {"pairs": 1}})
    return RunConfig(
        experiment=experiment,
        preset_name=preset["name"],
        preset_params=preset.get("params", {}),
        ranks=list(raw.get("ranks", [])),
        seed=int(raw.get("seed", 20240801)) if seed_flag is None else seed_flag,
        out=raw.get("out", os.path.join("runs", experiment)) if out_flag is None else out_flag,
        params=copy.deepcopy(resolved),
    )


def _point(form, spec) -> GroupElement:
    w = np.zeros(form.n)
    c = np.zeros(form.d)
    ws = np.asarray(spec["w"], dtype=float)
    cs = np.asarray(spec["c"], dtype=float)
    if len(ws) > form.n or len(cs) > form.d:
        raise ConfigError(f"point has too many coordinates for n={form.n}, d={form.d}")
    w[: len(ws)] = ws
    c[: len(cs)] = cs
    return GroupElement(w, c)


def _bump(form, spec) -> BumpFunction:
    return BumpFunction(_point(form, spec["center"]), spec["radius"], spec["height"], spec["floor"])


# --------------------------------------------------------------------------
# experiments; each returns (records, summary_extras, artifacts)
# artifacts maps filename -> text content


def exp_curvature(cfg, form):
    ranks = cfg.ranks = cfg.ranks or [form.n]
    records, rows = [], ["rank,hs_norm_sq,rho2,harnack_coeff"]
    constants = {}
    for m in ranks:
        rid = f"curvature-rank{m}"
        try:
            c = curvature_constants(form.restrict(m))
        except HormanderError as exc:
            records.append(VerificationRecord(
                record_id=rid, rank=m, passed=False,
                detail={"error": str(exc)}))
            continue
        ok = (0.0 < c.rho2 <= c.hs_norm_sq + 1e-12
              and abs(np.trace(c.gram) - c.hs_norm_sq) <= 1e-9 * max(c.hs_norm_sq, 1)
              and c.harnack_coeff >= 3.0 - 1e-12)
        records.append(VerificationRecord(
            record_id=rid, rank=m,
            lhs=c.rho2, rhs=c.hs_norm_sq, margin=c.hs_norm_sq - c.rho2, passed=ok))
        constants[str(m)] = c.as_dict()
        rows.append(f"{m},{fmt_float(c.hs_norm_sq)},{fmt_float(c.rho2)},{fmt_float(c.harnack_coeff)}")
    return records, {"constants": constants}, {"constants.csv": "\n".join(rows) + "\n"}


def exp_distance(cfg, form):
    p = cfg.params
    target = _point(form, p["target"])
    e = identity(form)
    try:
        res = cc_distance(form, e, target, opts=DistanceOptions(segments=p["segments"]))
    except HormanderError as exc:
        rec = VerificationRecord(record_id="distance",
                                 rank=form.n, passed=False, detail={"error": str(exc)})
        return [rec], {"error": str(exc)}, {}
    rec = VerificationRecord(
        record_id="distance", rank=form.n,
        x=coords_str(e.coords()), y=coords_str(target.coords()),
        lhs=res.distance, rhs=res.distance,
        margin=res.constraint_residual, passed=True,
        detail={"energy": res.energy},
    )
    prof = res.witness.vertical_profile(form)
    lines = ["t," + ",".join(f"A{i+1}" for i in range(form.n))
             + "," + ",".join(f"a{l+1}" for l in range(form.d))]
    K = res.witness.segments
    for k in range(K + 1):
        cells = [fmt_float(k / max(K, 1))]
        cells += [fmt_float(v) for v in res.witness.nodes[k]]
        cells += [fmt_float(v) for v in prof[k]]
        lines.append(",".join(cells))
    extras = {"distance": res.distance, "energy": res.energy,
              "constraint_residual": res.constraint_residual}
    return [rec], extras, {"witness.csv": "\n".join(lines) + "\n"}


def exp_simulate(cfg, form):
    p = cfg.params
    T, steps, samples = p["T"], p["steps"], p["samples"]
    W, C = sample_endpoints(form, T, steps, samples, cfg.seed)
    header = ",".join([f"w{i+1}" for i in range(form.n)] + [f"c{l+1}" for l in range(form.d)])
    lines = [header] + [",".join(map(fmt_float, row)) for row in np.hstack([W, C]).tolist()]
    # every |mean c_l| must lie within 3 se_l; the smallest margin is reported
    abs_mean = np.abs(C.mean(axis=0))
    bound = 3.0 * (C.std(axis=0, ddof=1) / math.sqrt(samples))
    k = int(np.argmin(bound - abs_mean))
    rec = VerificationRecord(
        record_id="simulate-vertical-mean", rank=form.n, T=T,
        lhs=float(abs_mean[k]), rhs=float(bound[k]), margin=float(bound[k] - abs_mean[k]),
        passed=bool(np.all(abs_mean <= bound + 1e-12)),
    )
    return [rec], {"samples": samples, "T": T, "steps": steps}, \
        {"endpoints.csv": "\n".join(lines) + "\n"}


def exp_convergence(cfg, form):
    p = cfg.params
    T, K_list, samples, p_moments = p["T"], p["K_list"], p["samples"], p["p_moments"]
    # each projection-monotone record compares the lowest rank with the highest
    ranks = cfg.ranks = cfg.ranks or sorted({max(2, form.n // 4), form.n // 2, form.n})
    if len(ranks) < 2:
        raise ConfigError("convergence needs at least two ranks to compare")
    # one path set feeds both studies
    ref, rep = convergence_study(form, T, K_list, ranks, samples, p_moments=tuple(p_moments),
                                 seed=child_seed(cfg.seed, "projection", 0))
    order_ok = abs(ref.fitted_order - 0.5) <= 0.15
    records = [VerificationRecord(
        record_id="refinement-order", rank=form.n, T=T,
        lhs=ref.fitted_order, rhs=0.5, margin=0.15 - abs(ref.fitted_order - 0.5),
        passed=order_ok, detail={"rms": ref.rms})]
    for pm in p_moments:
        seq = rep.sequence(pm)
        records.append(VerificationRecord(
            record_id=f"projection-monotone-p{pm}",
            rank=form.n, T=T, p_or_q=pm,
            lhs=seq[-1], rhs=seq[0], margin=seq[0] - seq[-1], passed=rep.monotone_ok,
            detail={"errors": seq}))
    extras = {
        "refinement": {"K_list": ref.K_list, "rms": ref.rms, "order": ref.fitted_order},
        "projection": {"ranks": rep.ranks,
                       "errors": {f"p{pm}": rep.sequence(pm) for pm in p_moments}},
    }
    return records, extras, {}


def exp_verify_cd(cfg, form):
    p = cfg.params
    nu_grid, half_width = p["nu_grid"], p["box_half_width"]
    nvars = form.n + form.d
    vc = p["vertical_coeff_scale"] * rho2(form)

    records = []
    for idx in range(p["functions"]):
        rng = np.random.default_rng(child_seed(cfg.seed, "verify-cd", idx))
        f = random_polynomial(nvars, p["max_degree"], rng, terms=p["terms"])
        pts = rng.uniform(-half_width, half_width, size=(p["points"], nvars))
        recs = check_cd_inequality(form, f, pts, nu_grid, vertical_coeff=vc)
        for rec, (j, nu) in zip(recs, itertools.product(range(p["points"]), nu_grid)):
            rec.record_id = f"cd-f{idx}-x{j}-nu{nu:g}"
        records += recs
    worst = min((r.margin for r in records), default=float("nan"))
    return records, {"worst_margin": worst, "vertical_coeff": vc}, {}


def _sampler_for(cfg, form, T, p, key=None):
    return SemigroupSampler(form, T, p["steps"], p["samples"],
                            child_seed(cfg.seed, key or f"sampler-T{T:g}", 0))


def exp_verify_reverse_poincare(cfg, form, log_version=False):
    """Reverse Poincare (or log-Sobolev) records over a sweep of T.

    One endpoint set is drawn at T = 1 and dilated to every T of the sweep,
    so the sweep uses common random numbers across T: the records at
    different T are correlated, each one is still exact in law.
    """
    p = cfg.params
    T_grid, bump = p["T_grid"], _bump(form, p["bump"])
    points = [_point(form, q) for q in p.setdefault("points", _default_points(form))]
    constants = curvature_constants(form)
    verify = verify_reverse_logsobolev if log_version else verify_reverse_poincare
    name = "reverse-logsobolev" if log_version else "reverse-poincare"

    base = _sampler_for(cfg, form, 1.0, p, key="sampler-sweep")
    records = []
    for T in T_grid:
        sampler = base.dilated(T)
        for j, x in enumerate(points):
            records.append(verify(sampler, bump, x, constants,
                                  record_id=f"{name}-T{T:g}-x{j}"))
    return records, {"T_grid": T_grid, "points": len(points)}, {}


def exp_verify_reverse_logsobolev(cfg, form):
    return exp_verify_reverse_poincare(cfg, form, log_version=True)


def _default_points(form):
    pts = [{"w": [0.0] * form.n, "c": [0.0] * form.d}]
    base = [0.5, -0.4, 0.3, 0.6, -0.2, 0.1]
    for k in range(4):
        w = [base[(k + i) % len(base)] for i in range(min(form.n, 3))]
        c = [0.2 * (k - 1.5)] * min(form.d, 1)
        pts.append({"w": w, "c": c})
    return pts


def exp_verify_harnack(cfg, form):
    p = cfg.params
    T, p_grid, pairs = p["T"], p["p_grid"], p["pairs"]
    bump = _bump(form, p["bump"])
    constants = curvature_constants(form)
    sampler = _sampler_for(cfg, form, T, p)
    records = []
    for i, pair in enumerate(pairs):
        x, y = _point(form, pair["x"]), _point(form, pair["y"])
        # the energy of a unit-time geodesic is d^2, without a round trip
        # through the square root
        d2 = (float(pair["dist_sq"]) if "dist_sq" in pair
              else cc_distance(form, x, y).energy)
        records += verify_wang_harnack(sampler, bump, x, y, p_grid, d2, constants,
                                       record_id=f"wang-pair{i}")
    return records, {"T": T, "pairs": len(pairs)}, {}


def _grid_solve(form, p):
    """The H3 grid solve of a grid experiment, and the facts it reports.

    The stencil discretizes X = d/dw1 - (w2/2) d/dc and Y = d/dw2 + (w1/2) d/dc,
    so it solves only the n = 2, d = 1 form of unit weight.
    """
    if form.n != 2 or form.d != 1 or form.coeffs[0, 1, 0] != 1.0:
        raise ConfigError("the grid experiments require the n=2, d=1 group with "
                          "unit form coefficient")
    grid = p["grid"]
    density = pde_oracle_h3(
        "delta", p["T"], box=tuple(tuple(b) for b in grid["box"]), shape=tuple(grid["shape"]),
        mollifier_cells=grid["mollifier_cells"])
    facts = ("steps", "spectral_bound", "truncation_bound")
    return density, {"mass": density.mass, **{k: density.meta[k] for k in facts}}


def exp_verify_integrated_harnack(cfg, form):
    p = cfg.params
    q_grid, grid_tol = p["q_grid"], p["grid_tol"]
    constants = curvature_constants(form)
    density, extras = _grid_solve(form, p)
    ys = [_point(form, q) for q in p["ys"]]
    records = []
    for i, y in enumerate(ys):
        d2 = cc_distance(form, identity(form), y).energy
        records += verify_integrated_harnack(
            density, form, y, q_grid, d2, constants, grid_tol=grid_tol,
            record_id=f"integrated-harnack-y{i}")
    return records, {**extras, "mass_ok": density.mass_ok}, {}


def exp_verify_strong_feller(cfg, form):
    p = cfg.params
    T, dirspec, offsets = p["T"], p["direction"], p["offsets"]
    bump, x = _bump(form, p["bump"]), _point(form, p["x"])
    if len(dirspec) > form.n:
        raise ConfigError(f"direction has too many coordinates for n={form.n}")
    direction = np.pad(np.asarray(dirspec, dtype=float), (0, form.n - len(dirspec)))
    constants = curvature_constants(form)
    sampler = _sampler_for(cfg, form, T, p)
    records = strong_feller_modulus(sampler, bump, x, direction, offsets, constants,
                                    bump.sup_bound())
    return records, {"offsets": offsets,
                     "differences": [r.detail["difference"] for r in records]}, {}


# Inversion asymmetry max|u(z) - u(z^-1)| / max u of the grid solve at T = 1
# on the default box, against the largest grid spacing h and the mollifier
# width in cells m: 1.53e-3, 1.24e-3 and 0.88e-3 on 48x48x64, 64x64x85 and
# 96x96x128 (h = 0.255, 0.190, 0.126) at m = 3; 2.56e-3, 2.27e-3 and 1.05e-3
# at m = 1.5, 2 and 4 on 48x48x64; 1.88e-3 and 1.62e-3 at m = 1.5 and 2 on
# 64x64x85.  A least-squares fit of all eight gives 1.02e-2 h^0.77 m^-0.80 to
# within 11%, and its rounding below to within 13%: the asymmetry falls like
# h^0.8 at a fixed m, not like h^2, because a start that spans a fixed number
# of cells is never resolved better.  The solve is exact in time up to its
# truncation bound, so the asymmetry is the stencil's.  The record allows
# twice the fit, which also covers T = 2 (1.79e-3 on 48x48x64) and the
# benchmark grid (2.75e-3 at T = 0.25).
_SYMMETRY_FIT = (1.0e-2, 0.77, 0.8)


def _symmetry_record(density):
    """The inversion-symmetry record of a grid density: the heat kernel
    satisfies p(z^-1) = p(z), and the grid reverses every axis exactly."""
    u = density.values
    asym = float(np.abs(u - u[::-1, ::-1, ::-1]).max() / u.max())
    scale, h_power, cells_power = _SYMMETRY_FIT
    bound = (2.0 * scale * max(density.steps()) ** h_power
             * density.meta["mollifier_cells"] ** -cells_power)
    return VerificationRecord(record_id="oracle-inversion-symmetry",
                              rank=2, T=density.T, lhs=asym, rhs=bound,
                              margin=bound - asym, passed=asym < bound)


def exp_oracle_h3(cfg, form):
    density, extras = _grid_solve(form, cfg.params)
    symmetry = _symmetry_record(density)
    records = [
        VerificationRecord(record_id="oracle-mass", rank=form.n,
                           T=density.T, lhs=density.mass, rhs=0.99,
                           margin=density.mass - 0.99, passed=density.mass_ok),
        symmetry,
    ]
    return records, {**extras, "asymmetry": symmetry.lhs,
                     "asymmetry_bound": symmetry.rhs}, {}


def exp_list_presets(cfg, form):
    catalog = []
    records = []
    for name, params, entry in preset_catalog():
        c = curvature_constants(entry.form)
        catalog.append({
            "name": entry.name, "factory": name, "params": params,
            "n": entry.form.n, "d": entry.form.d,
            "description": entry.description,
            "constants": {"hs_norm_sq": c.hs_norm_sq, "rho2": c.rho2,
                          "harnack_coeff": c.harnack_coeff},
        })
        records.append(VerificationRecord(
            record_id=f"preset-{entry.name}", preset=entry.name,
            rank=entry.form.n, lhs=c.rho2, rhs=c.hs_norm_sq,
            margin=c.hs_norm_sq - c.rho2, passed=True))
    return records, {"presets": catalog}, {}


# every experiment runs the function named exp_<name, with "-" as "_">
RUNNERS = {name: globals()["exp_" + name.replace("-", "_")] for name in EXPERIMENTS}


def run(cfg: RunConfig, config_s: float) -> int:
    """Run one experiment and write its files; ``config_s``, the seconds
    ``main`` spent in ``load_config``, goes to the manifest, and so does
    ``paths_drawn``, the number of sample paths the run drew."""
    t0 = time.time()
    stochastic.paths_drawn = 0
    try:
        preset = make_preset(cfg.preset_name, **cfg.preset_params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid preset: {exc}") from exc
    form = preset.form
    if any(m > form.n for m in cfg.ranks):
        raise ConfigError(f"rank exceeds horizontal dimension {form.n}")
    records, extras, artifacts = RUNNERS[cfg.experiment](cfg, form)
    for rec in records:
        rec.preset = rec.preset or preset.name

    summary = summarize(records)
    summary["experiment"] = cfg.experiment
    summary["report"] = extras
    manifest = {
        "config": cfg.echo(),
        "version": __version__,
        "wall_clock_s": time.time() - t0,
        "config_s": config_s,
        "paths_drawn": stochastic.paths_drawn,
        "records": summary["records"],
        "passed": summary["passed"],
        "failed": summary["failed"],
        "failures": summary["failures"],
    }
    files = {"records.csv": records_to_csv(records),
             "summary.json": json.dumps(summary, indent=2, sort_keys=True) + "\n",
             "manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n",
             **artifacts}
    os.makedirs(cfg.out, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(cfg.out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    print(json.dumps({k: summary[k] for k in ("experiment", "records", "passed", "failed")}))
    return 0 if summary["failed"] == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heislab",
        description="Heisenberg-like projection groups: constants, distances, "
                    "simulation, and heat-semigroup inequality verification.")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="ignored; accepted so that older scripts keep working "
                             "(every experiment runs sequentially)")
    args = parser.parse_args(argv)

    try:
        t0 = time.perf_counter()
        cfg = load_config(args.experiment, args.config, args.seed, args.out)
        return run(cfg, time.perf_counter() - t0)
    except ValueError as exc:     # ConfigError and HormanderError among them
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
