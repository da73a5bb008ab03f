import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heislab.cli import _symmetry_record, load_config, main
from heislab.geometry import DistanceOptions, HorizontalPath, cc_distance
from heislab.groups import (
    GroupElement, OmegaForm, dilate, identity, inverse, make_preset, multiply, preset_catalog,
)
from heislab.heat import pde_oracle_h3

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_checks", ROOT / "bench" / "checks.py")
bench_checks = sys.modules.setdefault("bench_checks", importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(bench_checks)

SMALL_GRID = {"box": [[-4, 4], [-4, 4], [-5, 5]], "shape": [32, 32, 40],
              "mollifier_cells": 3.0}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"unknown": 1})
        assert main(["curvature", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_unknown_param_key(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"params": {"typo_tolerance": 1}})
        assert main(["verify-cd", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_experiment_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"experiment": "distance"})
        assert main(["curvature", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_invalid_preset(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"preset": {"name": "wiener_truncation",
                                       "params": {"pairs": 2, "s": 0.5}}})
        assert main(["curvature", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["curvature", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("experiment, params", [
        ("verify-strong-feller", {"offsets": []}),
        ("verify-strong-feller", {"direction": [0.0], "samples": 50, "steps": 4}),
        ("verify-cd", {"nu_grid": []}),
        ("verify-reverse-poincare", {"T_grid": []}),
        ("verify-reverse-logsobolev", {"points": []}),
        ("verify-harnack", {"p_grid": []}),
        ("verify-harnack", {"pairs": []}),
        ("verify-integrated-harnack", {"q_grid": []}),
        ("verify-integrated-harnack", {"ys": []}),
        ("convergence", {"p_moments": []}),
    ])
    def test_config_that_cannot_fail_is_rejected(self, tmp_path, experiment, params):
        cfg = write_config(tmp_path, "c.json", {"params": params})
        out = tmp_path / "o"
        assert main([experiment, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_seed_and_out_flags_override(self, tmp_path):
        cfg_path = write_config(tmp_path, "c.json", {"seed": 1, "out": "ignored"})
        cfg = load_config("curvature", cfg_path, 999, str(tmp_path / "real"))
        assert cfg.seed == 999
        assert cfg.out == str(tmp_path / "real")


class TestCurvatureCommand:
    def test_heisenberg_constants(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["curvature", "--out", out]) == 0
        summary = read_summary(out)
        consts = summary["report"]["constants"]["2"]
        assert consts["hs_norm_sq"] == pytest.approx(2.0)
        assert consts["rho2"] == pytest.approx(2.0)
        assert consts["harnack_coeff"] == pytest.approx(3.0)
        assert os.path.exists(os.path.join(out, "constants.csv"))
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_rank_sweep(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "preset": {"name": "wiener_truncation", "params": {"pairs": 4, "s": 2}},
            "ranks": [2, 4, 8],
        })
        out = str(tmp_path / "o")
        assert main(["curvature", "--config", cfg, "--out", out]) == 0
        summary = read_summary(out)
        hs = [summary["report"]["constants"][str(m)]["hs_norm_sq"] for m in (2, 4, 8)]
        assert hs[0] <= hs[1] <= hs[2]

    def test_rank_beyond_dimension(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"ranks": [5]})
        assert main(["curvature", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestDistanceCommand:
    def test_vertical_target_matches_oracle(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "params": {"target": {"w": [0.0, 0.0], "c": [1.0]},
                       "segments": 64, "restarts": 16},
        })
        out = str(tmp_path / "o")
        assert main(["distance", "--config", cfg, "--out", out]) == 0
        summary = read_summary(out)
        assert summary["report"]["distance"] == pytest.approx(2 * np.sqrt(np.pi), rel=1e-2)
        witness = open(os.path.join(out, "witness.csv")).read().splitlines()
        assert witness[0] == "t,A1,A2,a1"
        assert len(witness) == 66  # header + 65 nodes


class TestSimulateAndConvergence:
    def test_simulate_writes_endpoints(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "params": {"T": 1.0, "steps": 64, "samples": 500}})
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        rows = open(os.path.join(out, "endpoints.csv")).read().splitlines()
        assert rows[0] == "w1,w2,c1"
        assert len(rows) == 501

    def test_convergence_reports(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "preset": {"name": "wiener_truncation", "params": {"pairs": 4, "s": 2}},
            "ranks": [2, 4, 8],
            "params": {"T": 1.0, "samples": 400, "K_list": [16, 32, 64, 128]},
        })
        out = str(tmp_path / "o")
        assert main(["convergence", "--config", cfg, "--out", out]) == 0
        rep = read_summary(out)["report"]
        assert abs(rep["refinement"]["order"] - 0.5) <= 0.15
        assert rep["projection"]["ranks"] == [2, 4, 8]


class TestVerifyCommands:
    def test_verify_cd_quarter_coefficient_passes(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "params": {"functions": 10, "points": 5,
                       "vertical_coeff_scale": 0.25}})
        out = str(tmp_path / "o")
        assert main(["verify-cd", "--config", cfg, "--out", out]) == 0

    def test_verify_cd_paper_coefficient_fails(self, tmp_path):
        # the nominal vertical coefficient admits pointwise counterexamples,
        # which the runner must surface as a nonzero exit code
        cfg = write_config(tmp_path, "c.json", {
            "seed": 5,
            "params": {"functions": 40, "points": 10}})
        out = str(tmp_path / "o")
        assert main(["verify-cd", "--config", cfg, "--out", out]) == 1
        summary = read_summary(out)
        assert summary["failed"] > 0

    def test_verify_cd_builds_the_calculus_once_per_function(self, tmp_path, monkeypatch):
        import heislab.differential as differential

        calls, real = [], differential.cd_terms

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(differential, "cd_terms", counted)
        cfg = write_config(tmp_path, "c.json", {
            "params": {"functions": 3, "points": 4, "nu_grid": [0.5, 1.0, 2.0],
                       "vertical_coeff_scale": 0.25}})
        out = str(tmp_path / "o")
        assert main(["verify-cd", "--config", cfg, "--out", out]) == 0
        assert len(calls) == 3
        assert read_summary(out)["records"] == 36

    def test_reverse_poincare_small(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "params": {"T_grid": [0.5], "samples": 4000, "steps": 64,
                       "points": [{"w": [0.4, 0.2], "c": [0.1]}]}})
        out = str(tmp_path / "o")
        assert main(["verify-reverse-poincare", "--config", cfg, "--out", out]) == 0

    def test_reverse_logsobolev_small(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "params": {"T_grid": [0.5], "samples": 4000, "steps": 64,
                       "points": [{"w": [0.4, 0.2], "c": [0.1]}],
                       "bump": {"radius": 2.5, "floor": 0.1}}})
        out = str(tmp_path / "o")
        assert main(["verify-reverse-logsobolev", "--config", cfg, "--out", out]) == 0

    def test_harnack_small(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "params": {"T": 1.0, "samples": 4000, "steps": 64,
                       "p_grid": [2.0],
                       "pairs": [{"x": {"w": [0], "c": [0]},
                                  "y": {"w": [1.0], "c": [0]},
                                  "dist_sq": 1.0}]}})
        out = str(tmp_path / "o")
        assert main(["verify-harnack", "--config", cfg, "--out", out]) == 0

    def test_strong_feller_small(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "params": {"T": 1.0, "samples": 4000, "steps": 64,
                       "offsets": [0.5, 0.25]}})
        out = str(tmp_path / "o")
        assert main(["verify-strong-feller", "--config", cfg, "--out", out]) == 0

    def test_integrated_harnack_small(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "params": {"T": 0.6, "q_grid": [2.0],
                       "ys": [{"w": [0.4], "c": [0]}],
                       "grid": SMALL_GRID}})
        out = str(tmp_path / "o")
        assert main(["verify-integrated-harnack", "--config", cfg, "--out", out]) == 0

    def test_integrated_harnack_needs_h3(self, tmp_path):
        _assert_grid_rejects_non_unit_h3(tmp_path, "verify-integrated-harnack")

    def test_oracle_h3_needs_h3(self, tmp_path):
        _assert_grid_rejects_non_unit_h3(tmp_path, "oracle-h3")

    def test_oracle_h3_small(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "params": {"T": 0.5, "grid": SMALL_GRID}})
        out = str(tmp_path / "o")
        assert main(["oracle-h3", "--config", cfg, "--out", out]) == 0
        summary = read_summary(out)
        assert summary["report"]["mass"] > 0.99

    def test_oracle_h3_symmetry_scales_with_the_grid(self, tmp_path):
        # 48x48x64 at T = 1: asymmetry 1.53e-3, once rejected by a fixed 1e-3
        cfg = write_config(tmp_path, "c.json", {"params": {"grid": {"shape": [48, 48, 64]}}})
        out = str(tmp_path / "o")
        assert main(["oracle-h3", "--config", cfg, "--out", out]) == 0
        report = read_summary(out)["report"]
        assert report["asymmetry"] == pytest.approx(1.53e-3, rel=0.01)
        assert report["asymmetry"] < report["asymmetry_bound"] < 2.5 * report["asymmetry"]

    def test_oracle_h3_symmetry_fails_on_injected_asymmetry(self):
        preset = make_preset("heisenberg", pairs=1)
        density = pde_oracle_h3("delta", 0.5, box=tuple(map(tuple, SMALL_GRID["box"])),
                                shape=tuple(SMALL_GRID["shape"]), mollifier_cells=3.0)
        assert _symmetry_record(density, preset).passed
        # one percent of the peak added at one node off the centre
        density.values[18, 14, 22] += 0.01 * density.values.max()
        rec = _symmetry_record(density, preset)
        assert not rec.passed and rec.lhs > 0.009

    def test_grid_experiments_report_the_same_solve(self, tmp_path):
        params = {"T": 0.3, "grid": {"box": [[-3, 3], [-3, 3], [-2, 2]], "shape": [17, 17, 21]}}
        facts = []
        for experiment in ("oracle-h3", "verify-integrated-harnack"):
            cfg = write_config(tmp_path, f"{experiment}.json", {"params": params})
            out = str(tmp_path / experiment)
            assert main([experiment, "--config", cfg, "--out", out]) in (0, 1)
            report = read_summary(out)["report"]
            facts.append({k: report[k] for k in ("steps", "dt", "stability_bound", "stages",
                                                 "operator_applications")})
        assert facts[0] == facts[1]
        assert facts[0]["steps"] * facts[0]["dt"] == pytest.approx(0.3)
        assert facts[0]["dt"] <= facts[0]["stability_bound"]
        assert facts[0]["operator_applications"] == facts[0]["stages"] * facts[0]["steps"]


def _assert_grid_rejects_non_unit_h3(tmp_path, experiment):
    """The grid solves only the unit-weight n=2, d=1 group: heisenberg(2) has
    the wrong dimensions, and block_sum([3]) the right ones with weight 3."""
    for name, params in (("heisenberg", {"pairs": 2}), ("block_sum", {"weights": [3]})):
        cfg = write_config(tmp_path, f"{name}.json", {
            "preset": {"name": name, "params": params},
            "params": {"T": 0.25, "grid": {"box": [[-3, 3], [-3, 3], [-2, 2]],
                                           "shape": [9, 9, 11]}}})
        out = tmp_path / f"o-{name}"
        assert main([experiment, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()


CATALOG = [pytest.param(entry.form, id=entry.name) for _, _, entry in preset_catalog()]


def _rotated_copy(form):
    """``form`` with one free coordinate appended, rotated by 45 degrees in
    (w1, w_free): the same group, but no row of the copy is one pair, so
    ``cc_distance`` solves it numerically.  Returns the copy and the rotation."""
    n = form.n + 1
    coeffs = np.zeros((n, n, form.d))
    coeffs[:-1, :-1] = form.coeffs
    rot = np.eye(n)
    rot[np.ix_([0, n - 1], [0, n - 1])] = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    return OmegaForm(n, form.d, np.einsum("ai,ijl,bj->abl", rot, coeffs, rot)), rot


def _solver_on_rotated_copy(form, target, warm=None):
    """The solver's distance from the identity to ``target`` on the rotated
    copy; ``warm`` is a witness on ``form`` to start one restart from."""
    copy, rot = _rotated_copy(form)
    if warm is not None:
        warm = HorizontalPath(np.pad(warm.nodes, ((0, 0), (0, 1))) @ rot.T, warm.start_vertical)
    res = cc_distance(copy, identity(copy), GroupElement(rot @ np.append(target.w, 0.0), target.c),
                      opts=DistanceOptions(restarts=4, seed=3), warm=warm)
    assert res.diagnostics["method"] == "solver"
    return res.distance


def _q_max(form):
    # on a sum of weighted pairs the spectral norm is the largest |entry|
    return float(np.abs(form.coeffs).max())


class TestDistanceSq:
    """The squared distances of the Harnack checks, cc_distance(...).distance
    ** 2: exact in closed form on every preset (a direct sum of weighted
    pairs), and on any form for a horizontal separation z = x^-1 y."""

    PRESETS = [pytest.param("heisenberg", {"pairs": 2}, 1.0, id="heisenberg(2)"),
               pytest.param("wiener_truncation", {"pairs": 3, "s": 2}, 1.0,
                            id="wiener_truncation(3,2)"),
               pytest.param("block_sum", {"weights": [3]}, 3.0, id="block_sum([3])")]
    OPTS = DistanceOptions(restarts=4, seed=3)

    @staticmethod
    def _x(form):
        # dyadic coordinates keep x * (h, 0) and x * (0, c) exactly horizontal
        # and vertical after x^-1
        return GroupElement(np.resize([0.5, -0.25, 0.75], form.n), [0.125])

    @pytest.mark.parametrize("name,params,q_max", PRESETS)
    def test_horizontal_is_the_segment(self, name, params, q_max):
        form = make_preset(name, **params).form
        x = self._x(form)
        h = np.resize([0.25, 0.5, -0.75], form.n)
        y = multiply(form, x, GroupElement(h, [0.0]))
        res = cc_distance(form, x, y)
        assert res.distance ** 2 == pytest.approx(h @ h, rel=1e-15)
        assert res.diagnostics["method"] == "closed-form"

    @pytest.mark.parametrize("name,params,q_max", PRESETS)
    def test_vertical_is_the_circle(self, name, params, q_max):
        form = make_preset(name, **params).form
        x, c = self._x(form), 0.375
        y = multiply(form, x, GroupElement(np.zeros(form.n), [c]))
        res = cc_distance(form, x, y, opts=self.OPTS)
        assert res.distance ** 2 == pytest.approx(4.0 * np.pi * c / q_max, rel=1e-15)
        # the witness is the circle sampled at 65 points: a regular 64-gon,
        # shorter by the factor (64 / pi) sin(pi / 64) and enclosing the
        # fraction 64 sin(2 pi / 64) / (2 pi) of the circle's area
        assert res.witness.length() / res.distance == pytest.approx(
            64 / np.pi * np.sin(np.pi / 64), rel=1e-9)
        assert res.constraint_residual == pytest.approx(
            c * (1 - 64 * np.sin(2 * np.pi / 64) / (2 * np.pi)), rel=1e-9)

    def test_vertical_on_an_unpaired_form_uses_the_solver(self):
        # heisenberg(2) weighted (1, 2) and rotated by 45 degrees in (w1, w3):
        # no row is one pair, so the solver runs; the loop in the pair of
        # weight 2 gives the exact 4 pi c / 2
        rot = np.eye(4)
        rot[np.ix_([0, 2], [0, 2])] = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
        pairs = np.zeros((4, 4))
        pairs[0, 1], pairs[2, 3] = 1.0, 2.0
        form = OmegaForm(4, 1, (rot @ (pairs - pairs.T) @ rot.T)[:, :, None])
        x, y = identity(form), GroupElement(np.zeros(4), [0.375])
        res = cc_distance(form, x, y, opts=self.OPTS)
        assert res.diagnostics["method"] == "solver"
        exact = 4.0 * np.pi * 0.375 / 2.0
        assert exact <= res.distance ** 2 <= exact * (1 + 1e-3) ** 2

    @pytest.mark.parametrize("name,params,q_max", PRESETS)
    def test_other_targets_use_the_solver(self, name, params, q_max):
        # generic targets take the closed form on the preset; on its rotated
        # copy the solver runs and lands at most 1e-3 above it
        form = make_preset(name, **params).form
        x = self._x(form)
        y = multiply(form, x, GroupElement(np.resize([0.25, 0.5], form.n), [0.375]))
        res = cc_distance(form, x, y)
        assert res.diagnostics["method"] == "closed-form"
        solver = _solver_on_rotated_copy(form, multiply(form, inverse(x), y))
        assert res.distance <= solver <= res.distance * (1 + 1e-3)

    @pytest.mark.parametrize("form", CATALOG)
    def test_loop_branch(self, form):
        # the heaviest pair of vertical coordinate 0 rests (zero chord), the
        # others move a little: past S(2 pi / q_max) a loop in the heaviest
        # pair carries the rest of c, at squared length 4 pi / q_max per unit
        pairs = [(i, j, abs(form.coeffs[i, j, 0])) for i in range(form.n)
                 for j in range(i + 1, form.n) if form.coeffs[i, j, 0] != 0]
        q_max = max(q for _, _, q in pairs)
        w = np.zeros(form.n)
        for i, j, q in pairs:
            if q < q_max:
                w[i], w[j] = 0.3, -0.2
        c = np.zeros(form.d)
        d2 = []
        for c0 in (2.0, 2.5):
            c[0] = c0
            res = cc_distance(form, identity(form), GroupElement(w, c))
            assert res.diagnostics["method"] == "closed-form"
            assert res.diagnostics["loop_area"][0] > 0
            d2.append(res.distance ** 2)
        assert d2[1] - d2[0] == pytest.approx(4 * np.pi * 0.5 / q_max, rel=1e-9)
        # cold, the solver misses the loop on the 8- and 16-pair presets (10.9
        # against 5.68 on wiener_truncation(8,2)), but it never goes below;
        # started from the geodesic it stays within 1e-3 of it
        target = GroupElement(w, c)
        assert res.distance <= _solver_on_rotated_copy(form, target)
        assert res.distance <= _solver_on_rotated_copy(form, target, warm=res.witness) \
            <= res.distance * (1 + 1e-3)

    @pytest.mark.parametrize("form", CATALOG)
    def test_lower_bound_dilation_and_symmetry(self, form):
        # a horizontal path is no shorter than its projection |w|.  Pair j of
        # length L_j adds at most q_max L_j^2 / (2 pi) to |c| between its arc
        # and its chord (Dido), and closed with the chord at most
        # q_max (L_j + |w_j|)^2 / (4 pi) (isoperimetry): 4 pi |c| / q_max
        # bounds d^2 only for w = 0
        rng = np.random.default_rng(form.n * 10 + form.d)
        e = identity(form)
        for k in range(12):
            z = GroupElement(rng.uniform(-1, 1, form.n) * (k % 3 != 0),
                             rng.uniform(-2, 2, form.d) * 10.0 ** rng.uniform(-4, 0))
            d = cc_distance(form, e, z).distance
            wn, area = np.linalg.norm(z.w), np.linalg.norm(z.c) / _q_max(form)
            lower = max(wn, math.sqrt(2 * np.pi * area), math.sqrt(4 * np.pi * area) - wn)
            assert d >= lower * (1 - 1e-13)
            assert cc_distance(form, e, dilate(1.7, z)).distance == pytest.approx(1.7 * d,
                                                                                 rel=1e-12)
            assert cc_distance(form, z, e).distance == pytest.approx(d, rel=1e-12)

    @pytest.mark.parametrize("form", CATALOG)
    def test_closed_form_below_the_solver(self, form):
        rng = np.random.default_rng(form.n + 100 * form.d)
        for c_scale in (0.05, 0.5):
            z = GroupElement(rng.uniform(-0.6, 0.6, form.n), rng.uniform(-c_scale, c_scale, form.d))
            d = cc_distance(form, identity(form), z).distance
            assert d <= _solver_on_rotated_copy(form, z) <= d * (1 + 1e-3)

    def test_matches_gaveau_on_h3(self):
        form = make_preset("heisenberg", pairs=1).form
        rng = np.random.default_rng(9)
        for _ in range(200):
            w = rng.uniform(-2, 2, 2) * (rng.random() < 0.9)
            c = rng.uniform(-3, 3) * 10.0 ** rng.uniform(-6, 1)
            d = cc_distance(form, identity(form), GroupElement(w, [c])).distance
            assert d == pytest.approx(bench_checks.gaveau_distance(w, c), rel=1e-12)


class TestScipyFree:
    def test_preset_runs_never_import_scipy(self, tmp_path):
        # the benchmark's set-up steps, then default simulate and verify-cd, a
        # small-grid verify-integrated-harnack and a heisenberg(1) distance,
        # in a fresh interpreter; the solver still runs on a form that is not
        # a sum of pairs, importing scipy only then
        ih = write_config(tmp_path, "ih.json", {"params": {"grid": SMALL_GRID, "T": 0.5}})
        dist = write_config(tmp_path, "d.json", {"params": {"target": {"w": [0.3, 0.2],
                                                                       "c": [0.4]}}})
        code = f"""
import json, sys
import numpy as np
import heislab.cli as cli
cfg = cli.load_config("simulate", None, None, {str(tmp_path / "setup")!r})
preset = cli.make_preset(cfg.preset_name, **cfg.preset_params)
cli.curvature_constants(preset.form)
codes = [cli.main([exp, *extra, "--out", {str(tmp_path)!r} + "/" + exp]) for exp, extra in (
    ("simulate", []), ("verify-cd", []),
    ("verify-integrated-harnack", ["--config", {ih!r}]), ("distance", ["--config", {dist!r}]))]
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from heislab.geometry import cc_distance
from heislab.groups import GroupElement, OmegaForm, identity
rot = np.eye(4)
rot[np.ix_([0, 2], [0, 2])] = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
pairs = np.zeros((4, 4))
pairs[0, 1], pairs[2, 3] = 1.0, 2.0
form = OmegaForm(4, 1, (rot @ (pairs - pairs.T) @ rot.T)[:, :, None])
res = cc_distance(form, identity(form), GroupElement([0.3, 0.1, -0.2, 0.2], [0.3]))
print(json.dumps({{"codes": codes, "before": before, "method": res.diagnostics["method"],
                   "distance": res.distance, "after": "scipy.optimize" in sys.modules}}))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        # verify-cd exits 1 at its nominal default coefficient
        assert got["codes"] == [0, 1, 0, 0]
        assert got["before"] == []
        assert got["method"] == "solver" and got["after"] and got["distance"] > 0


class TestListPresets:
    def test_catalog(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["list-presets", "--out", out]) == 0
        names = [p["factory"] for p in read_summary(out)["report"]["presets"]]
        assert "heisenberg" in names
        assert "wiener_truncation" in names
        assert "block_sum" in names


class TestDeterminism:
    def test_byte_identical_records_across_workers(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "seed": 12,
            "params": {"functions": 12, "points": 4,
                       "vertical_coeff_scale": 0.25}})
        bodies = []
        for workers in (1, 4):
            out = str(tmp_path / f"o{workers}")
            assert main(["verify-cd", "--config", cfg, "--out", out,
                         "--workers", str(workers)]) == 0
            with open(os.path.join(out, "records.csv"), "rb") as fh:
                bodies.append(fh.read())
        assert bodies[0] == bodies[1]

    def test_sweep_records_identical_across_workers(self, tmp_path):
        # every T of the sweep is dilated from one shared endpoint set
        cfg = write_config(tmp_path, "c.json", {
            "seed": 12,
            "params": {"T_grid": [0.5, 2.0], "samples": 1000, "steps": 32,
                       "points": [{"w": [0.4, 0.2], "c": [0.1]}]}})
        bodies = []
        for workers in (1, 4):
            out = str(tmp_path / f"o{workers}")
            assert main(["verify-reverse-poincare", "--config", cfg, "--out", out,
                         "--workers", str(workers)]) == 0
            with open(os.path.join(out, "records.csv"), "rb") as fh:
                bodies.append(fh.read())
            assert read_summary(out)["report"]["paths_drawn"] == 1000
        assert bodies[0] == bodies[1]

    def test_workers_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HEISLAB_WORKERS", "2")
        out = str(tmp_path / "o")
        assert main(["curvature", "--out", out]) == 0

    def test_manifest_roundtrip(self, tmp_path):
        import jsonschema

        from heislab.cli import CONFIG_SCHEMA

        out = str(tmp_path / "o")
        assert main(["curvature", "--out", out]) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["config"]["experiment"] == "curvature"
        assert manifest["failed"] == 0
        assert manifest["records"] == manifest["passed"] + manifest["failed"]
        # the config echo re-validates against the schema
        jsonschema.validate(manifest["config"], CONFIG_SCHEMA)
        # the pass/fail summary matches the emitted records exactly
        rows = open(os.path.join(out, "records.csv")).read().splitlines()[1:]
        assert manifest["records"] == len(rows)
        assert manifest["passed"] == sum(r.endswith("true") for r in rows)
