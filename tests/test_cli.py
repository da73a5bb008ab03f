import json
import os

import numpy as np
import pytest

from heislab.cli import _distance_sq, load_config, main
from heislab.geometry import DistanceOptions, cc_distance
from heislab.groups import GroupElement, OmegaForm, identity, make_preset, multiply

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
        code = main(["oracle-h3", "--config", cfg, "--out", out])
        summary = read_summary(out)
        assert summary["report"]["mass"] > 0.99
        assert code in (0, 1)  # symmetry at the coarse test grid may miss 1e-3

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


class TestDistanceSq:
    """The squared distances of the Harnack checks: exact where z = x^-1 y is
    horizontal, or vertical on a d = 1 form; ``cc_distance`` otherwise."""

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
        assert _distance_sq(form, x, y, self.OPTS) == pytest.approx(h @ h, rel=1e-15)

    @pytest.mark.parametrize("name,params,q_max", PRESETS)
    def test_vertical_is_the_circle(self, name, params, q_max):
        form = make_preset(name, **params).form
        x, c = self._x(form), 0.375
        y = multiply(form, x, GroupElement(np.zeros(form.n), [c]))
        exact = _distance_sq(form, x, y, self.OPTS)
        assert exact == pytest.approx(4.0 * np.pi * c / q_max, rel=1e-15)
        # the solver's best 64-segment loop is the regular 64-gon, longer than
        # the circle by the factor K tan(pi / K) / pi in squared length
        solver = cc_distance(form, x, y, opts=self.OPTS).distance ** 2
        assert solver / exact == pytest.approx(64 * np.tan(np.pi / 64) / np.pi, rel=1e-9)

    def test_vertical_on_an_unpaired_form_uses_the_solver(self):
        # heisenberg(2) weighted (1, 2) and rotated by 45 degrees in (w1, w3):
        # no entry reaches the spectral norm 2, so the circle formula would
        # read q_max off the entries wrongly
        rot = np.eye(4)
        rot[np.ix_([0, 2], [0, 2])] = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
        pairs = np.zeros((4, 4))
        pairs[0, 1], pairs[2, 3] = 1.0, 2.0
        form = OmegaForm(4, 1, (rot @ (pairs - pairs.T) @ rot.T)[:, :, None])
        x, y = identity(form), GroupElement(np.zeros(4), [0.375])
        assert _distance_sq(form, x, y, self.OPTS) == \
            cc_distance(form, x, y, opts=self.OPTS).distance ** 2

    @pytest.mark.parametrize("name,params,q_max", PRESETS)
    def test_other_targets_use_the_solver(self, name, params, q_max):
        form = make_preset(name, **params).form
        x = self._x(form)
        y = multiply(form, x, GroupElement(np.resize([0.25, 0.5], form.n), [0.375]))
        assert _distance_sq(form, x, y, self.OPTS) == \
            cc_distance(form, x, y, opts=self.OPTS).distance ** 2


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
