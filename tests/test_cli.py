import copy
import csv
import importlib.util
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from jsonschema.exceptions import best_match
from jsonschema.validators import extend, validator_for

from heislab.cli import (
    _SCHEMA_KEYWORDS, CONFIG_SCHEMA, EXPERIMENTS, PARAMS_DEFAULTS, PARAMS_SCHEMAS, ConfigError,
    _symmetry_record, _validate, load_config, main,
)
from heislab.geometry import cc_distance
from heislab.groups import (
    GroupElement, OmegaForm, identity, inverse, make_preset, multiply, preset_catalog,
)
from heislab.heat import (
    SemigroupSampler, _chebyshev_coefficients, _spectral_radius_bound, pde_oracle_h3,
)

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_checks", ROOT / "bench" / "checks.py")
bench_checks = sys.modules.setdefault("bench_checks", importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(bench_checks)

SMALL_GRID = {"box": [[-4, 4], [-4, 4], [-5, 5]], "shape": [32, 32, 40],
              "mollifier_cells": 3.0}

H3_NAME = make_preset("heisenberg", pairs=1).name
TINY_MC = {"samples": 200, "steps": 8}
TINY_GRID = {"T": 0.3, "grid": {"box": [[-3, 3], [-3, 3], [-2, 2]], "shape": [17, 17, 21]}}
# a config per experiment small enough to run twice in well under a second
TINY = {
    "curvature": {},
    "distance": {"target": {"w": [0.3, 0.2], "c": [0.4]}},
    "simulate": {"samples": 50, "steps": 8},
    "convergence": {"samples": 50, "K_list": [4, 8]},
    "verify-cd": {"functions": 2, "points": 3},
    "verify-harnack": TINY_MC,
    "verify-reverse-poincare": {**TINY_MC, "T_grid": [0.5, 1.0]},
    "verify-reverse-logsobolev": {**TINY_MC, "T_grid": [0.5, 1.0]},
    "verify-integrated-harnack": TINY_GRID,
    "verify-strong-feller": TINY_MC,
    "oracle-h3": TINY_GRID,
    "list-presets": {},
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"unknown": 1})
        assert main(["curvature", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_unknown_param_key(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"params": {"typo_tolerance": 1}})
        assert main(["verify-cd", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("experiment", ["verify-reverse-poincare",
                                            "verify-reverse-logsobolev"])
    def test_reverse_step_size_is_rejected(self, tmp_path, experiment):
        # the squared gradients are pathwise derivatives: there is no step h
        cfg = write_config(tmp_path, "c.json", {"params": {**TINY[experiment], "h": 1e-3}})
        assert main([experiment, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

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
        # one sample has no standard error
        ("simulate", {"samples": 1}),
        ("verify-reverse-poincare", {"points": []}),
        # one rank has nothing to be compared with
        ("convergence", {"ranks": [2]}),
    ])
    def test_config_that_cannot_fail_is_rejected(self, tmp_path, experiment, params):
        # ranks is a top-level key, the one such key among the cases
        raw = {"ranks": params["ranks"]} if "ranks" in params else {"params": params}
        cfg = write_config(tmp_path, "c.json", raw)
        out = tmp_path / "o"
        assert main([experiment, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("experiment, params", [
        # draft 2020-12 counts 16.0 as an integer; the runners cannot
        ("simulate", {"steps": 16.0, "samples": 100}),
        ("convergence", {"K_list": [16.0, 32]}),
    ])
    def test_integral_float_at_an_integer_key_is_rejected(self, tmp_path, capsys, experiment,
                                                          params):
        cfg = write_config(tmp_path, "c.json", {"params": params})
        out = tmp_path / "o"
        assert main([experiment, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"configuration error: invalid params for "
                                           f"{experiment}: 16.0 is not of type 'integer'\n")
        assert not out.exists()

    def test_direction_longer_than_n_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"params": {"direction": [1.0, 0.0, 0.5]}})
        out = tmp_path / "o"
        assert main(["verify-strong-feller", "--config", cfg, "--out", str(out)]) == 2
        assert "direction has too many coordinates for n=2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw, flags, message", [
        # a seed must fit the 16 signed bytes of a path key
        ({"seed": 2**128, "params": {"samples": 10, "steps": 4}}, [],
         f"config schema violation: {2**128} is greater than the maximum of {2**127 - 1}"),
        ({"params": {"samples": 10, "steps": 4}}, ["--seed", "-3"],
         "--seed: -3 is less than the minimum of 0"),
        ({"params": {"samples": 10, "steps": 4}}, ["--seed", str(2**127)],
         f"--seed: {2**127} is greater than the maximum of {2**127 - 1}"),
    ], ids=["config-above", "flag-below", "flag-above"])
    def test_seed_outside_the_key_range_is_rejected(self, tmp_path, capsys, raw, flags,
                                                    message):
        cfg = write_config(tmp_path, "c.json", raw)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"seed": 2**127 - 1, "params": {"samples": 10, "steps": 4}})
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", cfg, "--out", out]) in (0, 1)
        assert read_manifest(out)["config"]["seed"] == 2**127 - 1

    def test_seed_and_out_flags_override(self, tmp_path):
        cfg_path = write_config(tmp_path, "c.json", {"seed": 1, "out": "ignored"})
        cfg = load_config("curvature", cfg_path, 999, str(tmp_path / "real"))
        assert cfg.seed == 999
        assert cfg.out == str(tmp_path / "real")


def _subschemas(schema):
    yield schema
    for sub in [*schema.get("properties", {}).values(), *filter(None, [schema.get("items")])]:
        yield from _subschemas(sub)


def _message(schema, instance):
    """The message load_config's validator gives, or None."""
    try:
        _validate(schema, instance, "x")
    except ConfigError as exc:
        return str(exc).removeprefix("x: ")
    return None


def _jsonschema_message(cls, schema, instance):
    error = best_match(cls(schema).iter_errors(instance))
    return None if error is None else error.message


# jsonschema with the one deliberate difference: no float is an integer
_StrictIntegers = extend(validator_for({}), type_checker=validator_for({}).TYPE_CHECKER.redefine(
    "integer", lambda checker, x: isinstance(x, int) and not isinstance(x, bool)))

_MUTANT_VALUES = [-1, 0, 1, 2, 3, 0.0, 0.5, 1.0, 1.5, 2.0, 16.0, -2.5, "x", "simulate", True,
                  False, None, [], [1], [0.5, 2.0], [[0, 1], [2, 3]], [1, 2, 3], {},
                  {"w": [0.0], "c": [0.0]}, {"w": []}, {"bogus": 1}]
_MUTANT_KEYS = ["bogus", "aa", "zz", "samples", "T", "w", "c", "name", "seed", "experiment"]


def _mutate(doc, rnd):
    """doc with one to three random replacements, deletions or insertions."""
    for _ in range(rnd.randint(1, 3)):
        places = [()]
        for path in places:       # grows while it is walked: every node's path
            node = _at(doc, path)
            keys = node if isinstance(node, dict) else range(len(node)) \
                if isinstance(node, list) else ()
            places.extend(path + (k,) for k in keys)
        path = rnd.choice(places)
        value = copy.deepcopy(rnd.choice(_MUTANT_VALUES))
        node, op = _at(doc, path), rnd.randrange(3)
        if op == 0 and isinstance(node, dict):
            node[rnd.choice(_MUTANT_KEYS)] = value
        elif op == 0 and isinstance(node, list):
            node.append(value)
        elif op == 1 and path:
            del _at(doc, path[:-1])[path[-1]]
        elif path:
            _at(doc, path[:-1])[path[-1]] = value
        else:
            doc = value
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


FULL_CONFIG = {"experiment": "simulate", "preset": {"name": "heisenberg", "params": {"pairs": 1}},
               "ranks": [1, 2], "seed": 3, "out": "o", "params": {"samples": 10}}


class TestSchemaValidators:
    """load_config's own validator against jsonschema as the reference; the
    constant schemas are checked against their meta-schema here."""

    @pytest.mark.parametrize("name", ["config", *PARAMS_SCHEMAS])
    def test_schema_is_valid(self, name):
        schema = CONFIG_SCHEMA if name == "config" else PARAMS_SCHEMAS[name]
        validator_for(schema).check_schema(schema)
        # a keyword the validator does not implement would go unenforced
        for sub in _subschemas(schema):
            assert set(sub) <= _SCHEMA_KEYWORDS
            assert sub.get("additionalProperties", False) is False
            assert isinstance(sub.get("type", ""), str)

    def test_every_experiment_has_a_params_schema(self):
        assert set(PARAMS_SCHEMAS) == set(EXPERIMENTS)

    @pytest.mark.parametrize("experiment, raw", [
        ("curvature", {"unknown": 1}),
        ("verify-cd", {"params": {"typo_tolerance": 1}}),
        ("simulate", {"params": {"samples": "many"}}),
        ("curvature", {"seed": -1}),
        ("verify-harnack", {"params": {"T": 0}}),
        # two violations at once: the message is jsonschema's best match
        ("curvature", {"seed": "x", "bogus": 1}),
        ("distance", {"params": {"segments": 0}}),
        ("curvature", {"experiment": "nope"}),
        # a type and an enum error at one place: the first found wins
        ("curvature", {"experiment": 5}),
        # one past the largest seed a path key holds
        ("curvature", {"seed": 2**127}),
    ])
    def test_error_text_matches_jsonschema_validate(self, tmp_path, capsys, experiment, raw):
        try:
            jsonschema.validate(raw, CONFIG_SCHEMA)
        except jsonschema.ValidationError as exc:
            expected = f"config schema violation: {exc.message}"
        else:
            with pytest.raises(jsonschema.ValidationError) as info:
                jsonschema.validate(raw["params"], PARAMS_SCHEMAS[experiment])
            expected = f"invalid params for {experiment}: {info.value.message}"
        cfg = write_config(tmp_path, "c.json", raw)
        with pytest.raises(ConfigError) as got:
            load_config(experiment, cfg, None, None)
        assert str(got.value) == expected
        out = tmp_path / "o"
        assert main([experiment, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {expected}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["config", *PARAMS_SCHEMAS])
    def test_mutated_configs_match_jsonschema(self, name):
        # accept/reject and message agree with jsonschema's best match, but
        # for an integral float at an integer key, which only ours rejects
        if name == "config":
            schema, base = CONFIG_SCHEMA, FULL_CONFIG
        else:
            schema, base = PARAMS_SCHEMAS[name], PARAMS_DEFAULTS[name]
            if name == "distance":
                base = {"target": {"w": [1.0], "c": [0.0]}, **base}
        rnd = random.Random(f"mutants-{name}")
        plain = validator_for(schema)
        rejected = 0
        for case in range(300):
            doc = _mutate(copy.deepcopy(base), rnd) if case else copy.deepcopy(base)
            got = _message(schema, doc)
            assert got == _jsonschema_message(_StrictIntegers, schema, doc), doc
            if got != _jsonschema_message(plain, schema, doc):
                assert re.fullmatch(r"-?\d+\.0 is not of type 'integer'", got), doc
            rejected += got is not None
        assert 0 < rejected < 300


class TestParamsDefaults:
    """Every params default lives in PARAMS_DEFAULTS; load_config resolves it."""

    # keys with no table default: required, accepted and ignored, or derived
    # from the form in their runner
    NO_DEFAULT = {"target", "restarts", "points", "cfl_fraction"}

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_defaults_are_valid_params(self, experiment):
        defaults = PARAMS_DEFAULTS[experiment]
        if experiment == "distance":
            defaults = {"target": {"w": [1.0], "c": [0.0]}, **defaults}
        jsonschema.validate(defaults, PARAMS_SCHEMAS[experiment])

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_key_has_a_default(self, experiment):
        schema, defaults = PARAMS_SCHEMAS[experiment], PARAMS_DEFAULTS[experiment]
        assert set(schema["properties"]) - set(defaults) <= self.NO_DEFAULT
        for key, value in defaults.items():     # bump, grid and the points
            if isinstance(value, dict):
                nested = set(schema["properties"][key]["properties"])
                assert set(value) <= nested and nested - set(value) <= self.NO_DEFAULT

    def test_partial_bump_keeps_the_other_defaults(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"params": {"bump": {"radius": 3.0}}})
        bump = load_config("verify-reverse-logsobolev", cfg, None, None).params["bump"]
        assert bump == {"center": {"w": [0.0], "c": [0.0]}, "radius": 3.0, "height": 1.0,
                        "floor": 0.1}
        assert load_config("verify-reverse-poincare", cfg, None, None).params["bump"]["floor"] == 0

    def test_partial_grid_keeps_the_default_box(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"params": {"grid": {"shape": [17, 17, 21]}}})
        params = load_config("oracle-h3", cfg, None, None).params
        assert params["grid"] == {**PARAMS_DEFAULTS["oracle-h3"]["grid"], "shape": [17, 17, 21]}
        assert params["T"] == 1.0
        # the resolved params are a copy: a runner cannot change the table
        params["grid"]["box"][0][0] = -1
        assert PARAMS_DEFAULTS["oracle-h3"]["grid"]["box"][0] == [-6, 6]

    # what a runner derives from the form, echoed all the same
    DERIVED_PARAMS = {"verify-reverse-poincare": {"points"},
                      "verify-reverse-logsobolev": {"points"}}
    DERIVED_RANKS = {"curvature": [2], "convergence": [1, 2]}

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_manifest_config_reproduces_the_run(self, tmp_path, experiment):
        first, second = str(tmp_path / "first"), str(tmp_path / "second")
        cfg = write_config(tmp_path, "c.json", {"seed": 3, "params": TINY[experiment]})
        code = main([experiment, "--config", cfg, "--out", first])
        echo = read_manifest(first)["config"]
        derived = self.DERIVED_PARAMS.get(experiment, set())
        assert set(PARAMS_DEFAULTS[experiment]) | derived <= set(echo["params"])
        assert echo["ranks"] == self.DERIVED_RANKS.get(experiment, [])
        cfg = write_config(tmp_path, "echo.json", echo)
        assert main([experiment, "--config", cfg, "--out", second]) == code
        assert read_manifest(second)["config"] == echo
        assert (Path(first, "records.csv").read_bytes()
                == Path(second, "records.csv").read_bytes())


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
            # restarts is accepted and ignored
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


class TestRankRule:
    # block_sum([1, 1e-6]) has rho2 = 2e-12 against a Gram trace of 2, below
    # curvature.RHO2_RTOL, though its pair columns have full numerical rank
    @pytest.mark.parametrize("experiment,record_id,params", [
        ("curvature", "curvature-rank4", {}),
        ("distance", "distance", {"target": {"w": [0.3, 0.2, 0.0, 0.0], "c": [0.4, 0.0]}}),
    ])
    def test_a_nearly_degenerate_block_fails_everywhere(self, tmp_path, experiment,
                                                        record_id, params):
        cfg = write_config(tmp_path, "c.json", {
            "preset": {"name": "block_sum", "params": {"weights": [1, 1e-6]}},
            "params": params})
        out = str(tmp_path / "o")
        assert main([experiment, "--config", cfg, "--out", out]) == 1
        [row] = csv.DictReader(io.StringIO(Path(out, "records.csv").read_text()))
        assert (row["record_id"], row["rank"], row["lhs"], row["pass"]) == (
            record_id, "4", "", "false")

    def test_curvature_reports_the_rank_rule_error_by_rank(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "preset": {"name": "block_sum", "params": {"weights": [1, 1e-6]}}})
        out = str(tmp_path / "o")
        assert main(["curvature", "--config", cfg, "--out", out]) == 1
        report = read_summary(out)["report"]
        assert report["constants"] == {}
        assert list(report["error"]) == ["4"]
        assert report["error"]["4"].startswith("vertical Gram matrix at rank 4 is singular")


class TestSimulateAndConvergence:
    def test_simulate_writes_endpoints(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "params": {"T": 1.0, "steps": 64, "samples": 500}})
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        rows = open(os.path.join(out, "endpoints.csv")).read().splitlines()
        assert rows[0] == "w1,w2,c1"
        assert len(rows) == 501

    def test_simulate_reports_the_failing_coordinate(self, tmp_path):
        # |mean c1| 0.1363 > 3 se 0.1281 fails, |mean c2| 0.3615 < 3 se 0.6272
        # passes; maxima over coordinates once paired 0.3615 with 0.6272 and
        # gave a failing record a margin of +0.266
        cfg = write_config(tmp_path, "c.json", {
            "preset": {"name": "block_sum", "params": {"weights": [1, 3]}},
            "seed": 312, "params": {"samples": 50, "steps": 4}})
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", cfg, "--out", out]) == 1
        with open(os.path.join(out, "records.csv")) as fh:
            [rec] = list(csv.DictReader(fh))
        lhs, rhs, margin = (float(rec[k]) for k in ("lhs", "rhs", "margin"))
        assert rec["pass"] == "false"
        assert margin < 0 and lhs > rhs
        assert margin == pytest.approx(rhs - lhs, rel=1e-12)

    def test_simulate_fails_a_biased_draw_at_any_scale(self, tmp_path, monkeypatch):
        # at T = 1e-13 every c is about 1e-13; a draw biased by ten standard
        # errors must fail however small they are (an absolute slack of
        # 1e-12 once let it pass)
        import heislab.cli as cli

        real = cli.sample_endpoints

        def biased(*args):
            W, C = real(*args)
            return W, C + 10.0 * C.std(axis=0, ddof=1) / np.sqrt(len(C))

        monkeypatch.setattr(cli, "sample_endpoints", biased)
        cfg = write_config(tmp_path, "c.json", {
            "params": {"T": 1e-13, "samples": 200, "steps": 8}})
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", cfg, "--out", out]) == 1
        with open(os.path.join(out, "records.csv")) as fh:
            [rec] = list(csv.DictReader(fh))
        lhs, rhs = float(rec["lhs"]), float(rec["rhs"])
        assert rec["pass"] == "false"
        assert 0 < rhs < lhs < 1e-13

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

    @pytest.mark.parametrize("preset, ranks", [
        ({"name": "heisenberg", "params": {"pairs": 1}}, [1, 2]),
        ({"name": "block_sum", "params": {"weights": [1, 3]}}, [2, 4]),
        ({"name": "wiener_truncation", "params": {"pairs": 8, "s": 2}}, [4, 8, 16]),
    ])
    def test_convergence_default_ranks(self, tmp_path, preset, ranks):
        cfg = write_config(tmp_path, "c.json", {"preset": preset, "params": TINY["convergence"]})
        out = str(tmp_path / "o")
        assert main(["convergence", "--config", cfg, "--out", out]) in (0, 1)
        assert read_summary(out)["report"]["projection"]["ranks"] == ranks
        with open(os.path.join(out, "records.csv")) as fh:
            monotone = [r for r in csv.DictReader(fh) if r["record_id"].startswith("projection")]
        # the lowest rank's error is positive, so each record can fail
        assert len(monotone) == 3 and all(float(r["rhs"]) > 0 for r in monotone)


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

    @pytest.mark.parametrize("experiment, reads", [
        ("verify-harnack", 2 * 6),             # x and y of each default pair
        ("verify-strong-feller", 1 + 3),       # x and each default offset
    ])
    def test_semigroup_read_once_per_point(self, tmp_path, monkeypatch, experiment, reads):
        calls, real = [], SemigroupSampler.values

        def counted(self, func, x):
            calls.append(1)
            return real(self, func, x)

        monkeypatch.setattr(SemigroupSampler, "values", counted)
        cfg = write_config(tmp_path, "c.json", {"params": {"samples": 500, "steps": 16}})
        out = str(tmp_path / "o")
        assert main([experiment, "--config", cfg, "--out", out]) in (0, 1)
        assert len(calls) == reads

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
                       "offsets": [0.5]}})
        out = str(tmp_path / "o")
        assert main(["verify-strong-feller", "--config", cfg, "--out", out]) == 0
        report = read_summary(out)["report"]
        assert report["offsets"] == [0.5] and len(report["differences"]) == 1

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
        density = pde_oracle_h3("delta", 0.5, box=tuple(map(tuple, SMALL_GRID["box"])),
                                shape=tuple(SMALL_GRID["shape"]), mollifier_cells=3.0)
        assert _symmetry_record(density).passed
        # one percent of the peak added at one node off the centre
        density.values[18, 14, 22] += 0.01 * density.values.max()
        rec = _symmetry_record(density)
        assert not rec.passed and rec.lhs > 0.009

    def test_grid_experiments_report_the_same_solve(self, tmp_path):
        params = {"T": 0.3, "grid": {"box": [[-3, 3], [-3, 3], [-2, 2]], "shape": [17, 17, 21]}}
        facts = []
        for experiment in ("oracle-h3", "verify-integrated-harnack"):
            cfg = write_config(tmp_path, f"{experiment}.json", {"params": params})
            out = str(tmp_path / experiment)
            assert main([experiment, "--config", cfg, "--out", out]) in (0, 1)
            report = read_summary(out)["report"]
            facts.append({k: report[k] for k in ("steps", "spectral_bound", "truncation_bound")})
        assert facts[0] == facts[1]
        axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(params["grid"]["box"],
                                                               params["grid"]["shape"])]
        assert facts[0]["spectral_bound"] == _spectral_radius_bound(*axes)
        coeffs, _ = _chebyshev_coefficients(0.5 * 0.3 * facts[0]["spectral_bound"])
        assert facts[0]["steps"] == len(coeffs) - 1
        assert 0.0 < facts[0]["truncation_bound"] < 1e-9

    def test_cfl_fraction_is_accepted_and_ignored(self, tmp_path):
        bodies = []
        for extra in ({}, {"cfl_fraction": 0.1}, {"cfl_fraction": 7.0}):
            cfg = write_config(tmp_path, "c.json", {"params": {"T": 0.5,
                                                                "grid": {**SMALL_GRID, **extra}}})
            out = tmp_path / f"o{len(bodies)}"
            assert main(["oracle-h3", "--config", cfg, "--out", str(out)]) == 0
            bodies.append((out / "records.csv").read_bytes())
            echo = read_manifest(str(out))["config"]["params"]["grid"]
            assert ("cfl_fraction" in echo) == bool(extra)
        assert bodies[0] == bodies[1] == bodies[2]


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
    ``cc_distance`` must find the pairs and the free direction by rotation.
    Returns the copy and the rotation."""
    n = form.n + 1
    coeffs = np.zeros((n, n, form.d))
    coeffs[:-1, :-1] = form.coeffs
    rot = np.eye(n)
    rot[np.ix_([0, n - 1], [0, n - 1])] = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    return OmegaForm(n, form.d, np.einsum("ai,ijl,bj->abl", rot, coeffs, rot)), rot


def _on_rotated_copy(form, target):
    """cc_distance from the identity to ``target`` on the rotated copy."""
    copy, rot = _rotated_copy(form)
    return cc_distance(copy, identity(copy), GroupElement(rot @ np.append(target.w, 0.0), target.c))


def _q_max(form):
    # on a sum of weighted pairs the spectral norm is the largest |entry|;
    # per vertical coordinate, and over all of them
    q = np.abs(form.coeffs).max(axis=(0, 1))
    return q, float(q.max())


class TestDistanceSq:
    """The squared distances of the Harnack checks, cc_distance(...).distance
    ** 2: exact in closed form on every preset (a direct sum of weighted
    pairs) and on every rotated copy of one, and on any form for a
    horizontal separation z = x^-1 y.  Test names that say "solver" predate
    the single route; they now compare each preset with its rotated copy."""

    PRESETS = [pytest.param("heisenberg", {"pairs": 2}, 1.0, id="heisenberg(2)"),
               pytest.param("wiener_truncation", {"pairs": 3, "s": 2}, 1.0,
                            id="wiener_truncation(3,2)"),
               pytest.param("block_sum", {"weights": [3]}, 3.0, id="block_sum([3])")]

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

    @pytest.mark.parametrize("name,params,q_max", PRESETS)
    def test_vertical_is_the_circle(self, name, params, q_max):
        form = make_preset(name, **params).form
        x, c = self._x(form), 0.375
        y = multiply(form, x, GroupElement(np.zeros(form.n), [c]))
        res = cc_distance(form, x, y)
        assert res.distance ** 2 == pytest.approx(4.0 * np.pi * c / q_max, rel=1e-15)
        # the witness is the circle sampled at 65 points: a regular 64-gon,
        # shorter by the factor (64 / pi) sin(pi / 64) and enclosing the
        # fraction 64 sin(2 pi / 64) / (2 pi) of the circle's area
        length = np.linalg.norm(np.diff(res.witness, axis=0), axis=1).sum()
        assert length / res.distance == pytest.approx(
            64 / np.pi * np.sin(np.pi / 64), rel=1e-9)
        assert res.constraint_residual == pytest.approx(
            c * (1 - 64 * np.sin(2 * np.pi / 64) / (2 * np.pi)), rel=1e-9)

    def test_vertical_on_an_unpaired_form_uses_the_solver(self):
        # heisenberg(2) weighted (1, 2) and rotated by 45 degrees in (w1, w3):
        # no row is one pair, so the pairs come from the rotation; the loop
        # in the pair of weight 2 gives the exact 4 pi c / 2
        rot = np.eye(4)
        rot[np.ix_([0, 2], [0, 2])] = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
        pairs = np.zeros((4, 4))
        pairs[0, 1], pairs[2, 3] = 1.0, 2.0
        form = OmegaForm(4, 1, (rot @ (pairs - pairs.T) @ rot.T)[:, :, None])
        x, y = identity(form), GroupElement(np.zeros(4), [0.375])
        res = cc_distance(form, x, y)
        assert res.distance ** 2 == pytest.approx(4.0 * np.pi * 0.375 / 2.0, rel=1e-12)
        assert res.diagnostics["loop_area"] == pytest.approx([0.375 / 2.0], rel=1e-12)

    @pytest.mark.parametrize("name,params,q_max", PRESETS)
    def test_other_targets_use_the_solver(self, name, params, q_max):
        # a generic target on the preset and on its rotated copy: the same
        # distance to 1e-12
        form = make_preset(name, **params).form
        x = self._x(form)
        y = multiply(form, x, GroupElement(np.resize([0.25, 0.5], form.n), [0.375]))
        res = cc_distance(form, x, y)
        rotated = _on_rotated_copy(form, multiply(form, inverse(x), y))
        assert rotated.distance == pytest.approx(res.distance, rel=1e-12)

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
            assert res.diagnostics["loop_area"][0] > 0
            d2.append(res.distance ** 2)
            # on the rotated copy the resting pair's chord is round-off, not
            # zero: it turns by nearly 2 pi instead of looping, to the same
            # distance and the same sampled polygon
            rotated = _on_rotated_copy(form, GroupElement(w, c))
            assert rotated.distance == pytest.approx(res.distance, rel=1e-12)
            assert rotated.constraint_residual == pytest.approx(res.constraint_residual,
                                                                rel=1e-9)
        assert d2[1] - d2[0] == pytest.approx(4 * np.pi * 0.5 / q_max, rel=1e-9)

    @pytest.mark.parametrize("form", CATALOG)
    def test_lower_bound_dilation_and_symmetry(self, form):
        # a horizontal path is no shorter than its projection |w|.  Pair j of
        # length L_j adds at most q_max L_j^2 / (2 pi) to |c| between its arc
        # and its chord (Dido), and closed with the chord at most
        # q_max (L_j + |w_j|)^2 / (4 pi) (isoperimetry): 4 pi |c| / q_max
        # bounds d^2 only for w = 0.  Above, the triangle inequality through
        # (w, 0) gives d <= |w| + d(e, (0, c)), one loop per vertical
        # coordinate: d(e, (0, c))^2 = sum_l 4 pi |c_l| / q_max,l
        rng = np.random.default_rng(form.n * 10 + form.d)
        e = identity(form)
        q_l, q_max = _q_max(form)
        for k in range(12):
            z = GroupElement(rng.uniform(-1, 1, form.n) * (k % 3 != 0),
                             rng.uniform(-2, 2, form.d) * 10.0 ** rng.uniform(-4, 0))
            d = cc_distance(form, e, z).distance
            wn, area = np.linalg.norm(z.w), np.linalg.norm(z.c) / q_max
            lower = max(wn, math.sqrt(2 * np.pi * area), math.sqrt(4 * np.pi * area) - wn)
            assert d >= lower * (1 - 1e-13)
            assert d <= (wn + math.sqrt(4 * np.pi * np.sum(np.abs(z.c) / q_l))) * (1 + 1e-13)
            dilated = GroupElement(1.7 * z.w, 1.7**2 * z.c)
            assert cc_distance(form, e, dilated).distance == pytest.approx(1.7 * d, rel=1e-12)
            assert cc_distance(form, z, e).distance == pytest.approx(d, rel=1e-12)

    @pytest.mark.parametrize("form", CATALOG)
    def test_closed_form_below_the_solver(self, form):
        # every preset against its rotated copy, whose extra coordinate is free
        rng = np.random.default_rng(form.n + 100 * form.d)
        for c_scale in (0.05, 0.5):
            z = GroupElement(rng.uniform(-0.6, 0.6, form.n), rng.uniform(-c_scale, c_scale, form.d))
            d = cc_distance(form, identity(form), z).distance
            assert _on_rotated_copy(form, z).distance == pytest.approx(d, rel=1e-12)

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
        # in a fresh interpreter, and last a distance on a form that is not a
        # sum of coordinate pairs: no scipy module is ever loaded, and no
        # jsonschema module either (configs are validated without it)
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
from heislab.geometry import cc_distance
from heislab.groups import GroupElement, OmegaForm, identity
rot = np.eye(4)
rot[np.ix_([0, 2], [0, 2])] = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
pairs = np.zeros((4, 4))
pairs[0, 1], pairs[2, 3] = 1.0, 2.0
form = OmegaForm(4, 1, (rot @ (pairs - pairs.T) @ rot.T)[:, :, None])
res = cc_distance(form, identity(form), GroupElement([0.3, 0.1, -0.2, 0.2], [0.3]))
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] in ("scipy", "jsonschema", "referencing", "attrs"))
print(json.dumps({{"codes": codes, "loaded": loaded, "distance": res.distance}}))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        # verify-cd exits 1 at its nominal default coefficient
        assert got["codes"] == [0, 1, 0, 0]
        assert got["loaded"] == []
        assert got["distance"] > 0


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
            assert read_manifest(out)["paths_drawn"] == 1000
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_experiment_is_byte_identical_and_labelled(self, tmp_path, experiment):
        cfg = write_config(tmp_path, "c.json", {"seed": 3, "params": TINY[experiment]})
        bodies = []
        for run in range(2):
            out = str(tmp_path / f"o{run}")
            assert main([experiment, "--config", cfg, "--out", out]) in (0, 1)
            with open(os.path.join(out, "records.csv"), "rb") as fh:
                bodies.append(fh.read())
        assert bodies[0] == bodies[1]
        rows = list(csv.DictReader(io.StringIO(bodies[0].decode())))
        assert rows
        for row in rows:
            # list-presets labels each entry with its own preset
            expected = (row["record_id"].removeprefix("preset-")
                        if experiment == "list-presets" else H3_NAME)
            assert row["preset"] == expected

    def test_workers_env_fallback(self, tmp_path, monkeypatch):
        # no environment variable is read: HEISLAB_WORKERS, once a worker
        # count, leaves a sampling sweep's records as they are
        cfg = write_config(tmp_path, "c.json",
                           {"seed": 3, "params": TINY["verify-reverse-poincare"]})
        bodies = []
        for workers in (None, "2"):
            if workers is None:
                monkeypatch.delenv("HEISLAB_WORKERS", raising=False)
            else:
                monkeypatch.setenv("HEISLAB_WORKERS", workers)
            out = str(tmp_path / f"o{workers}")
            assert main(["verify-reverse-poincare", "--config", cfg, "--out", out]) == 0
            bodies.append(Path(out, "records.csv").read_bytes())
        assert bodies[0] == bodies[1]

    def test_manifest_roundtrip(self, tmp_path):
        out = str(tmp_path / "o")
        assert main(["curvature", "--out", out]) == 0
        manifest = read_manifest(out)
        assert manifest["config"]["experiment"] == "curvature"
        assert manifest["failed"] == 0
        assert manifest["records"] == manifest["passed"] + manifest["failed"]
        # main() times load_config; the timing goes to the manifest only
        assert isinstance(manifest["config_s"], float) and manifest["config_s"] >= 0
        # the config echo re-validates against the schema
        jsonschema.validate(manifest["config"], CONFIG_SCHEMA)
        # the pass/fail summary matches the emitted records exactly
        rows = Path(out, "records.csv").read_text().splitlines()[1:]
        assert manifest["records"] == len(rows)
        assert manifest["passed"] == sum(r.endswith("true") for r in rows)

    def test_manifest_counts_the_paths_drawn(self, tmp_path):
        # a default simulate draws its 10,000 samples; verify-cd, run next in
        # the same process, draws none and must not inherit simulate's count
        for experiment, paths in (("simulate", 10000), ("verify-cd", 0)):
            out = str(tmp_path / experiment)
            assert main([experiment, "--out", out]) in (0, 1)
            assert read_manifest(out)["paths_drawn"] == paths

    def test_convergence_draws_each_path_once(self, tmp_path):
        # the refinement and the projection study read one path set
        cfg = write_config(tmp_path, "c.json", {"params": TINY["convergence"]})
        out = str(tmp_path / "o")
        assert main(["convergence", "--config", cfg, "--out", out]) in (0, 1)
        assert read_manifest(out)["paths_drawn"] == TINY["convergence"]["samples"]
