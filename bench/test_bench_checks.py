"""Each benchmark check passes on the program's output and fails on a perturbed one.

Run with ``python -m pytest bench``.
"""

import math

import numpy as np
import pytest

from heislab.geometry import DistanceOptions, cc_distance
from heislab.groups import GroupElement, inverse, make_preset, multiply
from heislab.heat import SemigroupSampler, pde_oracle_h3
from heislab.stochastic import sample_endpoints

import hostspeed
import tracing
from checks import (
    check_cd_witness, check_distance, check_endpoints, check_grid, gaveau_distance,
    h3_separation, levy_area_second_moment, record_outcomes,
)
from run import in_child, metric_units
from workloads import (
    CHECK_PATHS, CHECK_STEPS, GRID, GRID_T, MC_H3_SAMPLES, MC_STEPS, WORKLOADS,
    check_drawn, check_large_draw, drawn_sets, witness_terms,
)

H3 = make_preset("heisenberg", pairs=1).form
BLOCK = make_preset("block_sum", weights=[1, 3]).form
E = GroupElement(np.zeros(2), np.zeros(1))


def _by_name(checks):
    return {c.name.split(":")[-1]: c.ok for c in checks}


# -- closed forms -----------------------------------------------------------


def test_gaveau_limits_and_dilation():
    assert gaveau_distance([0.6, -0.8], 0.0) == pytest.approx(1.0, rel=1e-15)
    assert gaveau_distance([0.0, 0.0], 1.0) == pytest.approx(2 * math.sqrt(math.pi), rel=1e-15)
    for w, c in (([0.5, 0.2], 0.4), ([1.0, 0.0], -1e-7), ([0.01, 0.0], 3.0)):
        lam = 1.7
        assert gaveau_distance([lam * w[0], lam * w[1]], lam * lam * c) == pytest.approx(
            lam * gaveau_distance(w, c), rel=1e-12)
    # the small-angle series joins the direct formula continuously
    below = gaveau_distance([1.0, 0.0], 0.99e-2 / 6)
    above = gaveau_distance([1.0, 0.0], 1.01e-2 / 6)
    assert 0 < above - below < 1e-5


def test_h3_separation_matches_group_law():
    x = GroupElement([0.3, -0.7], [0.2])
    y = GroupElement([-0.4, 0.5], [-0.1])
    z = multiply(H3, inverse(x), y)
    w, c = h3_separation(x.w, x.c[0], y.w, y.c[0])
    assert np.allclose(w, z.w, atol=1e-15) and c == pytest.approx(z.c[0], abs=1e-15)


def test_levy_area_moment_for_heisenberg():
    assert levy_area_second_moment(H3.coeffs, 2.0, 8)[0] == pytest.approx(0.875, rel=1e-15)


# -- endpoints ----------------------------------------------------------------


@pytest.fixture(scope="module")
def endpoints():
    T = 0.8
    W, C = sample_endpoints(H3, T, CHECK_STEPS, CHECK_PATHS, 4242)
    return W, C, T


def test_endpoint_checks_pass_on_program_output(endpoints):
    W, C, T = endpoints
    assert all(_by_name(check_endpoints("h3", W, C, H3.coeffs, T, CHECK_STEPS)).values())


def test_levy_area_check_fails_on_scaled_area(endpoints):
    W, C, T = endpoints
    got = _by_name(check_endpoints("h3", W, 1.02 * C, H3.coeffs, T, CHECK_STEPS))
    assert not got["levy-area-E[C^2]"]


def test_levy_area_check_fails_without_the_step_factor(endpoints):
    W, C, T = endpoints
    # the continuous-time value T^2/4 is 1/K = 12.5% off the left-point rule
    got = _by_name(check_endpoints("h3", W, C, H3.coeffs, T, 10**9))
    assert not got["levy-area-E[C^2]"]


def test_horizontal_checks_fail_on_scaled_or_shifted_w(endpoints):
    W, C, T = endpoints
    assert not _by_name(check_endpoints("h3", 1.02 * W, C, H3.coeffs, T, CHECK_STEPS))["cov-W"]
    shifted = W + np.array([0.02 * math.sqrt(T), 0.0])
    assert not _by_name(check_endpoints("h3", shifted, C, H3.coeffs, T, CHECK_STEPS))["mean-W"]


def test_large_draw_passes():
    assert all(c.ok for c in check_large_draw("h3", H3, 0.8, 4242))


# -- the endpoint sets the verifiers drew -------------------------------------


def test_drawn_sets_collects_each_set_once():
    f = lambda g: g[:, 0]  # noqa: E731
    original = SemigroupSampler.values
    with drawn_sets() as sets:
        a = SemigroupSampler(H3, 0.5, 4, 3, seed=1)
        b = SemigroupSampler(H3, 2.0, 4, 5, seed=2)
        for sampler in (a, b, a):
            sampler.values(f, E)
    got = sorted((T, steps, len(W)) for T, steps, W, C in sets.values())
    assert got == [(0.5, 4, 3), (2.0, 4, 5)]
    assert SemigroupSampler.values is original


@pytest.fixture(scope="module")
def unit_set():
    """One endpoint set at T = 1, of the size and step count an mc-h3 sampler draws."""
    return SemigroupSampler(H3, 1.0, MC_STEPS, MC_H3_SAMPLES, seed=99).endpoints()


T_SWEEP = [0.25, 0.5, 1.0, 2.0]


def test_drawn_checks_pass_on_dilated_sets(unit_set):
    W, C = unit_set
    drawn = [(T, MC_STEPS, math.sqrt(T) * W, T * C) for T in T_SWEEP]
    assert all(c.ok for c in check_drawn("h3", drawn, H3, T_SWEEP))


def test_drawn_checks_fail_on_wrong_dilation(unit_set):
    # the area dilated like the horizontal part, by sqrt(T) instead of T
    W, C = unit_set
    drawn = [(T, MC_STEPS, math.sqrt(T) * W, math.sqrt(T) * C) for T in T_SWEEP]
    bad = {c.name for c in check_drawn("h3", drawn, H3, T_SWEEP) if not c.ok}
    assert {n for n in bad if n.endswith("levy-area-E[C^2]")} == {
        f"h3-drawn-T{T:.4g}-K{MC_STEPS}-N{MC_H3_SAMPLES}:levy-area-E[C^2]"
        for T in (0.25, 0.5, 2.0)}


def test_drawn_checks_fail_on_a_missing_T(unit_set):
    W, C = unit_set
    drawn = [(T, MC_STEPS, math.sqrt(T) * W, T * C) for T in T_SWEEP[:3]]
    got = _by_name(check_drawn("h3", drawn, H3, T_SWEEP))
    assert not got["every-T-has-a-set"]


# -- distances -----------------------------------------------------------------


@pytest.mark.parametrize("kind,w,c", [
    ("horizontal", [0.9, -0.4], 0.0),
    ("vertical", [0.0, 0.0], 0.7),
    ("generic", [0.5, 0.3], 0.12),
])
def test_distance_check_on_solver_output(kind, w, c):
    opts = DistanceOptions(segments=64, restarts=4, seed=7)
    d = cc_distance(H3, E, GroupElement(w, [c]), opts=opts).distance
    assert check_distance(kind, d, w, c, kind).ok
    assert not check_distance(kind, 1.02 * d, w, c, kind).ok
    # shorter than the geodesic is impossible for a horizontal path
    assert not check_distance(kind, (1 - 1e-9) * gaveau_distance(w, c), w, c, kind).ok


# -- grid -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def density():
    return pde_oracle_h3("delta", GRID_T, box=tuple(map(tuple, GRID["box"])),
                         shape=tuple(GRID["shape"]), cfl_fraction=GRID["cfl_fraction"],
                         mollifier_cells=GRID["mollifier_cells"])


def _reweighted(density, axis, rel):
    """Values reweighted so the second moment along ``axis`` rises by ``rel``; mass unchanged."""
    x = np.meshgrid(*density.axes, indexing="ij")[axis]
    u = density.values
    mass = density.quadrature()
    m2 = density.quadrature(x * x * u) / mass
    var = density.quadrature((x * x - m2) ** 2 * u) / mass
    return u * (1.0 + rel * m2 / var * (x * x - m2))


def test_grid_checks_pass_on_program_output(density):
    checks = check_grid("grid", density.axes, density.values, GRID_T, GRID["mollifier_cells"])
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]


@pytest.mark.parametrize("axis,label", [(0, "E[w1^2]"), (1, "E[w2^2]"), (2, "E[c^2]")])
def test_grid_moment_check_fails_one_percent_off(density, axis, label):
    u = _reweighted(density, axis, 0.01)
    got = _by_name(check_grid("grid", density.axes, u, GRID_T, GRID["mollifier_cells"]))
    assert got["mass"] and not got[label]


def test_grid_mass_check_fails_on_leaked_mass(density):
    got = _by_name(check_grid("grid", density.axes, 0.985 * density.values, GRID_T,
                              GRID["mollifier_cells"]))
    assert not got["mass"]


# -- curvature-dimension witness -----------------------------------------------


@pytest.mark.parametrize("form", [H3, BLOCK], ids=["heisenberg", "block_sum"])
def test_cd_witness_fails_at_nominal_coefficient(form):
    values, rho2, hs = witness_terms(form)
    nus = [0.1, 1.0, 10.0]
    assert all(c.ok for c in check_cd_witness("w", values, rho2, hs, nus, 0.25 * rho2))
    at_nominal = check_cd_witness("w", values, rho2, hs, nus, rho2)
    assert at_nominal[0].ok and not any(c.ok for c in at_nominal[1:])
    drifted = [1.01 * values[0]] + values[1:]
    assert not check_cd_witness("w", drifted, rho2, hs, nus, 0.25 * rho2)[0].ok


# -- records ---------------------------------------------------------------------


def test_record_outcomes_counts_failures():
    head = "record_id,preset,rank,T,p_or_q,x,y,lhs,rhs,stderr_lhs,stderr_rhs,margin,pass\n"
    body = "a,p,2,1,,,,1,2,0,0,1,true\nb,p,2,1,,,,2,1,0,0,-1,false\n"
    assert record_outcomes(head + body) == (2, 1)
    assert record_outcomes(head) == (0, 0)


# -- tracing -----------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores():
    import heislab.cli
    import heislab.heat
    import heislab.stochastic

    original = heislab.stochastic.sample_endpoints
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (heislab.stochastic, heislab.heat, heislab.cli):
            assert mod.sample_endpoints is not original
        SemigroupSampler(H3, 1.0, 4, 3, seed=1)
    finally:
        tracer.uninstall()
    for mod in (heislab.stochastic, heislab.heat, heislab.cli):
        assert mod.sample_endpoints is original
    spans = tracer.spans
    assert [s.name for s in spans] == (["heat.SemigroupSampler.init",
                                        "stochastic.sample_endpoints"]
                                       + ["rng.path_generator"] * 3)
    assert spans[1].parent == 0 and spans[2].parent == 1
    agg = tracing.aggregate(spans)
    inner = sum(s.end - s.start for s in spans[2:])
    assert agg["stochastic.sample_endpoints"]["self_s"] == pytest.approx(
        spans[1].end - spans[1].start - inner, abs=1e-12)
    assert agg["stochastic.sample_endpoints"]["work"]["path_steps"] == 12.0
    assert tracing.missed(spans, ["stochastic.sample_endpoints"]) == []


def test_missed_binding_is_reported():
    import heislab.heat

    tracer = tracing.Tracer()
    tracer.install()
    # a wrapper missing from heat's namespace: SemigroupSampler then calls
    # the unwrapped function and its span never appears
    wrapped = heislab.heat.sample_endpoints
    heislab.heat.sample_endpoints = _original("stochastic.sample_endpoints", tracer)
    try:
        SemigroupSampler(H3, 1.0, 4, 3, seed=1)
    finally:
        heislab.heat.sample_endpoints = wrapped
        tracer.uninstall()
    assert tracing.missed(tracer.spans, ["heat.SemigroupSampler.init",
                                         "stochastic.sample_endpoints"]) \
        == ["stochastic.sample_endpoints"]


def _original(name, tracer):
    modname, attr = tracing.LAYERS[name]
    for owner, key, original in tracer._installed:
        if getattr(owner, "__name__", "") == modname and key == attr:
            return original
    raise KeyError(name)


def test_every_metric_has_its_unit_in_benchmark_json():
    per_round = tracing.layer_metrics([])
    produced = set(per_round) | {"setup.import_s", "setup.load_config_s", "setup.raw_s",
                                 "wall.raw_s", "trace.overhead_s"}
    assert produced == set(metric_units("per_layer"))
    assert set(metric_units("end_to_end")) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_every_workload_names_only_traced_layers():
    for make in WORKLOADS.values():
        wl = make(3)
        assert set(wl.layers) <= set(tracing.LAYERS)
        assert wl.layers and wl.ops


# -- timing harness -----------------------------------------------------------


def test_in_child_returns_the_childs_result_and_reports_its_failure():
    value, peak_kib = in_child(lambda: {"steps": [1, 2]})
    assert value == {"steps": [1, 2]} and peak_kib > 0
    with pytest.raises(RuntimeError, match="ZeroDivisionError"):
        in_child(lambda: 1 / 0)


def test_scaled_time_is_raw_time_at_the_reference_speed():
    ref = hostspeed.REF_S
    assert hostspeed.scaled(2.0, ref, ref) == pytest.approx(2.0)
    # a host twice as slow takes twice as long for the probe and the work
    assert hostspeed.scaled(4.0, 1.5 * ref, 2.5 * ref) == pytest.approx(2.0)
