import numpy as np
import pytest

from heislab.groups import dilate, make_preset
from heislab.stochastic import (
    _accumulate_vertical,
    _endpoint_area,
    approximation_report,
    endpoint,
    path_from_increments,
    project_path,
    refinement_convergence,
    sample_endpoints,
    sample_path,
)

H1 = make_preset("heisenberg", pairs=1).form
BS = make_preset("block_sum", weights=[1, 1]).form


class TestSamplePath:
    def test_starts_at_zero(self):
        p = sample_path(H1, 1.0, 32, seed=1, stream_index=0)
        assert np.all(p.B[0] == 0.0) and np.all(p.M[0] == 0.0)

    def test_single_step_has_no_area(self):
        p = sample_path(H1, 1.0, 1, seed=2, stream_index=0)
        assert np.all(p.M[-1] == 0.0)

    def test_group_endpoint_halves_the_integral(self):
        p = sample_path(H1, 1.0, 16, seed=3, stream_index=0)
        g = p.group_endpoint()
        assert np.array_equal(g.w, p.B[-1])
        assert np.array_equal(g.c, 0.5 * p.M[-1])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_path(H1, 0.0, 8, seed=1)
        with pytest.raises(ValueError):
            sample_path(H1, 1.0, 0, seed=1)


class TestDeterminism:
    def test_same_key_same_path(self):
        a = sample_path(H1, 1.0, 64, seed=9, stream_index=5)
        b = sample_path(H1, 1.0, 64, seed=9, stream_index=5)
        assert np.array_equal(a.B, b.B) and np.array_equal(a.M, b.M)

    def test_different_indices_differ(self):
        a = sample_path(H1, 1.0, 64, seed=9, stream_index=5)
        b = sample_path(H1, 1.0, 64, seed=9, stream_index=6)
        assert not np.array_equal(a.B, b.B)

    def test_batch_matches_single_and_chunking(self):
        W3, C3 = sample_endpoints(H1, 1.0, 32, 11, seed=21, chunk=3)
        W7, C7 = sample_endpoints(H1, 1.0, 32, 11, seed=21, chunk=7)
        assert np.array_equal(W3, W7) and np.array_equal(C3, C7)
        for i in (0, 4, 10):
            g = endpoint(H1, 1.0, 32, 21, i)
            assert np.array_equal(W3[i], g.w) and np.array_equal(C3[i], g.c)


class TestEndpointArea:
    @pytest.mark.parametrize("name,kw", [("heisenberg", {"pairs": 1}),
                                         ("block_sum", {"weights": [1, 3]}),
                                         ("wiener_truncation", {"pairs": 8, "s": 2})])
    def test_matches_last_running_sum(self, name, kw):
        form = make_preset(name, **kw).form
        rng = np.random.default_rng(7)
        inc = rng.standard_normal((5, 40, form.n))
        left = np.concatenate([np.zeros((5, 1, form.n)), np.cumsum(inc, axis=1)[:, :-1]],
                              axis=1)
        ref = _accumulate_vertical(form, left, inc)[..., -1, :]
        got = _endpoint_area(form, left, inc)
        assert got.shape == (5, form.d)
        assert np.allclose(got, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())


class TestMoments:
    def test_horizontal_covariance(self):
        T, N = 0.8, 40000
        W, _ = sample_endpoints(H1, T, 128, N, seed=31)
        se_diag = T * np.sqrt(2.0 / N)
        se_off = T / np.sqrt(N)
        assert abs((W[:, 0] ** 2).mean() - T) < 3 * se_diag
        assert abs((W[:, 1] ** 2).mean() - T) < 3 * se_diag
        assert abs((W[:, 0] * W[:, 1]).mean()) < 3 * se_off

    def test_vertical_mean_and_variance(self):
        T, N = 1.0, 40000
        _, C = sample_endpoints(H1, T, 512, N, seed=37)
        v = C[:, 0]
        assert abs(v.mean()) < 3 * v.std() / np.sqrt(N)
        vs = v * v
        se_var = vs.std() / np.sqrt(N)
        assert abs(vs.mean() - T * T / 4) < 3 * se_var

    def test_brownian_scaling(self):
        # with matched step counts the same draws scale exactly
        T = 0.49
        for i in range(4):
            gT = endpoint(H1, T, 64, 41, i)
            g1 = endpoint(H1, 1.0, 64, 41, i)
            scaled = dilate(1.0 / np.sqrt(T), gT)
            assert np.allclose(scaled.w, g1.w, atol=1e-12)
            assert np.allclose(scaled.c, g1.c, atol=1e-12)


class TestProjection:
    def test_full_rank_is_identity(self):
        p = sample_path(BS, 1.0, 32, seed=43, stream_index=0)
        q = project_path(BS, p, BS.n)
        assert np.array_equal(p.B, q.B) and np.array_equal(p.M, q.M)

    def test_block_projection_zeroes_unfed_coordinate(self):
        p = sample_path(BS, 1.0, 64, seed=47, stream_index=1)
        q = project_path(BS, p, 2)
        assert np.all(q.B[:, 2:] == 0.0)
        assert np.all(q.M[:, 1] == 0.0)          # second block cannot feed it
        assert not np.array_equal(q.M[:, 0], p.M[:, 0] * 0.0)

    def test_projection_chain_is_idempotent(self):
        p = sample_path(BS, 1.0, 32, seed=53, stream_index=2)
        a = project_path(BS, project_path(BS, p, 3), 2)
        b = project_path(BS, p, 2)
        assert np.array_equal(a.B, b.B) and np.array_equal(a.M, b.M)

    def test_vertical_is_recomputed_not_projected(self):
        p = sample_path(H1, 1.0, 128, seed=59, stream_index=0)
        q = project_path(H1, p, 1)
        # a single horizontal direction generates no area at all
        assert np.all(q.M == 0.0)
        assert not np.all(p.M == 0.0)


class TestApproximationReport:
    def test_full_rank_error_zero_and_monotone(self):
        form = make_preset("wiener_truncation", pairs=8, s=2).form
        rep = approximation_report(form, 1.0, 128, [4, 8, 16], 600, seed=61)
        assert rep.monotone_ok
        assert rep.errors[(16, 2)] == 0.0
        seq = rep.sequence(2)
        assert seq[0] >= seq[1] >= seq[2]

    def test_stderr_scales_with_samples(self):
        form = make_preset("wiener_truncation", pairs=4, s=2).form
        r1 = approximation_report(form, 1.0, 64, [2, 4], 500, seed=67)
        r4 = approximation_report(form, 1.0, 64, [2, 4], 2000, seed=67)
        ratio = r1.stderrs[(2, 2)] / r4.stderrs[(2, 2)]
        assert ratio == pytest.approx(2.0, rel=0.35)

    def test_euclidean_variant_reported(self):
        form = make_preset("wiener_truncation", pairs=4, s=2).form
        rep = approximation_report(form, 1.0, 64, [2, 4], 300, seed=71)
        for key, val in rep.errors_euclidean.items():
            assert val >= 0.0
            assert (key in rep.errors)


class TestRefinement:
    def test_zero_increments_give_zero_integral(self):
        p = path_from_increments(H1, 1.0, np.zeros((64, 2)))
        assert np.all(p.M == 0.0)

    def test_coupled_rms_positive_and_order_half(self):
        rep = refinement_convergence(H1, 1.0, [16, 32, 64, 128, 256], 1500, seed=73)
        assert all(r > 0 for r in rep.rms)
        assert rep.fitted_order == pytest.approx(0.5, abs=0.15)

    def test_rms_decreases_with_resolution(self):
        rep = refinement_convergence(H1, 1.0, [8, 32, 128, 512], 800, seed=79)
        assert rep.rms[0] > rep.rms[1] > rep.rms[2]

    def test_bad_k_lists(self):
        with pytest.raises(ValueError):
            refinement_convergence(H1, 1.0, [32, 16], 10, seed=1)
        with pytest.raises(ValueError):
            refinement_convergence(H1, 1.0, [12, 64], 10, seed=1)
