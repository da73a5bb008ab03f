import tracemalloc

import numpy as np
import pytest

from heislab import stochastic
from heislab.groups import make_preset
from heislab.rng import path_generator
from heislab.stochastic import (
    convergence_study,
    refinement_convergence,
    sample_endpoints,
    sample_paths,
)

H1 = make_preset("heisenberg", pairs=1).form
BS = make_preset("block_sum", weights=[1, 1]).form
WT = make_preset("wiener_truncation", pairs=8, s=2).form
PRESETS = [("heisenberg", {"pairs": 1}), ("block_sum", {"weights": [1, 3]}),
           ("wiener_truncation", {"pairs": 8, "s": 2})]


class TestSamplePath:
    def test_starts_at_zero(self):
        B, M = sample_paths(H1, 1.0, 32, 3, seed=1)
        assert B.shape == (3, 33, 2) and M.shape == (3, 33, 1)
        assert np.all(B[:, 0] == 0.0) and np.all(M[:, 0] == 0.0)

    def test_single_step_has_no_area(self):
        _, M = sample_paths(H1, 1.0, 1, 3, seed=2)
        assert np.all(M[:, -1] == 0.0)

    def test_group_endpoint_halves_the_integral(self):
        # the last row of every path is its group endpoint (B_K, M_K / 2)
        for name, kw in PRESETS:
            form = make_preset(name, **kw).form
            B, M = sample_paths(form, 0.7, 48, 9, seed=3)
            W, C = sample_endpoints(form, 0.7, 48, 9, seed=3)
            assert np.array_equal(W, B[:, -1])
            assert np.array_equal(C, 0.5 * form.path_integral(B))
            scale = np.abs(C).max()
            assert np.allclose(C, 0.5 * M[:, -1], rtol=0.0, atol=1e-13 * scale)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_paths(H1, 0.0, 8, 1, seed=1)
        with pytest.raises(ValueError):
            sample_paths(H1, 1.0, 0, 1, seed=1)


class TestDeterminism:
    def test_same_key_same_path(self):
        a = sample_paths(H1, 1.0, 64, 1, seed=9, start=5)
        b = sample_paths(H1, 1.0, 64, 1, seed=9, start=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_different_indices_differ(self):
        a, _ = sample_paths(H1, 1.0, 64, 1, seed=9, start=5)
        b, _ = sample_paths(H1, 1.0, 64, 1, seed=9, start=6)
        assert not np.array_equal(a, b)

    def test_batch_matches_single_and_chunking(self, monkeypatch):
        W, C = sample_endpoints(H1, 1.0, 32, 11, seed=21)
        path_bytes = 33 * H1.n * 8
        # one path per batch (a budget below one path), then 3 and 7 paths
        for budget in (1, 3 * path_bytes, 7 * path_bytes + 5):
            monkeypatch.setattr(stochastic, "CHUNK_BYTES", budget)
            Wb, Cb = sample_endpoints(H1, 1.0, 32, 11, seed=21)
            assert np.array_equal(Wb, W) and np.array_equal(Cb, C)
        B, M = sample_paths(H1, 1.0, 32, 11, seed=21)
        for i in (0, 4, 10):
            Bi, Mi = sample_paths(H1, 1.0, 32, 1, seed=21, start=i)
            assert np.array_equal(Bi[0], B[i]) and np.array_equal(Mi[0], M[i])


def _allocation_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBatching:
    @pytest.mark.parametrize("K,n,size", [(256, 2, 255), (256, 16, 31), (1, 1, 65536),
                                          (70000, 2, 1)])
    def test_a_batch_is_the_whole_paths_the_budget_holds(self, K, n, size):
        batches = list(stochastic._chunks(1000, K, n))
        assert batches[0] == (0, min(size, 1000))
        assert sum(count for _, count in batches) == 1000
        assert all(start == i * size for i, (start, _) in enumerate(batches))


class TestEndpointMemory:
    @pytest.mark.parametrize("form", [H1, WT], ids=["heisenberg(1)", "wiener_truncation(8,2)"])
    def test_allocation_peak_is_one_chunk(self, form):
        # each batch's positions are drawn, summed and integrated in place,
        # and freed before the next batch is drawn; beside W and C the peak
        # is one budget, whatever the number of paths
        K = 256
        per_batch = stochastic.CHUNK_BYTES // ((K + 1) * form.n * 8)
        sample_endpoints(form, 1.0, 2, 2, seed=5)     # loads numpy.random untraced
        for samples in (4 * per_batch, 16 * per_batch):
            peak = _allocation_peak(sample_endpoints, form, 1.0, K, samples, seed=5)
            outputs = samples * (form.n + form.d) * 8
            assert peak <= 1.25 * stochastic.CHUNK_BYTES + outputs, samples


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
        BT, MT = sample_paths(H1, T, 64, 4, seed=41)
        B1, M1 = sample_paths(H1, 1.0, 64, 4, seed=41)
        assert np.allclose(BT / np.sqrt(T), B1, atol=1e-12)
        assert np.allclose(MT / T, M1, atol=1e-12)


class TestMeanSe:
    def test_matches_the_plain_formula(self):
        # the power-of-two scaling is exact: same bits as std / sqrt(N)
        rng = np.random.default_rng(43)
        for scale in (1e-120, 1e-3, 1.0, 1e90):
            v = rng.normal(size=257) * scale
            assert stochastic.mean_se(v) == (v.mean(), v.std(ddof=1) / np.sqrt(257))

    def test_tiny_values_do_not_underflow(self):
        # one path at a bump's support edge, as on wiener_truncation(8,2):
        # its square, 1e-351, is below the smallest double
        v = np.zeros(1000)
        v[3] = 3.4e-176
        mean, se = stochastic.mean_se(v)
        assert mean == pytest.approx(3.4e-179, rel=1e-12, abs=0.0)
        assert se == pytest.approx(3.4e-179, rel=1e-12, abs=0.0)   # a / N for one value a
        # below the cut-over the error scales exactly with the values
        w = np.random.default_rng(44).normal(size=257)
        assert stochastic.mean_se(np.ldexp(w, -600))[1] == np.ldexp(stochastic.mean_se(w)[1], -600)


class TestProjection:
    """The rank-m projection of sample paths, as ``approximation_report``
    computes it."""

    def test_full_rank_is_identity(self):
        B, M = sample_paths(BS, 1.0, 32, 2, seed=43)
        # the same left-point rule on the same positions
        assert np.array_equal(BS.restrict(BS.n).running_path_integral(B[..., :BS.n]), M)

    def test_block_projection_zeroes_unfed_coordinate(self):
        B, M = sample_paths(BS, 1.0, 64, 2, seed=47, start=1)
        Mq = BS.restrict(2).running_path_integral(B[..., :2])
        assert np.all(Mq[..., 1] == 0.0)          # second block cannot feed it
        assert not np.all(Mq[..., 0] == 0.0)

    def test_projection_chain_is_idempotent(self):
        B, M = sample_paths(BS, 1.0, 32, 2, seed=53, start=2)
        a = BS.restrict(3).restrict(2).running_path_integral(B[..., :3][..., :2])
        assert np.array_equal(a, BS.restrict(2).running_path_integral(B[..., :2]))

    def test_vertical_is_recomputed_not_projected(self):
        B, M = sample_paths(H1, 1.0, 128, 2, seed=59)
        # a single horizontal direction generates no area at all
        assert np.all(H1.restrict(1).running_path_integral(B[..., :1]) == 0.0)
        assert not np.all(M == 0.0)

    @pytest.mark.parametrize("name,kw,rank", [
        ("block_sum", {"weights": [1, 3]}, 2), ("block_sum", {"weights": [1, 3]}, 3),
        ("wiener_truncation", {"pairs": 8, "s": 2}, 4),
        ("wiener_truncation", {"pairs": 8, "s": 2}, 8)])
    def test_leading_block_matches_the_zeroed_full_form(self, name, kw, rank):
        form = make_preset(name, **kw).form
        B, M = sample_paths(form, 1.0, 64, 6, seed=83)
        Mq = form.restrict(rank).running_path_integral(B[..., :rank])
        # reference: the whole form's left-point sum over the zeroed paths
        Bz = B.copy()
        Bz[..., rank:] = 0.0
        steps = np.einsum("pki,ijl,pkj->pkl", Bz[:, :-1], form.coeffs, np.diff(Bz, axis=1))
        ref = np.concatenate([np.zeros((len(B), 1, form.d)), np.cumsum(steps, axis=1)],
                             axis=1)
        assert Mq.shape == ref.shape
        assert np.allclose(Mq, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("rank", [0, 5])
    def test_rank_outside_one_to_n_is_rejected(self, rank):
        B, M = sample_paths(BS, 1.0, 8, 2, seed=61)
        with pytest.raises(ValueError, match="rank"):
            BS.restrict(rank).running_path_integral(B[..., :rank])
        drawn = stochastic.paths_drawn
        with pytest.raises(ValueError, match="rank"):
            convergence_study(BS, 1.0, [8], [rank], 4, seed=61)
        assert stochastic.paths_drawn == drawn      # rejected before any draw


class TestApproximationReport:
    def test_full_rank_error_zero_and_monotone(self):
        form = make_preset("wiener_truncation", pairs=8, s=2).form
        _, rep = convergence_study(form, 1.0, [128], [4, 8, 16], 600, seed=61)
        assert rep.monotone_ok
        assert rep.errors[(16, 2)] == 0.0
        seq = rep.sequence(2)
        assert seq[0] >= seq[1] >= seq[2]

    def test_stderr_scales_with_samples(self):
        form = make_preset("wiener_truncation", pairs=4, s=2).form
        _, r1 = convergence_study(form, 1.0, [64], [2, 4], 500, seed=67)
        _, r4 = convergence_study(form, 1.0, [64], [2, 4], 2000, seed=67)
        ratio = r1.stderrs[(2, 2)] / r4.stderrs[(2, 2)]
        assert ratio == pytest.approx(2.0, rel=0.35)

    def test_does_not_depend_on_the_chunk_size(self, monkeypatch):
        def studies():
            return [convergence_study(WT, 1.0, [8, 16, 32], [2, 8, 16], 20, seed=73),
                    convergence_study(H1, 1.0, [4, 8, 16], [1, 2], 20, seed=73)]

        before = studies()
        # one path per batch, then 7 paths of WT's 32 steps per batch
        for budget in (1, 7 * 33 * WT.n * 8):
            monkeypatch.setattr(stochastic, "CHUNK_BYTES", budget)
            for (r, a), (s, b) in zip(before, studies()):
                assert a.errors == b.errors and a.stderrs == b.stderrs
                assert s.rms == r.rms
                assert s.fitted_order == r.fitted_order

    def test_allocation_peak_is_bounded(self, monkeypatch):
        # both studies read the paths of one batch: the draw's pairing
        # temporary, then one level or one rank's projection at a time;
        # only the per-path differences and sup gaps are kept across
        # batches, so the peak is a few budgets at any number of paths
        K_list, ranks = [32, 64, 128, 256], [4, 8, 16]
        for budget in (1 << 18, 1 << 20):
            monkeypatch.setattr(stochastic, "CHUNK_BYTES", budget)
            for count in (400, 1600):
                peak = _allocation_peak(convergence_study, WT, 1.0, K_list, ranks, count,
                                        seed=79)
                kept = count * ((len(K_list) - 1) * WT.d + len(ranks)) * 8
                assert peak < 2.5 * budget + 2 * kept, (budget, count)


class TestRefinement:
    def test_zero_increments_give_zero_integral(self):
        zeros = np.zeros((64, 2))
        assert np.all(H1.running_path_integral(zeros) == 0.0)

    def test_coupled_rms_positive_and_order_half(self):
        rep, _ = convergence_study(H1, 1.0, [16, 32, 64, 128, 256], [H1.n], 1500, seed=73)
        assert all(r > 0 for r in rep.rms)
        assert rep.fitted_order == pytest.approx(0.5, abs=0.15)

    def test_rms_decreases_with_resolution(self):
        rep, _ = convergence_study(H1, 1.0, [8, 32, 128, 512], [H1.n], 800, seed=79)
        assert rep.rms[0] > rep.rms[1] > rep.rms[2]

    def test_bad_k_lists(self):
        with pytest.raises(ValueError):
            convergence_study(H1, 1.0, [32, 16], [H1.n], 10, seed=1)
        with pytest.raises(ValueError):
            convergence_study(H1, 1.0, [12, 64], [H1.n], 10, seed=1)

    @pytest.mark.parametrize("name,kw", PRESETS[1:])
    def test_subsampled_levels_equal_summed_increments(self, name, kw):
        form = make_preset(name, **kw).form
        T, K_list, count, seed = 0.8, [4, 8, 16, 32], 5, 97
        K_max = K_list[-1]
        B, M = sample_paths(form, T, K_max, count, seed)
        areas = refinement_convergence(form, B, M, K_list)
        assert areas.shape == (len(K_list), count, form.d)
        # reference: each path's own increments, summed in blocks of
        # K_max // K, a fresh cumsum and the explicit left-point triple sum
        inc = np.stack([path_generator(seed, p).standard_normal((K_max, form.n))
                        for p in range(count)]) * np.sqrt(T / K_max)
        for K, got in zip(K_list, areas):
            inc_c = inc.reshape(count, K, K_max // K, form.n).sum(axis=2)
            left = np.concatenate([np.zeros((count, 1, form.n)),
                                   np.cumsum(inc_c, axis=1)[:, :-1]], axis=1)
            ref = np.einsum("pki,ijl,pkj->pl", left, form.coeffs, inc_c)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
