"""Elliptic design search: posterior assembly, criterion surface, greedy loop.

Resolutions are deliberately coarse here; full-resolution behaviour is
covered by the acceptance suite.
"""

import numpy as np
import pytest

from optinfo import pde
from optinfo.criteria import MonteCarloConfig
from optinfo.errors import SingularGram
from optinfo.gaussian import _psd_factor, derive_rng
from optinfo.kernels import NEG_LAPLACIAN, POINT, SquaredExponential
from optinfo.pde import (
    DesignState,
    EllipticDesignProblem,
    _candidate_values,
    _joint_cov,
    boundary_points,
    bpn_surface,
    design_criterion,
    greedy_design,
    greedy_trace_design,
    posterior_on_grid,
)


def small_problem(**kwargs):
    defaults = dict(eval_grid=8, candidate_grid=5, n_boundary=12)
    defaults.update(kwargs)
    return EllipticDesignProblem(**defaults)


class TestGeometry:
    def test_boundary_points_on_boundary(self):
        pts = boundary_points(16)
        assert pts.shape == (16, 2)
        on_edge = (np.isclose(pts, 0.0) | np.isclose(pts, 1.0)).any(axis=1)
        assert on_edge.all()
        # Corners appear once each.
        assert len({tuple(p) for p in np.round(pts, 12)}) == 16

    def test_candidates_strictly_interior_lexicographic(self):
        problem = small_problem()
        cands = problem.candidates
        assert np.all((cands > 0.0) & (cands < 1.0))
        order = np.lexsort((cands[:, 1], cands[:, 0]))
        np.testing.assert_array_equal(order, np.arange(len(cands)))

    def test_grid_weights_sum_to_one(self):
        problem = small_problem()
        assert problem.grid_weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            EllipticDesignProblem(p=3.0)

    @pytest.mark.parametrize("field, value", [
        ("eval_grid", 0), ("eval_grid", -2), ("candidate_grid", 0), ("n_boundary", -1),
    ])
    def test_bad_sizes_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            EllipticDesignProblem(**{field: value})


class TestPosteriorOnGrid:
    def test_no_observations_returns_prior_gram(self):
        problem = small_problem(n_boundary=0)
        cov = posterior_on_grid(problem, [])
        grid = problem.grid_points
        codes = np.zeros(grid.shape[0], dtype=np.int64)
        prior = problem.kernel.cross_cov(grid, codes, grid, codes)
        assert cov == pytest.approx(prior, abs=1e-12)

    def test_duplicate_point_rejected_with_pair(self):
        problem = small_problem()
        with pytest.raises(SingularGram) as err:
            posterior_on_grid(problem, [[0.5, 0.5], [0.5, 0.5]])
        assert "0.5" in str(err.value)

    def test_one_interior_point_reduces_trace(self):
        problem = small_problem()
        base = np.trace(posterior_on_grid(problem, []))
        conditioned = np.trace(posterior_on_grid(problem, [[0.5, 0.5]]))
        assert conditioned < base - 1e-9

    def test_symmetric_psd(self):
        problem = small_problem()
        cov = posterior_on_grid(problem, [[0.3, 0.7]])
        assert cov == pytest.approx(cov.T, abs=1e-12)
        assert np.linalg.eigvalsh(cov)[0] >= -1e-8


class TestCriterionSurface:
    def test_p2_surface_matches_direct_recomputation(self):
        # The rank-1 shortcut must agree with conditioning from scratch.
        problem = small_problem()
        state = DesignState(points=[np.array([0.3, 0.3])])
        candidate = np.array([0.7, 0.7])
        via_surface = bpn_surface(problem, state, candidate)
        cov = posterior_on_grid(problem, [state.points[0], candidate])
        direct = 2.0 * float(problem.grid_weights @ np.diag(cov))
        # The two routes stabilise different Gram matrices, so agreement is
        # limited by the jitter scale rather than machine precision.
        assert via_surface == pytest.approx(direct, rel=1e-4)

    def test_redundant_candidate_adds_nothing(self):
        problem = small_problem()
        state = DesignState(points=[np.array([0.5, 0.5])])
        nearby = np.array([0.5, 0.5 + 2e-6])
        with_nearby = bpn_surface(problem, state, nearby)
        without, _ = design_criterion(problem, state.points)
        assert with_nearby == pytest.approx(without, rel=2e-2)

    def test_collision_rejected(self):
        problem = small_problem()
        state = DesignState(points=[np.array([0.5, 0.5])])
        with pytest.raises(SingularGram):
            bpn_surface(problem, state, np.array([0.5, 0.5]))

    def test_single_pair_sample_gives_zero_stderr(self):
        problem = small_problem(p=np.inf)
        cfg = MonteCarloConfig(seed=4, n_outer=1)
        est, se = design_criterion(problem, [[0.5, 0.5]], cfg)
        assert np.isfinite(est) and se == 0.0
        joint = _joint_cov(problem, [], problem.candidates)
        n_grid = problem.grid_points.shape[0]
        values, stderrs = _candidate_values(problem, joint, n_grid, np.arange(3),
                                            problem.grid_weights, cfg, 0)
        assert np.all(np.isfinite(values))
        np.testing.assert_array_equal(stderrs, np.zeros(3))

    def test_pinf_deterministic(self):
        problem = small_problem(p=np.inf)
        state = DesignState(points=[])
        cfg = MonteCarloConfig(seed=9, n_outer=64)
        a = bpn_surface(problem, state, np.array([0.4, 0.6]), cfg)
        b = bpn_surface(problem, state, np.array([0.4, 0.6]), cfg)
        assert a == b


class TestGreedy:
    def test_first_point_near_centre(self):
        problem = small_problem()
        state, contours, trace = greedy_design(problem, 1)
        assert state.points[0] == pytest.approx([0.5, 0.5], abs=1.0 / 6.0 + 1e-12)
        assert contours[0].shape == (5, 5)
        # The surface minimum sits at the returned point.
        flat = contours[0].ravel()
        assert np.nanmin(flat) == pytest.approx(trace[0])

    def test_trace_strictly_decreases(self):
        problem = small_problem()
        traces = []
        state, _, _ = greedy_design(problem, 3)
        for k in range(4):
            traces.append(np.trace(posterior_on_grid(problem, state.points[:k])))
        assert all(traces[i + 1] < traces[i] - 1e-9 for i in range(3))

    def test_p2_greedy_equals_trace_greedy(self):
        problem = small_problem()
        state, _, _ = greedy_design(problem, 3)
        reference = greedy_trace_design(problem, 3)
        for got, want in zip(state.points, reference):
            assert got == pytest.approx(want, abs=1e-12)

    def test_chosen_points_masked_in_later_contours(self):
        problem = small_problem()
        state, contours, _ = greedy_design(problem, 2)
        first = state.points[0]
        cands = problem.candidates
        idx = int(np.argmin(np.linalg.norm(cands - first, axis=1)))
        assert np.isnan(contours[1].ravel()[idx])

    def test_threads_do_not_change_results(self):
        problem = small_problem(p=np.inf)
        cfg = MonteCarloConfig(seed=2, n_outer=48)
        state1, contours1, trace1 = greedy_design(problem, 2, cfg, threads=1)
        state3, contours3, trace3 = greedy_design(problem, 2, cfg, threads=3)
        assert trace1 == trace3
        for a, b in zip(contours1, contours3):
            np.testing.assert_array_equal(a, b)

    def test_grid_cov_cache_consistent(self):
        problem = small_problem()
        state, _, _ = greedy_design(problem, 2)
        recomputed = posterior_on_grid(problem, state.points)
        np.testing.assert_array_equal(state.grid_cov, recomputed)

    @pytest.mark.parametrize("p", [2.0, np.inf])
    def test_contours_equal_full_reconditioning(self, p):
        # Oracle: every step reassembles and reconditions the joint
        # covariance from scratch; the cached blocks must give the same bits.
        problem = small_problem(p=p)
        cfg = MonteCarloConfig(seed=3, n_outer=64)
        state, contours, _ = greedy_design(problem, 3, cfg)
        cands = problem.candidates
        n_grid = problem.grid_points.shape[0]
        for step, contour in enumerate(contours):
            prefix = state.points[:step]
            free = np.array([c for c in range(len(cands))
                             if all(np.linalg.norm(cands[c] - q) >= problem.min_separation
                                    for q in prefix)])
            joint = _joint_cov(problem, prefix, cands)
            values, _ = _candidate_values(problem, joint, n_grid, free,
                                          problem.grid_weights, cfg, step)
            surface = np.full(len(cands), np.nan)
            surface[free] = values
            np.testing.assert_array_equal(contour.ravel(), surface)

    def test_prior_assembled_once(self, monkeypatch):
        problem = small_problem()
        n_grid = problem.grid_points.shape[0]
        n_joint = n_grid + problem.candidates.shape[0]
        shapes = []
        cross_cov = SquaredExponential.cross_cov

        def recording(self, *args):
            out = cross_cov(self, *args)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(SquaredExponential, "cross_cov", recording)
        greedy_design(problem, 3)
        assert shapes.count((n_joint, n_joint)) == 1
        assert shapes.count((n_grid, n_grid)) == 0

    def test_more_points_than_candidates_rejected_up_front(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a candidate was scored before m was checked")

        monkeypatch.setattr(pde, "_candidate_values", never)
        with pytest.raises(ValueError, match="candidate_grid"):
            greedy_design(small_problem(candidate_grid=2), 5)

    def test_nonpositive_threads_rejected(self):
        with pytest.raises(ValueError):
            greedy_design(small_problem(), 1, threads=0)
        with pytest.raises(ValueError):
            greedy_design(small_problem(), 1, threads=-1)

    def test_thread_pool_capped_at_free_candidates(self, monkeypatch):
        problem = small_problem(p=np.inf, candidate_grid=2)
        cfg = MonteCarloConfig(seed=5, n_outer=32)
        serial = greedy_design(problem, 2, cfg, threads=1)
        workers = []
        executor = pde.ThreadPoolExecutor

        class Recording(executor):
            def __init__(self, max_workers=None, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(pde, "ThreadPoolExecutor", Recording)
        state, contours, trace = greedy_design(problem, 2, cfg, threads=8)
        assert workers and max(workers) <= 4
        assert trace == serial[2]
        np.testing.assert_array_equal(state.points, serial[0].points)
        for a, b in zip(contours, serial[1]):
            np.testing.assert_array_equal(a, b)


def per_candidate_pinf(joint, n_grid, cand_idx, cfg, step):
    """Reference p = inf scoring: one outer-product temporary per candidate."""
    jitter = 1e-12 * (np.trace(joint) / joint.shape[0] + 1.0)
    rng = derive_rng(cfg.seed, step)
    factor = _psd_factor(joint)
    n_pairs = cfg.n_outer
    draws = rng.standard_normal((2 * n_pairs, joint.shape[0])) @ factor.T
    dx = draws[:n_pairs, :n_grid] - draws[n_pairs:, :n_grid]
    dg = draws[:n_pairs, n_grid:] - draws[n_pairs:, n_grid:]
    values = np.empty(len(cand_idx))
    stderrs = np.zeros(len(cand_idx))
    for pos, c in enumerate(cand_idx):
        j = n_grid + c
        z = dx - np.outer(dg[:, c] / (joint[j, j] + jitter), joint[:n_grid, j])
        vals = np.max(np.abs(z), axis=1)
        values[pos] = float(np.mean(vals))
        if n_pairs > 1:
            stderrs[pos] = float(np.std(vals, ddof=1) / np.sqrt(n_pairs))
    return values, stderrs


class TestBlockedPinfKernel:
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("n_outer", [1, 48])
    def test_bit_identical_to_per_candidate_loop(self, threads, n_outer):
        # 49 grid points and 23 of 36 candidates: neither is a multiple of
        # its block size, so partial blocks on both axes are exercised.
        problem = small_problem(p=np.inf, eval_grid=7, candidate_grid=6)
        cands = problem.candidates
        n_grid = problem.grid_points.shape[0]
        joint = _joint_cov(problem, [cands[13]], cands)
        cand_idx = np.array([c for c in range(len(cands)) if c % 3 != 2 and c != 13])
        assert len(cand_idx) == 23
        cfg = MonteCarloConfig(seed=6, n_outer=n_outer)
        want = per_candidate_pinf(joint, n_grid, cand_idx, cfg, step=1)
        got = _candidate_values(problem, joint, n_grid, cand_idx, problem.grid_weights,
                                cfg, 1, threads)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


class TestEstimatorCrossValidation:
    def test_pair_reduction_vs_naive_nested_mc(self):
        # Coarse instance: 8x8 grid, 2 interior points. The naive oracle
        # draws the latent field jointly with the observables, conditions,
        # and compares a posterior draw against the joint truth draw.
        problem = small_problem(p=np.inf)
        points = [np.array([0.35, 0.35]), np.array([0.65, 0.65])]
        est, se = design_criterion(problem, points, MonteCarloConfig(seed=0, n_outer=4000))

        n_grid = problem.grid_points.shape[0]
        joint = _joint_cov(problem, [], np.array(points))
        # Gram over the two candidate functionals and cross-covariance to grid,
        # both already posterior to the boundary observations.
        gram = joint[n_grid:, n_grid:] + 1e-10 * np.eye(2)
        cross = joint[:n_grid, n_grid:]
        gain = cross @ np.linalg.inv(gram)
        post_cov = joint[:n_grid, :n_grid] - gain @ cross.T

        rng = derive_rng(1234)
        factor = _psd_factor(joint)
        post_factor = _psd_factor(post_cov)
        n = 4000
        z = rng.standard_normal((n, joint.shape[0])) @ factor.T
        truth, obs = z[:, :n_grid], z[:, n_grid:]
        post_mean = obs @ gain.T
        draws = post_mean + rng.standard_normal((n, n_grid)) @ post_factor.T
        vals = np.max(np.abs(truth - draws), axis=1)
        naive = float(vals.mean())
        naive_se = float(vals.std(ddof=1) / np.sqrt(n))
        assert abs(est - naive) <= 3.0 * np.hypot(se, naive_se)


class TestJointCovariance:
    def test_codes_layout(self):
        problem = small_problem()
        extra = np.array([[0.4, 0.4]])
        joint = _joint_cov(problem, [], extra)
        n_grid = problem.grid_points.shape[0]
        assert joint.shape == (n_grid + 1, n_grid + 1)
        # The candidate block is the posterior variance of the negative
        # Laplacian functional; strictly positive.
        assert joint[n_grid, n_grid] > 0.0
