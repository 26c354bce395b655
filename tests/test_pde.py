"""Elliptic design search: posterior assembly, criterion surface, greedy loop.

Resolutions are deliberately coarse here; full-resolution behaviour is
covered by the acceptance suite.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optinfo import pde
from optinfo.criteria import MonteCarloConfig, bdt_criterion, mean_and_stderr
from optinfo.decisions import GaussianLinearProblem, WeightedQuadratic
from optinfo.errors import FactorizationFailure, SingularGram
from optinfo.gaussian import GaussianDensity, _psd_factor, derive_rng
from optinfo.kernels import NEG_LAPLACIAN, POINT, ConditionedPredictor, SquaredExponential
from optinfo.pde import (
    EllipticDesignProblem,
    _candidate_values,
    _design_pairs,
    _grid_pair_factor,
    _grid_prior,
    _joint_cov,
    _pathwise_pairs,
    _pinf_values,
    _predictor,
    _search_prior,
    boundary_points,
    design_criterion,
    greedy_design,
    greedy_trace_design,
    posterior_on_grid,
)


# Property tests replay the same examples on every run and have no deadline,
# so Tier-1 stays deterministic and free of timing failures.
PROPERTY = settings(derandomize=True, deadline=None, database=None)


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
        ("candidate_grid", 2.5), ("eval_grid", 2.5), ("n_boundary", 3.5), ("eval_grid", True),
        ("lengthscale", np.nan), ("lengthscale", np.inf), ("lengthscale", 0.0),
        ("amplitude", np.nan), ("amplitude", np.inf), ("amplitude", -1.0),
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

    @pytest.mark.parametrize("points", [[0.5, 0.5], [[0.5, 0.5]], np.array([[0.5, 0.5]])])
    def test_one_point_accepted_flat_or_as_row(self, points):
        problem = small_problem()
        np.testing.assert_array_equal(posterior_on_grid(problem, points),
                                      posterior_on_grid(problem, np.array([[0.5, 0.5]])))

    @pytest.mark.parametrize("points", [[0.5], [[0.5, 0.5, 0.5]], np.zeros((1, 2, 2)), 0.5])
    def test_bad_point_shape_names_k_by_2(self, points):
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            _predictor(small_problem(), points)

    def test_nan_point_rejected_as_bad_input(self):
        with pytest.raises(ValueError, match="finite"):
            design_criterion(small_problem(), [[0.5, np.nan]])

    def test_point_pair_too_close_rejected(self):
        with pytest.raises(SingularGram, match="MIN_SEPARATION"):
            design_criterion(small_problem(), [[0.5, 0.5], [0.5 + 5e-7, 0.5]])

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


def record_cross_cov_shapes(monkeypatch):
    """List that grows by the shape of every SE ``cross_cov`` result."""
    shapes = []
    cross_cov = SquaredExponential.cross_cov

    def recording(self, *args):
        out = cross_cov(self, *args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(SquaredExponential, "cross_cov", recording)
    return shapes


DEFAULT_DESIGN = [[0.3, 0.3], [0.5, 0.5], [0.7, 0.3], [0.3, 0.7], [0.7, 0.7]]


def dense_design_criterion(problem, points, cfg):
    """Independent oracle of the p = inf ``design_criterion``: pair
    differences drawn from ``_psd_factor`` of twice the dense grid posterior
    ``posterior_on_grid``, factored for every design. It shares no sampling
    code with the pathwise estimator."""
    cov = posterior_on_grid(problem, points)
    rng = derive_rng(cfg.seed, 10**6)
    factor = _psd_factor(2.0 * cov)
    z = rng.standard_normal((cfg.n_outer, cov.shape[0])) @ factor.T
    value, stderr = mean_and_stderr(np.max(np.abs(z), axis=1))
    return float(value), float(stderr)


def criterion8_design(i):
    """The i-th off-lattice 9-point random design of acceptance criterion 8."""
    return derive_rng(1000, i).uniform(0.05, 0.95, (9, 2))


class TestFixedDesignScoring:
    def test_p2_assembles_no_grid_block(self, monkeypatch):
        problem = EllipticDesignProblem()
        n_grid = problem.grid_points.shape[0]
        shapes = record_cross_cov_shapes(monkeypatch)
        design_criterion(problem, DEFAULT_DESIGN)
        assert shapes and (n_grid, n_grid) not in shapes

    def test_pinf_assembles_grid_prior_once(self, monkeypatch, cholesky_calls):
        # Once the grid factor is cached, a p = inf call makes no Cholesky
        # call, assembles no grid x grid block and factors nothing larger
        # than the n_obs x n_obs Gram and Schur complement.
        problem = EllipticDesignProblem(p=np.inf)
        n_grid = problem.grid_points.shape[0]
        n_obs = problem.n_boundary + len(DEFAULT_DESIGN)
        cfg = MonteCarloConfig(seed=1, n_outer=8)
        design_criterion(problem, DEFAULT_DESIGN[:3], cfg)
        cholesky_calls.clear()
        shapes = record_cross_cov_shapes(monkeypatch)
        factored = []
        for module, name in [(np.linalg, "eigh"), (scipy.linalg, "cho_factor")]:
            def recording(mat, *args, _f=getattr(module, name), **kwargs):
                factored.append(np.shape(mat))
                return _f(mat, *args, **kwargs)

            monkeypatch.setattr(module, name, recording)
        design_criterion(problem, DEFAULT_DESIGN, cfg)
        assert not cholesky_calls
        assert shapes and (n_grid, n_grid) not in shapes
        assert factored and max(max(shape) for shape in factored) == n_obs

    @PROPERTY
    @given(
        eval_grid=st.integers(1, 9),
        n_boundary=st.sampled_from([0, 5, 12]),
        lengthscale=st.sampled_from([0.3, 0.6, 1.0]),
        amplitude=st.sampled_from([0.5, 1.0, 2.0]),
        idx=st.lists(st.integers(0, 24), max_size=4, unique=True),
    )
    @example(eval_grid=8, n_boundary=12, lengthscale=1.0, amplitude=1.0, idx=[])
    @example(eval_grid=8, n_boundary=12, lengthscale=1.0, amplitude=1.0, idx=[12])
    @example(eval_grid=8, n_boundary=0, lengthscale=0.6, amplitude=1.0, idx=[])
    @example(eval_grid=8, n_boundary=0, lengthscale=0.6, amplitude=1.0, idx=[6, 18])
    def test_p2_equals_weighted_trace_of_grid_covariance(self, eval_grid, n_boundary,
                                                         lengthscale, amplitude, idx):
        problem = small_problem(eval_grid=eval_grid, n_boundary=n_boundary,
                                lengthscale=lengthscale, amplitude=amplitude)
        points = problem.candidates[idx]
        cov = posterior_on_grid(problem, points)
        want = 2.0 * float(problem.grid_weights @ np.diag(cov))
        got, stderr = design_criterion(problem, points)
        assert got == pytest.approx(want, rel=1e-9) and stderr == 0.0

    def test_pinf_cached_prior_cannot_alias(self):
        # Interleaved grids and lengthscales: with one entry in each cache,
        # the grid prior and the grid pair factor, every call below replaces
        # the entry the previous call left, and the first problem, repeated
        # last, finds its own values again.
        problems = [small_problem(p=np.inf), small_problem(p=np.inf, lengthscale=0.5),
                    small_problem(p=np.inf, eval_grid=7), small_problem(p=np.inf)]
        points = [[0.35, 0.4], [0.6, 0.65]]
        cfg = MonteCarloConfig(seed=2, n_outer=32)
        _grid_prior.cache_clear()
        _grid_pair_factor.cache_clear()
        values = []
        for problem in problems:
            key = (problem.eval_grid, problem.lengthscale, problem.amplitude)
            oracle = _predictor(problem, np.array(points)).cov(problem.grid_points)
            cold = posterior_on_grid(problem, points)
            cold_value = design_criterion(problem, points, cfg)
            warm = posterior_on_grid(problem, points)
            np.testing.assert_array_equal(cold, oracle)
            np.testing.assert_array_equal(warm, oracle)
            assert design_criterion(problem, points, cfg) == cold_value
            np.testing.assert_array_equal(_grid_pair_factor(*key),
                                          _grid_pair_factor.__wrapped__(*key))
            values.append(cold_value)
        assert values[-1] == values[0] and len(set(values)) == 3
        assert _grid_prior.cache_info().misses == len(problems)
        assert _grid_pair_factor.cache_info().misses == len(problems)

    def test_cached_grid_pair_factor_is_read_only(self):
        problem = small_problem(p=np.inf)
        design_criterion(problem, [[0.5, 0.5]], MonteCarloConfig(seed=0, n_outer=4))
        factor = _grid_pair_factor(problem.eval_grid, problem.lengthscale, problem.amplitude)
        with pytest.raises(ValueError):
            factor[0, 0] = 0.0

    def test_cached_grid_prior_is_read_only(self):
        problem = small_problem()
        cov = posterior_on_grid(problem, [[0.5, 0.5]])
        prior = _grid_prior(problem.eval_grid, problem.lengthscale, problem.amplitude)
        with pytest.raises(ValueError):
            prior[0, 0] = 0.0
        cov[0, 0] = -1.0  # the result is a fresh array, not the cached block
        assert posterior_on_grid(problem, [[0.5, 0.5]])[0, 0] > 0.0


def step_value(problem, chosen, candidate, cfg=None):
    """The greedy step's value of ``candidate`` added to the boundary and the
    ``chosen`` points: one ``_candidate_values`` call over the candidates
    [chosen points; candidate]."""
    cands = np.vstack([np.reshape(chosen, (-1, 2)), candidate])
    search = _search_prior(problem, cands, cfg or MonteCarloConfig())
    k = len(cands) - 1
    values, _ = _candidate_values(problem, search, _predictor(problem, cands[:k]),
                                  np.arange(k), np.array([k]))
    return float(values[0])


class TestCriterionSurface:
    def test_p2_surface_matches_direct_recomputation(self):
        # The rank-1 shortcut must agree with conditioning from scratch.
        problem = small_problem()
        chosen, candidate = np.array([0.3, 0.3]), np.array([0.7, 0.7])
        via_surface = step_value(problem, [chosen], candidate)
        cov = posterior_on_grid(problem, [chosen, candidate])
        direct = 2.0 * float(problem.grid_weights @ np.diag(cov))
        # The two routes stabilise different Gram matrices, so agreement is
        # limited by the jitter scale rather than machine precision.
        assert via_surface == pytest.approx(direct, rel=1e-4)

    def test_redundant_candidate_adds_nothing(self):
        problem = small_problem()
        chosen = np.array([0.5, 0.5])
        with_nearby = step_value(problem, [chosen], np.array([0.5, 0.5 + 2e-6]))
        without, _ = design_criterion(problem, [chosen])
        assert with_nearby == pytest.approx(without, rel=2e-2)

    def test_single_pair_sample_gives_zero_stderr(self):
        problem = small_problem(p=np.inf)
        cfg = MonteCarloConfig(seed=4, n_outer=1)
        est, se = design_criterion(problem, [[0.5, 0.5]], cfg)
        assert np.isfinite(est) and se == 0.0
        search = _search_prior(problem, problem.candidates, cfg)
        values, stderrs = _candidate_values(problem, search, _predictor(problem, []), [],
                                            np.arange(3))
        assert np.all(np.isfinite(values))
        np.testing.assert_array_equal(stderrs, np.zeros(3))

    def test_pinf_deterministic(self):
        problem = small_problem(p=np.inf)
        cfg = MonteCarloConfig(seed=9, n_outer=64)
        a = step_value(problem, [], np.array([0.4, 0.6]), cfg)
        b = step_value(problem, [], np.array([0.4, 0.6]), cfg)
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

    @pytest.mark.parametrize("p", [2.0, np.inf])
    def test_contours_equal_full_reconditioning(self, p):
        # Oracle: every step rebuilds from scratch a freshly assembled prior
        # (and at p = inf the pool drawn from the same seed) and a predictor
        # conditioned on the prefix; the search's kept state must give the
        # same bits.
        problem = small_problem(p=p)
        cfg = MonteCarloConfig(seed=3, n_outer=64)
        state, contours, _ = greedy_design(problem, 3, cfg)
        cands = problem.candidates
        for step, contour in enumerate(contours):
            prefix = state.points[:step]
            chosen = [int(np.argmin(np.linalg.norm(cands - q, axis=1))) for q in prefix]
            free = np.array([c for c in range(len(cands)) if c not in chosen])
            values, _ = _candidate_values(problem, _search_prior(problem, cands, cfg),
                                          _predictor(problem, prefix), chosen, free)
            surface = np.full(len(cands), np.nan)
            surface[free] = values
            np.testing.assert_array_equal(contour.ravel(), surface)

    def test_prior_assembled_once(self, monkeypatch):
        # The exact blocks of a search: the prior blocks once, then per step
        # the Gram and the query x observation block of its predictor. At
        # p = 2 the one prior block is candidates x grid; at p = inf the
        # six blocks of [grid; candidates; boundary] at or below the
        # diagonal fill the buffer that is factored.
        shapes = record_cross_cov_shapes(monkeypatch)
        m = 3
        for p in (2.0, np.inf):
            problem = small_problem(p=p)
            n_grid, n_cand = problem.grid_points.shape[0], problem.candidates.shape[0]
            n_bnd = problem.n_boundary
            shapes.clear()
            greedy_design(problem, m, MonteCarloConfig(seed=1, n_outer=16))
            prior = [(n_cand, n_grid)]
            if p == np.inf:
                prior += [(n_grid, n_grid), (n_cand, n_cand),
                          (n_bnd, n_grid), (n_bnd, n_cand), (n_bnd, n_bnd)]
            steps = [shape for k in range(m)
                     for shape in [(n_bnd + k, n_bnd + k), (n_grid + n_cand, n_bnd + k)]]
            assert sorted(shapes) == sorted(prior + steps), p

    def test_p2_search_memory_peak(self):
        # A p = 2 search keeps the prior diagonal and the 5 MB candidate x
        # grid block, not the 21.75 MB prior over [grid; candidates]. numpy
        # reports its buffers to tracemalloc: the peak of this m = 9 search
        # read 19.6 MiB, against 60.8 MiB when the whole prior was kept.
        problem = EllipticDesignProblem()
        tracemalloc.start()
        try:
            greedy_design(problem, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    @pytest.mark.parametrize("p", [2.0, np.inf])
    def test_no_cov_functionals_call_during_search(self, p, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a search step formed a query covariance")

        monkeypatch.setattr(ConditionedPredictor, "cov_functionals", never)
        state, _, _ = greedy_design(small_problem(p=p), 3, MonteCarloConfig(seed=1, n_outer=16))
        assert len(state.points) == 3

    @pytest.mark.parametrize("n_boundary", [12, 0])
    def test_p2_contours_match_joint_posterior(self, n_boundary):
        # Oracle: at every step, the rank-1 update of the dense joint
        # posterior over [grid; candidates] from _joint_cov, with the scoring
        # jitter of that joint (measured worst cell 1.7e-13 relative, 4.4e-16
        # without boundary).
        problem = small_problem(n_boundary=n_boundary)
        state, contours, _ = greedy_design(problem, 4)
        cands, weights = problem.candidates, problem.grid_weights
        n_grid = problem.grid_points.shape[0]
        for step, contour in enumerate(contours):
            joint = _joint_cov(problem, state.points[:step], cands)
            diag = np.diag(joint)[:n_grid]
            jitter = 1e-12 * (np.trace(joint) / joint.shape[0] + 1.0)
            free = np.flatnonzero(np.isfinite(contour.ravel()))
            assert len(free) == len(cands) - step
            want = np.array([2.0 * weights @ (diag - joint[:n_grid, n_grid + c] ** 2
                                              / (joint[n_grid + c, n_grid + c] + jitter))
                             for c in free])
            np.testing.assert_allclose(contour.ravel()[free], want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("search", [greedy_design, greedy_trace_design])
    def test_more_points_than_candidates_rejected_up_front(self, search, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a candidate was scored before m was checked")

        monkeypatch.setattr(pde, "_candidate_values", never)
        monkeypatch.setattr(pde, "_joint_cov", never)
        with pytest.raises(ValueError, match="candidate_grid"):
            search(small_problem(candidate_grid=2), 5)

    @pytest.mark.parametrize("search", [greedy_design, greedy_trace_design])
    def test_no_points_rejected(self, search):
        with pytest.raises(ValueError, match="m = 0"):
            search(small_problem(), 0)

    def test_search_picks_every_candidate(self):
        # m = C^2 picks each candidate once; the last step has one free.
        problem = EllipticDesignProblem(eval_grid=6, candidate_grid=2, n_boundary=8)
        state, contours, _ = greedy_design(problem, 4)
        assert sorted(map(tuple, state.points)) == sorted(map(tuple, problem.candidates))
        assert np.isfinite(contours[-1]).sum() == 1

    def test_nonpositive_threads_rejected(self):
        with pytest.raises(ValueError):
            greedy_design(small_problem(), 1, threads=0)
        with pytest.raises(ValueError):
            greedy_design(small_problem(), 1, threads=-1)

    @pytest.mark.parametrize("p", [2.0, np.inf])
    @pytest.mark.parametrize("search", [greedy_design, greedy_trace_design])
    @pytest.mark.parametrize("m", [2.5, True, np.float64(2.0), "2"])
    def test_non_integer_m_rejected(self, search, p, m, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a candidate was scored before m was checked")

        monkeypatch.setattr(pde, "_candidate_values", never)
        monkeypatch.setattr(pde, "_joint_cov", never)
        with pytest.raises(ValueError, match="m must be an integer"):
            search(small_problem(p=p), m)

    @pytest.mark.parametrize("p", [2.0, np.inf])
    @pytest.mark.parametrize("threads", [1.5, True, np.float64(2.0), "2"])
    def test_non_integer_threads_rejected(self, p, threads):
        with pytest.raises(ValueError, match="threads must be an integer"):
            greedy_design(small_problem(p=p), 1, MonteCarloConfig(n_outer=4), threads=threads)

    def test_numpy_integer_sizes_accepted(self):
        problem = small_problem(p=np.inf)
        cfg = MonteCarloConfig(seed=1, n_outer=8)
        want = greedy_design(problem, 2, cfg, threads=2)[2]
        assert greedy_design(problem, np.int64(2), cfg, threads=np.int32(2))[2] == want

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


def per_candidate_pinf(dx, dg, columns, variances):
    """Reference p = inf scoring: one outer-product temporary per candidate."""
    n_pairs = dx.shape[0]
    values = np.empty(len(variances))
    stderrs = np.zeros(len(variances))
    for pos in range(len(variances)):
        z = dx - np.outer(dg[:, pos] / variances[pos], columns[pos])
        vals = np.max(np.abs(z), axis=1)
        values[pos] = float(np.mean(vals))
        if n_pairs > 1:
            stderrs[pos] = float(np.std(vals, ddof=1) / np.sqrt(n_pairs))
    return values, stderrs


def dense_pinf_inputs(joint, n_grid, cand_idx, cfg):
    """The p = inf step that the search used before pathwise draws: shared
    pair draws from ``_psd_factor(joint)`` of the dense joint posterior over
    [grid; candidates], factored at every step, and the scoring inputs read
    from that joint."""
    rng = derive_rng(cfg.seed)
    n_pairs = cfg.n_outer
    draws = rng.standard_normal((2 * n_pairs, joint.shape[0])) @ _psd_factor(joint).T
    pairs = draws[:n_pairs] - draws[n_pairs:]
    cols = n_grid + np.asarray(cand_idx)
    jitter = 1e-12 * (np.trace(joint) / joint.shape[0] + 1.0)
    return (pairs[:, :n_grid], pairs[:, cols], joint[:n_grid, cols].T,
            joint[cols, cols] + jitter)


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
        inputs = dense_pinf_inputs(joint, n_grid, cand_idx, cfg)
        want = per_candidate_pinf(*inputs)
        got = _pinf_values(*inputs, threads)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def pathwise_variances(search, predictor, chosen, factor):
    """Exact diagonal of the covariance of ``_pathwise_pairs`` for a pool
    drawn through ``factor``. The map is linear, so its covariance is the
    sum over the columns of ``factor`` fed in as pool rows with zero noise,
    plus the noise basis fed in with zero pairs."""
    _, solved = predictor.cross_solve(search.points, search.codes)
    n_all = factor.shape[0]
    n_noise = n_all - search.n_grid
    signal = replace(search, pairs=factor.T, noise=np.zeros((n_all, n_noise)))
    noise = replace(search, pairs=np.zeros((n_noise, n_all)), noise=np.eye(n_noise))
    return sum((_pathwise_pairs(pool, predictor, chosen, solved) ** 2).sum(axis=0)
               for pool in (signal, noise))


# The first eight points of the recorded p = 2 reference design at default
# sizes, in units of the candidate spacing 1/26.
PREFIX_8 = np.array([(13, 13), (14, 13), (13, 14), (12, 12), (15, 12), (9, 15),
                     (17, 15), (13, 20)]) / 26.0


class TestPathwiseSampler:
    def test_map_covariance_is_twice_the_posterior(self, monkeypatch):
        # Deterministic oracle at default sizes, before the ninth step: the
        # pathwise map's variances against 2 x cov_functionals through the
        # same predictor. A pool drawn through _psd_factor(2 P), whose
        # jitter is scaled by the mean diagonal, fails the same check.
        problem = EllipticDesignProblem(p=np.inf)
        cands = problem.candidates
        chosen = [int(np.argmin(np.linalg.norm(cands - q, axis=1))) for q in PREFIX_8]
        factors = []
        unit_diagonal_factor = pde._unit_diagonal_factor

        def capturing(cov):
            factors.append(unit_diagonal_factor(cov))
            return factors[-1]

        monkeypatch.setattr(pde, "_unit_diagonal_factor", capturing)
        search = _search_prior(problem, cands, MonteCarloConfig(n_outer=1))
        (factor,) = factors
        # What the search keeps of the prior is the one-call assembly over
        # the joint, bit for bit.
        joint = problem.kernel.cross_cov(search.points, search.codes,
                                         search.points, search.codes)
        np.testing.assert_array_equal(search.diag, np.diagonal(joint))
        np.testing.assert_array_equal(search.cand_grid, joint[search.n_grid:, :search.n_grid])
        assert search.cand_grid.flags.c_contiguous
        predictor = _predictor(problem, cands[chosen])
        want = 2.0 * np.diagonal(predictor.cov_functionals(search.points, search.codes, joint))
        got = pathwise_variances(search, predictor, chosen, factor)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-2

        pts = np.vstack([search.points, problem.boundary])
        codes = np.concatenate([search.codes, np.full(problem.n_boundary, POINT)])
        dense = _psd_factor(2.0 * problem.kernel.cross_cov(pts, codes, pts, codes))
        leaked = pathwise_variances(search, predictor, chosen, dense)
        assert np.max(np.abs(leaked / want - 1.0)) > 1e-2

    def test_step_values_agree_with_dense_sampler(self):
        # Two independent estimators of the same step, at 4096 pairs:
        # pathwise draws from the search's pool, and dense draws from the
        # factored joint posterior.
        problem = small_problem(p=np.inf)
        cands = problem.candidates
        n_grid = problem.grid_points.shape[0]
        chosen = [12, 6]
        free = np.array([c for c in range(len(cands)) if c not in chosen])
        cfg = MonteCarloConfig(seed=8, n_outer=4096)
        values, stderrs = _candidate_values(problem, _search_prior(problem, cands, cfg),
                                            _predictor(problem, cands[chosen]), chosen, free)
        joint = _joint_cov(problem, cands[chosen], cands)
        dense, dense_se = per_candidate_pinf(*dense_pinf_inputs(joint, n_grid, free, cfg))
        assert np.all(np.abs(values - dense) <= 4.0 * np.hypot(stderrs, dense_se))

    def test_one_prior_factorisation_per_search(self, cholesky_calls, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a p = inf step formed a query covariance")

        monkeypatch.setattr(ConditionedPredictor, "cov_functionals", never)
        greedy_design(small_problem(p=np.inf), 3, MonteCarloConfig(seed=1, n_outer=16))
        assert len(cholesky_calls) == 1

    def test_search_without_boundary(self):
        # With no boundary points the first step has no observations: the
        # posterior pairs are the pool's prior pairs.
        problem = small_problem(p=np.inf, n_boundary=0)
        cfg = MonteCarloConfig(seed=7, n_outer=32)
        state, contours, trace = greedy_design(problem, 3, cfg)
        assert len(state.points) == 3 and np.all(np.isfinite(trace))
        search = _search_prior(problem, problem.candidates, cfg)
        n_grid = search.n_grid
        assert search.pairs.shape[1] == len(search.codes)
        cols = n_grid + np.arange(len(problem.candidates))
        joint = problem.kernel.cross_cov(search.points, search.codes,
                                         search.points, search.codes)
        variances = np.diagonal(joint)
        jitter = 1e-12 * (np.mean(variances) + 1.0)
        want, _ = _pinf_values(search.pairs[:, :n_grid], search.pairs[:, cols],
                               joint[cols, :n_grid], variances[cols] + jitter)
        np.testing.assert_array_equal(contours[0].ravel(), want)


def design_map_variances(problem, points):
    """Exact diagonal of the covariance of ``_design_pairs`` for a design:
    the map is linear in its three blocks of standard normals, so each basis
    block is fed in as draws (the grid block gives the factor's columns)
    with the other two at zero, and the squared outputs are summed."""
    predictor = _predictor(problem, points)
    n_grid, n_obs = problem.grid_points.shape[0], len(predictor.observations)
    total = np.zeros(n_grid)
    for k, n in enumerate((n_grid, n_obs, n_obs)):
        blocks = [np.zeros((n, n_grid)), np.zeros((n, n_obs)), np.zeros((n, n_obs))]
        blocks[k] = np.eye(n)
        total += (_design_pairs(problem, predictor, *blocks) ** 2).sum(axis=0)
    return total


class TestPathwiseDesignCriterion:
    @pytest.mark.parametrize("n_boundary, points", [
        (12, []), (0, []), (12, [[0.5, 0.5]]), (12, DEFAULT_DESIGN),
        (12, criterion8_design(0)), (12, criterion8_design(1)),
    ], ids=["empty", "empty-no-boundary", "one-point", "default", "random-0", "random-1"])
    @pytest.mark.parametrize("lengthscale", [1.0, 0.3])
    def test_agrees_with_dense_sampler(self, n_boundary, points, lengthscale):
        # Two estimators of one value at 4096 pairs. Both read the stream of
        # derive_rng(seed, 10**6), so their errors are positively
        # correlated and the independent-error bound below is conservative.
        problem = small_problem(p=np.inf, n_boundary=n_boundary, lengthscale=lengthscale)
        cfg = MonteCarloConfig(seed=11, n_outer=4096)
        value, stderr = design_criterion(problem, points, cfg)
        dense, dense_se = dense_design_criterion(problem, points, cfg)
        assert abs(value - dense) <= 4.0 * np.hypot(stderr, dense_se)

    @pytest.mark.parametrize("points", [PREFIX_8, criterion8_design(0)],
                             ids=["prefix-8", "random-0"])
    def test_map_covariance_is_twice_the_posterior(self, points):
        # Deterministic oracle at default sizes: the exact variances of the
        # pathwise map against twice the dense grid posterior.
        problem = EllipticDesignProblem(p=np.inf)
        want = 2.0 * np.diagonal(posterior_on_grid(problem, points))
        got = design_map_variances(problem, points)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-2

    @pytest.mark.parametrize("lengthscale", [0.3, 0.5])
    def test_map_covariance_exact_where_grid_leaves_observations_free(self, lengthscale):
        # At lengthscale 1 the grid values all but fix the observations, so
        # the Schur complement moves the default-size map by under 1e-3. On
        # an 8 x 8 grid at lengthscale 0.3 (0.5) leaving it out puts the
        # variances 21 % (2.1 %) off; with it they agree to 6e-11 (3e-9).
        problem = small_problem(p=np.inf, lengthscale=lengthscale)
        points = criterion8_design(0)
        want = 2.0 * np.diagonal(posterior_on_grid(problem, points))
        got = design_map_variances(problem, points)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-6

    def test_deterministic_across_reruns_and_cache_states(self):
        problem = small_problem(p=np.inf)
        cfg = MonteCarloConfig(seed=5, n_outer=64)
        _grid_pair_factor.cache_clear()
        cold = design_criterion(problem, DEFAULT_DESIGN, cfg)
        warm = design_criterion(problem, DEFAULT_DESIGN, cfg)
        _grid_pair_factor.cache_clear()
        assert design_criterion(problem, DEFAULT_DESIGN, cfg) == cold == warm

    def test_grid_prior_without_cholesky_factor_rejected(self, monkeypatch):
        # The eigenvalue-clip fallback gives a full factor, which the
        # triangular solve and multiply would misread.
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        _grid_pair_factor.cache_clear()
        with pytest.raises(FactorizationFailure, match="Cholesky"):
            design_criterion(small_problem(p=np.inf), DEFAULT_DESIGN,
                             MonteCarloConfig(seed=0, n_outer=4))


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


class TestSquaredLossCrossPath:
    @pytest.mark.parametrize("eval_grid, candidate_grid, n_boundary, lengthscale", [
        (4, 3, 8, 1.0), (5, 4, 12, 0.6), (6, 3, 8, 0.4),
    ])
    def test_p2_criterion_is_twice_bayes_risk(self, eval_grid, candidate_grid,
                                              n_boundary, lengthscale):
        # For squared loss under a Gaussian posterior that does not depend on
        # the observation, BPN = 2 BR. The Bayes risk comes from the generic
        # linear-Gaussian engine: one SE prior over [grid; boundary; -Laplacian
        # at the points], an experiment that selects the observed coordinates
        # without noise, and the grid weights as a quadratic loss.
        problem = EllipticDesignProblem(eval_grid=eval_grid, candidate_grid=candidate_grid,
                                        n_boundary=n_boundary, lengthscale=lengthscale)
        cands = problem.candidates
        points = cands[[0, len(cands) // 2, -1]]
        n_grid, n_obs = eval_grid**2, n_boundary + len(points)
        pts = np.vstack([problem.grid_points, problem.boundary, points])
        codes = np.repeat([POINT, POINT, NEG_LAPLACIAN], [n_grid, n_boundary, len(points)])
        prior = GaussianDensity(np.zeros(len(pts)),
                                problem.kernel.cross_cov(pts, codes, pts, codes))
        select = np.eye(len(pts))[n_grid:]
        weights = np.zeros(len(pts))
        weights[:n_grid] = problem.grid_weights
        linear = GaussianLinearProblem(prior, {"e": (select, np.zeros((n_obs, n_obs)))},
                                       WeightedQuadratic(np.diag(weights)))
        value, _ = design_criterion(problem, points)
        assert value == pytest.approx(2.0 * bdt_criterion(linear, "e"), rel=1e-5)


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
