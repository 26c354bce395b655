"""Elliptic design search: posterior assembly, criterion surface, greedy loop.

Resolutions are deliberately coarse here; full-resolution behaviour is
covered by the acceptance suite.
"""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.spatial.distance
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_impls
from optinfo import pde
from optinfo.criteria import MonteCarloConfig, bdt_criterion
from optinfo.decisions import GaussianLinearProblem, WeightedQuadratic
from optinfo.errors import SamplerFailure, SingularGram
from optinfo.gaussian import GaussianDensity, _add_jitter, _psd_factor, derive_rng
from optinfo.kernels import NEG_LAPLACIAN, POINT, ConditionedPredictor, SquaredExponential
from optinfo.pde import (
    EllipticDesignProblem,
    _candidate_values,
    _design_pairs,
    _pathwise_pairs,
    _pinf_values,
    _predictor,
    _search_prior,
    boundary_points,
    design_criterion,
    greedy_design,
)
from reference_impls import (
    dense_design_criterion,
    design_pairs_map,
    greedy_trace_design,
    joint_cov,
    search_pool,
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
        # Oracle: the edge of each point chosen one point at a time. The
        # points equal it bit for bit, signed zeros too.
        for n in range(400):
            want = np.empty((n, 2))
            for i, v in enumerate(4.0 * np.arange(n) / n):
                if v < 1.0:
                    want[i] = (v, 0.0)
                elif v < 2.0:
                    want[i] = (1.0, v - 1.0)
                elif v < 3.0:
                    want[i] = (3.0 - v, 1.0)
                else:
                    want[i] = (0.0, 4.0 - v)
            got = boundary_points(n)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

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
        cov = _predictor(problem, []).cov_functionals(problem.grid_points, POINT)
        grid = problem.grid_points
        codes = np.zeros(grid.shape[0], dtype=np.int64)
        prior = problem.kernel.cross_cov(grid, codes, grid, codes)
        assert cov == pytest.approx(prior, abs=1e-12)

    def test_duplicate_point_rejected_with_pair(self):
        problem = small_problem()
        with pytest.raises(SingularGram) as err:
            _predictor(problem, [[0.5, 0.5], [0.5, 0.5]])
        assert "0.5" in str(err.value)

    @pytest.mark.parametrize("points", [[0.5, 0.5], [[0.5, 0.5]], np.array([[0.5, 0.5]])])
    def test_one_point_accepted_flat_or_as_row(self, points):
        problem = small_problem()
        grid = problem.grid_points
        np.testing.assert_array_equal(
            _predictor(problem, points).cov_functionals(grid, POINT),
            _predictor(problem, np.array([[0.5, 0.5]])).cov_functionals(grid, POINT))

    @pytest.mark.parametrize("points", [[0.5], [[0.5, 0.5, 0.5]], np.zeros((1, 2, 2)), 0.5])
    def test_bad_point_shape_names_k_by_2(self, points):
        with pytest.raises(ValueError, match=r"an \(n, 2\) array"):
            _predictor(small_problem(), points)

    def test_nan_point_rejected_as_bad_input(self):
        with pytest.raises(ValueError, match="finite"):
            design_criterion(small_problem(), [[0.5, np.nan]])

    def test_point_pair_too_close_rejected(self):
        with pytest.raises(SingularGram, match="MIN_SEPARATION"):
            design_criterion(small_problem(), [[0.5, 0.5], [0.5 + 5e-7, 0.5]])

    def test_one_interior_point_reduces_trace(self):
        problem = small_problem()
        grid = problem.grid_points
        base = np.trace(_predictor(problem, []).cov_functionals(grid, POINT))
        conditioned = np.trace(_predictor(problem, [[0.5, 0.5]]).cov_functionals(grid, POINT))
        assert conditioned < base - 1e-9

    def test_symmetric_psd(self):
        problem = small_problem()
        cov = _predictor(problem, [[0.3, 0.7]]).cov_functionals(problem.grid_points, POINT)
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

    def test_pinf_assembles_no_grid_block(self, monkeypatch, factored_shapes):
        # Every p = inf call, the first of the process or a later one,
        # assembles no grid x grid block and factors the same three
        # matrices, none larger than max(G, n_obs): the one-axis grid
        # kernel by eigh, the Gram by cho_factor and the Schur complement
        # of the observations by the pivoted Cholesky dpstrf. No n_obs x
        # n_obs matrix reaches eigh.
        problem = EllipticDesignProblem(p=np.inf)
        G, n_grid = problem.eval_grid, problem.grid_points.shape[0]
        n_obs = problem.n_boundary + len(DEFAULT_DESIGN)
        cfg = MonteCarloConfig(seed=1, n_outer=8)
        shapes = record_cross_cov_shapes(monkeypatch)
        for _ in range(2):
            shapes.clear()
            factored_shapes.clear()
            design_criterion(problem, DEFAULT_DESIGN, cfg)
            assert shapes and (n_grid, n_grid) not in shapes
            assert sorted(factored_shapes) == [("cho_factor", (n_obs, n_obs)),
                                               ("dpstrf", (n_obs, n_obs)), ("eigh", (G, G))]

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
        cov = _predictor(problem, points).cov_functionals(problem.grid_points, POINT)
        want = 2.0 * float(problem.grid_weights @ np.diag(cov))
        got, stderr = design_criterion(problem, points)
        assert got == pytest.approx(want, rel=1e-9) and stderr == 0.0

    @staticmethod
    def prior_pairs_inputs():
        """A p = inf problem and the P_og blocks, points and codes of one
        -Laplacian observation, as ``_design_pairs`` passes them."""
        problem = small_problem(p=np.inf)
        grid = problem.grid_points
        points, codes = np.array([[0.5, 0.5]]), np.array([NEG_LAPLACIAN])
        cross = problem.kernel.cross_cov(grid, np.full(len(grid), POINT), points, codes)
        return problem, (cross.T,), points, codes

    def test_non_finite_cross_block_rejected(self):
        problem, blocks, points, codes = self.prior_pairs_inputs()
        blocks[0][0, 3] = np.nan
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            pde._prior_pairs(problem, blocks, points, codes)

    def test_non_finite_grid_factor_rejected_and_not_cached(self, monkeypatch):
        # The one-axis factor is scanned when it is formed, and a map is
        # built from a new factor each time, so a good call after a bad one
        # finds nothing of it.
        problem, blocks, points, codes = self.prior_pairs_inputs()
        eigh = np.linalg.eigh
        G = problem.eval_grid

        def poisoned(mat, *args, **kwargs):
            w, v = eigh(mat, *args, **kwargs)
            if mat.shape == (G, G):
                v[-1, 0] = np.inf
            return w, v

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", poisoned)
            with pytest.raises(ValueError, match="must not contain infs or NaNs"):
                pde._prior_pairs(problem, blocks, points, codes)
        draw = pde._prior_pairs(problem, blocks, points, codes)
        assert all(np.isfinite(x).all() for x in draw(np.ones((2, G * G)), np.ones((2, 1))))


class TestGridPairFactor:
    @PROPERTY
    @given(eval_grid=st.integers(1, 9), lengthscale=st.sampled_from([0.3, 1.0, 3.0]),
           amplitude=st.sampled_from([0.5, 2.0]), seed=st.integers(0, 2**32 - 1))
    @example(eval_grid=9, lengthscale=3.0, amplitude=2.0, seed=0)
    def test_factor_and_map_match_dense_forms(self, eval_grid, lengthscale, amplitude, seed):
        # Oracles from the dense F = kron(U, U) diag(root): F F^T against the
        # assembled grid pair prior with its relative jitter, the grid draws
        # against z F^T, and L_og against a dense solve. F^-1 has condition
        # up to about 1e7 here, so the dense solve differs from the map's
        # L_og by up to 6.6e-9 relative (measured), while F L_og
        # reproduces 2 P_go to 3e-15.
        problem = small_problem(p=np.inf, eval_grid=eval_grid, lengthscale=lengthscale,
                                amplitude=amplitude)
        grid = problem.grid_points
        n_grid = len(grid)
        grid_codes = np.full(n_grid, POINT)
        u, root = pde._grid_pair_factor(problem)
        factor = np.kron(u, u) * root.ravel()
        prior = 2.0 * problem.kernel.cross_cov(grid, grid_codes, grid, grid_codes)
        want = prior + pde.SAMPLING_JITTER * np.diag(np.diag(prior))
        assert np.max(np.abs(factor @ factor.T - want)) <= 1e-12 * np.max(np.abs(want))

        points = np.vstack([problem.boundary, problem.candidates[[6, 12]]])
        codes = np.repeat([POINT, NEG_LAPLACIAN], [problem.n_boundary, 2])
        cross = problem.kernel.cross_cov(grid, grid_codes, points, codes)
        n_bnd = problem.n_boundary
        draw = pde._prior_pairs(problem, (cross.T[:n_bnd], cross.T[n_bnd:]), points, codes)
        z = derive_rng(seed).standard_normal((5, n_grid))
        dense = z @ factor.T
        got, _ = draw(z, np.zeros((5, len(codes))))
        np.testing.assert_allclose(got, dense, rtol=0.0, atol=1e-13 * np.max(np.abs(dense)))
        _, l_og = draw(np.eye(n_grid), np.zeros((n_grid, len(codes))))
        solved = np.linalg.solve(factor, 2.0 * cross)
        np.testing.assert_allclose(l_og, solved, rtol=0.0, atol=1e-7 * np.max(np.abs(solved)))
        np.testing.assert_allclose(factor @ l_og, 2.0 * cross, rtol=0.0,
                                   atol=1e-13 * np.max(np.abs(cross)))


def schur_and_root(problem, points, codes):
    """(S, R, d): the Schur complement S = 2 P_oo - L_og^T L_og of the
    functionals ``points`` and ``codes``, with the map's L_og^T read off
    ``pde._prior_pairs`` from unit grid normals; the map's root R of S,
    read off from unit functional normals, so that R R^T is its term's
    covariance; and d = max diag(2 P_oo)."""
    grid = problem.grid_points
    n_grid, n_obs = len(grid), len(codes)
    cross = problem.kernel.cross_cov(points, codes, grid, np.full(n_grid, POINT))
    draw = pde._prior_pairs(problem, (cross,), points, codes)
    _, l_og = draw(np.eye(n_grid), np.zeros((n_grid, n_obs)))
    _, root_t = draw(np.zeros((n_obs, n_grid)), np.eye(n_obs))
    prior = 2.0 * problem.kernel.cross_cov(points, codes, points, codes)
    return prior - l_og.T @ l_og, root_t.T, np.max(np.diagonal(prior), initial=0.0)


class TestSchurRoot:
    # The pivoted Cholesky root stops at LAPACK's default tolerance, so it
    # leaves out the complement's tail, but within SAMPLING_JITTER of the
    # largest prior variance: at default sizes |R R^T - S| reads 1.6e-11
    # against a bound of 6.4e-11, at rank 123 of 657 (eigh with clipping:
    # 6e-14).
    @PROPERTY
    @given(
        eval_grid=st.integers(1, 9),
        n_boundary=st.sampled_from([0, 5, 12]),
        lengthscale=st.sampled_from([0.3, 0.6, 1.0]),
        amplitude=st.sampled_from([0.5, 1.0, 2.0]),
        idx=st.lists(st.integers(0, 24), max_size=6, unique=True),
    )
    @example(eval_grid=8, n_boundary=0, lengthscale=1.0, amplitude=1.0, idx=[])
    @example(eval_grid=8, n_boundary=12, lengthscale=1.0, amplitude=1.0, idx=list(range(25)))
    def test_root_reproduces_the_complement(self, eval_grid, n_boundary, lengthscale,
                                            amplitude, idx):
        problem = small_problem(p=np.inf, eval_grid=eval_grid, n_boundary=n_boundary,
                                lengthscale=lengthscale, amplitude=amplitude)
        points = np.vstack([problem.boundary, problem.candidates[idx]])
        codes = np.repeat([POINT, NEG_LAPLACIAN], [n_boundary, len(idx)])
        schur, root, top = schur_and_root(problem, points, codes)
        assert np.all(np.abs(root @ root.T - schur) <= pde.SAMPLING_JITTER * top)

    def test_root_reproduces_the_complement_at_default_sizes(self):
        problem = EllipticDesignProblem(p=np.inf)
        cands, bnd = problem.candidates, problem.boundary
        codes = np.repeat([NEG_LAPLACIAN, POINT], [len(cands), len(bnd)])
        schur, root, top = schur_and_root(problem, np.vstack([cands, bnd]), codes)
        assert np.max(np.abs(root @ root.T - schur)) <= pde.SAMPLING_JITTER * top


def step_value(problem, chosen, candidate, cfg=None):
    """The greedy step's value of ``candidate`` added to the boundary and the
    ``chosen`` points: one ``_candidate_values`` call over the candidates
    [chosen points; candidate]."""
    cands = np.vstack([np.reshape(chosen, (-1, 2)), candidate])
    search = _search_prior(problem, cands, cfg or MonteCarloConfig())
    k = len(cands) - 1
    values, _ = _candidate_values(problem, search, np.arange(k), np.array([k]))
    return float(values[0])


class TestCriterionSurface:
    def test_p2_surface_matches_direct_recomputation(self):
        # The rank-1 shortcut must agree with conditioning from scratch.
        problem = small_problem()
        chosen, candidate = np.array([0.3, 0.3]), np.array([0.7, 0.7])
        via_surface = step_value(problem, [chosen], candidate)
        cov = _predictor(problem, [chosen, candidate]).cov_functionals(problem.grid_points, POINT)
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
        values, stderrs = _candidate_values(problem, search, [], np.arange(3))
        assert np.all(np.isfinite(values))
        np.testing.assert_array_equal(stderrs, np.zeros(3))

    def test_pinf_deterministic(self):
        problem = small_problem(p=np.inf)
        cfg = MonteCarloConfig(seed=9, n_outer=64)
        a = step_value(problem, [], np.array([0.4, 0.6]), cfg)
        b = step_value(problem, [], np.array([0.4, 0.6]), cfg)
        assert a == b


def assert_p2_contours_match_joint_posterior(problem):
    """Every contour of a 4-step p = 2 search against the rank-1 update of
    the dense joint posterior over [grid; candidates] from joint_cov, with
    the scoring jitter of that joint."""
    state, contours, _ = greedy_design(problem, 4)
    cands, weights = problem.candidates, problem.grid_weights
    n_grid = problem.grid_points.shape[0]
    for step, contour in enumerate(contours):
        joint = joint_cov(problem, state.points[:step], cands)
        diag = np.diag(joint)[:n_grid]
        jitter = 1e-12 * (np.trace(joint) / joint.shape[0] + 1.0)
        free = np.flatnonzero(np.isfinite(contour.ravel()))
        assert len(free) == len(cands) - step
        want = np.array([2.0 * weights @ (diag - joint[:n_grid, n_grid + c] ** 2
                                          / (joint[n_grid + c, n_grid + c] + jitter))
                         for c in free])
        np.testing.assert_allclose(contour.ravel()[free], want, rtol=1e-10, atol=0)


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
            cov = _predictor(problem, state.points[:k]).cov_functionals(problem.grid_points, POINT)
            traces.append(np.trace(cov))
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
                                          chosen, free)
            surface = np.full(len(cands), np.nan)
            surface[free] = values
            np.testing.assert_array_equal(contour.ravel(), surface)

    def test_prior_assembled_once(self, monkeypatch):
        # The exact blocks of a search: the prior blocks once, then per step
        # the Gram and the query x observation block of its predictor. At
        # p = 2 the one prior block is candidates x grid. At p = inf the
        # pool's map reads that block from search.cand_grid and adds the
        # boundary x grid block, the G x G kernel over one grid axis, and
        # the block of [candidates; boundary] for its Schur complement: no
        # grid x grid block.
        shapes = record_cross_cov_shapes(monkeypatch)
        m = 3
        for p in (2.0, np.inf):
            problem = small_problem(p=p)
            n_grid, n_cand = problem.grid_points.shape[0], problem.candidates.shape[0]
            n_bnd, G = problem.n_boundary, problem.eval_grid
            shapes.clear()
            greedy_design(problem, m, MonteCarloConfig(seed=1, n_outer=16))
            prior = [(n_cand, n_grid)]
            if p == np.inf:
                prior += [(n_bnd, n_grid), (G, G), (n_cand + n_bnd, n_cand + n_bnd)]
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
        # Measured worst cell 1.7e-13 relative, 4.4e-16 without boundary.
        assert_p2_contours_match_joint_posterior(small_problem(n_boundary=n_boundary))

    def test_p2_contours_match_joint_posterior_over_several_blocks(self):
        # 81 candidates: a step forms the grid x candidate covariance in
        # blocks of _CAND_BLOCK = 64 rows, so here in two.
        assert_p2_contours_match_joint_posterior(small_problem(candidate_grid=9))

    @pytest.mark.parametrize("search", [greedy_design, greedy_trace_design])
    def test_more_points_than_candidates_rejected_up_front(self, search, monkeypatch):

        def never(*args, **kwargs):
            raise AssertionError("a candidate was scored before m was checked")

        monkeypatch.setattr(pde, "_candidate_values", never)
        monkeypatch.setattr(reference_impls, "joint_cov", never)
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
        monkeypatch.setattr(reference_impls, "joint_cov", never)
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

    def test_thread_pool_capped_at_candidate_blocks(self, monkeypatch):
        # 81 then 80 free candidates: more threads than candidate blocks
        # must not open a worker without a block to score.
        problem = small_problem(p=np.inf, candidate_grid=9)
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
        assert workers and max(workers) <= -(-81 // pde._CAND_BLOCK)
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
        joint = joint_cov(problem, [cands[13]], cands)
        cand_idx = np.array([c for c in range(len(cands)) if c % 3 != 2 and c != 13])
        assert len(cand_idx) == 23
        cfg = MonteCarloConfig(seed=6, n_outer=n_outer)
        inputs = dense_pinf_inputs(joint, n_grid, cand_idx, cfg)
        want = per_candidate_pinf(*inputs)
        got = _pinf_values(*inputs, threads)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @PROPERTY
    @given(shape=st.tuples(st.integers(1, 40), st.integers(1, 150), st.integers(1, 150)),
           decades=st.lists(st.integers(-323, 300), min_size=8, max_size=8),
           specials=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1), threads=st.sampled_from([1, 2, 3]))
    @example(shape=(40, 150, 150), decades=[-1, 1] * 4, specials=[-0.0, 5e-324],
             seed=0, threads=3)
    @example(shape=(1, 1, pde._CAND_BLOCK + 1), decades=[-310, -300] * 4, specials=[0.0],
             seed=1, threads=2)
    # Grid rows shorter than the smallest ufunc buffer (16), and rows of
    # 1030, not a multiple of 16, with a partial candidate block.
    @example(shape=(3, 5, 7), decades=[-2, 2] * 4, specials=[-0.0, 5e-324], seed=2, threads=3)
    @example(shape=(2, 1030, pde._CAND_BLOCK + 5), decades=[-3, 3] * 4, specials=[-0.0, 5e-324],
             seed=3, threads=2)
    def test_bit_identical_on_any_finite_input(self, shape, decades, specials, seed, threads):
        # Magnitudes 10^lo..10^hi per input, with random signs, and ~30 %
        # of the entries replaced by drawn specials such as +-0 and
        # subnormals. A scale dg / s that is not finite must raise.
        n_pairs, n_grid, n_cand = shape
        rng = np.random.default_rng(seed)

        def draw(lo_hi, *size):
            lo, hi = sorted(lo_hi)
            x = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(lo, hi, size)
            mask = rng.random(size) < 0.3
            x[mask] = rng.choice(specials, int(mask.sum()))
            return x

        dx = draw(decades[0:2], n_pairs, n_grid)
        dg = draw(decades[2:4], n_pairs, n_cand)
        columns = draw(decades[4:6], n_cand, n_grid)
        lo, hi = sorted(decades[6:8])
        variances = 10.0 ** rng.uniform(lo, hi, n_cand)
        # Products may overflow to +-inf, in the worker threads too.
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            if not np.all(np.isfinite(dg / variances)):
                with pytest.raises(SamplerFailure):
                    _pinf_values(dx, dg, columns, variances, threads)
                return
            want = per_candidate_pinf(dx, dg, columns, variances)
            got = _pinf_values(dx, dg, columns, variances, threads)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("name, index, bad", [
        ("dx", (3, 10), np.nan),
        ("dg", (0, 5), np.inf),
        ("columns", (7, 20), np.nan),
        ("variances", (2,), -np.inf),
        ("variances", (4,), 0.0),
    ])
    def test_non_finite_input_raises(self, name, index, bad):
        # The Chebyshev max skips NaN, where np.max and then the search's
        # argmin would pick the NaN candidate.
        inputs = dict(zip(["dx", "dg", "columns", "variances"], self.prior_inputs()))
        inputs[name] = inputs[name].copy()
        inputs[name][index] = bad
        with np.errstate(divide="ignore"), pytest.raises(SamplerFailure):
            _pinf_values(**inputs)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("bufsize", [8192, 4096])
    def test_caller_ufunc_buffer_size_restored(self, monkeypatch, threads, bufsize):
        # Each worker runs its loop with the ufunc buffer at the grid row
        # length rounded down to a multiple of 16 (48 of 49 here). The
        # setting is per thread, and the caller's own comes back on return,
        # on a rejected input and on an error raised inside the loop. Blocks
        # of 8 give 5 blocks of the 36 candidates, so 3 threads start 3
        # workers.
        monkeypatch.setattr(pde, "_CAND_BLOCK", 8)

        class Stop(Exception):
            pass

        inputs = self.prior_inputs()
        cdist = scipy.spatial.distance.cdist
        seen = []

        def spy(*args, **kwargs):
            seen.append(np.getbufsize())
            if len(seen) == 20:
                raise Stop
            return cdist(*args, **kwargs)

        old = np.setbufsize(bufsize)
        try:
            _pinf_values(*inputs, threads)
            assert np.getbufsize() == bufsize
            with pytest.raises(SamplerFailure):
                _pinf_values(*inputs[:3], -np.inf * inputs[3], threads)
            assert np.getbufsize() == bufsize
            monkeypatch.setattr(scipy.spatial.distance, "cdist", spy)
            with pytest.raises(Stop):
                _pinf_values(*inputs, threads)
            assert np.getbufsize() == bufsize
        finally:
            np.setbufsize(old)
        assert set(seen) == {48}

    @staticmethod
    def prior_inputs():
        """Scoring inputs of all 36 candidates of a 7 x 7 grid, from the
        dense prior joint and 8 pair draws."""
        problem = small_problem(p=np.inf, eval_grid=7, candidate_grid=6)
        cands = problem.candidates
        return dense_pinf_inputs(joint_cov(problem, [], cands), problem.grid_points.shape[0],
                                 np.arange(len(cands)), MonteCarloConfig(seed=2, n_outer=8))


def pathwise_variances(search, predictor, chosen, basis):
    """Exact diagonal of the covariance of ``_pathwise_pairs`` for a pool
    whose rows have covariance basis^T basis. The map is linear, so its
    covariance is the sum over the rows of ``basis`` fed in as pool rows
    with zero noise, plus the noise basis fed in with zero pairs."""
    _, solved = predictor.cross_solve(search.points, search.codes)
    n_rows, n_all = basis.shape
    n_noise = n_all - search.n_grid
    signal = replace(search, pairs=basis, noise=np.zeros((n_rows, n_noise)))
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
        # same predictor. The pool's covariance comes from the shared prior
        # map, with each basis block of normals fed through it and the
        # other at zero, as design_map_variances does. A pool drawn through
        # a Cholesky factor of 2 P with _add_jitter's jitter, which is
        # scaled by the mean diagonal, fails the same check.
        problem = EllipticDesignProblem(p=np.inf)
        cands = problem.candidates
        chosen = [int(np.argmin(np.linalg.norm(cands - q, axis=1))) for q in PREFIX_8]
        maps = []
        prior_pairs = pde._prior_pairs

        def capturing(*args):
            maps.append(prior_pairs(*args))
            return maps[-1]

        monkeypatch.setattr(pde, "_prior_pairs", capturing)
        search = _search_prior(problem, cands, MonteCarloConfig(n_outer=1))
        (draw,) = maps
        n_grid = search.n_grid
        n_obs = search.pairs.shape[1] - n_grid
        basis = np.vstack([np.hstack(draw(np.eye(n_grid), np.zeros((n_grid, n_obs)))),
                           np.hstack(draw(np.zeros((n_obs, n_grid)), np.eye(n_obs)))])
        # What the search keeps of the prior is the one-call assembly over
        # the joint, bit for bit.
        joint = problem.kernel.cross_cov(search.points, search.codes,
                                         search.points, search.codes)
        np.testing.assert_array_equal(search.diag, np.diagonal(joint))
        np.testing.assert_array_equal(search.cand_grid, joint[search.n_grid:, :search.n_grid])
        assert search.cand_grid.flags.c_contiguous
        predictor = _predictor(problem, cands[chosen])
        want = 2.0 * np.diagonal(predictor.cov_functionals(search.points, search.codes))
        got = pathwise_variances(search, predictor, chosen, basis)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-2

        pts = np.vstack([search.points, problem.boundary])
        codes = np.concatenate([search.codes, np.full(problem.n_boundary, POINT)])
        jittered = _add_jitter(2.0 * problem.kernel.cross_cov(pts, codes, pts, codes))
        leaked = pathwise_variances(search, predictor, chosen, np.linalg.cholesky(jittered).T)
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
                                            chosen, free)
        joint = joint_cov(problem, cands[chosen], cands)
        dense, dense_se = per_candidate_pinf(*dense_pinf_inputs(joint, n_grid, free, cfg))
        assert np.all(np.abs(values - dense) <= 4.0 * np.hypot(stderrs, dense_se))

    def test_one_prior_factorisation_per_search(self, factored_shapes, monkeypatch):
        # The prior is factored once per search, through the G x G kernel
        # over one grid axis (eigh) and the Schur complement of [candidates;
        # boundary] (dpstrf); besides, each step factors only its Gram
        # (cho_factor). No n_obs x n_obs matrix reaches eigh. A second
        # search factors the same again: nothing is kept between searches.
        def never(*args, **kwargs):
            raise AssertionError("a p = inf step formed a query covariance")

        monkeypatch.setattr(ConditionedPredictor, "cov_functionals", never)
        problem = small_problem(p=np.inf)
        G, n_bnd = problem.eval_grid, problem.n_boundary
        n_obs = len(problem.candidates) + n_bnd
        cfg = MonteCarloConfig(seed=1, n_outer=16)
        want = sorted([("eigh", (G, G)), ("dpstrf", (n_obs, n_obs))]
                      + [("cho_factor", (n_bnd + k, n_bnd + k)) for k in range(3)])
        for _ in range(2):
            factored_shapes.clear()
            greedy_design(problem, 3, cfg)
            assert sorted(factored_shapes) == want

    @staticmethod
    def search_prior_peak(n_outer):
        """tracemalloc's peak, which numpy reports its buffers to, of the
        default p = inf search prior, after a small search prior has loaded
        what a process loads once."""
        problem = EllipticDesignProblem(p=np.inf)
        _search_prior(small_problem(p=np.inf), problem.candidates, MonteCarloConfig(n_outer=4))
        tracemalloc.start()
        try:
            _search_prior(problem, problem.candidates, MonteCarloConfig(n_outer=n_outer))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_search_prior_memory_peak(self):
        # With the CLI's 128 pair samples the peak reads 17.0 MiB; the
        # bound leaves 1 MiB over it. It read 19.6 MiB when the Schur
        # complement went to eigh, 27.7 MiB when L_og^T was formed from a
        # stacked copy of the candidate and boundary blocks and mapped in
        # one pass, 36.5 MiB (28.5 MiB once cached) when the 1024 x 1024
        # grid prior was factored and kept, and 42.7 MiB when the search
        # assembled and factored the 1681 x 1681 prior over [grid;
        # candidates; boundary] in one buffer. tracemalloc sees numpy's
        # buffers only, not LAPACK's workspaces: eigh's, which it missed,
        # raised a fresh process's ru_maxrss by 15 MB.
        assert self.search_prior_peak(128) < 18 * 2**20

    def test_schur_complement_factored_in_its_own_buffer(self, monkeypatch):
        # dpstrf factors, in place, the one n_obs x n_obs buffer it is
        # given, and no second one is made. At the call tracemalloc's
        # current size holds the candidate x grid and boundary x grid
        # blocks, L_og^T (together 10.3 MiB) and the 3.3 MiB complement:
        # it reads 13.7 MiB. During the call numpy allocates 13 KiB, where
        # a copy of the complement would take 3.3 MiB. LAPACK's own
        # workspace is not allocated through Python, so tracemalloc does
        # not see it.
        problem = EllipticDesignProblem(p=np.inf)
        n_obs, n_grid = len(problem.candidates) + problem.n_boundary, len(problem.grid_points)
        seen = []
        dpstrf = scipy.linalg.lapack.dpstrf

        def spying(a, *args, **kwargs):
            current = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = dpstrf(a, *args, **kwargs)
            grown = tracemalloc.get_traced_memory()[1] - current
            seen.append((np.shape(a), np.shares_memory(out[0], a), current, grown))
            return out

        monkeypatch.setattr(scipy.linalg.lapack, "dpstrf", spying)
        self.search_prior_peak(128)
        shape, in_place, current, grown = seen[-1]
        square = 8 * n_obs * n_obs
        assert shape == (n_obs, n_obs) and in_place
        assert current < 8 * 2 * n_obs * n_grid + square + 2**20
        assert grown < square // 8

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_pool_equals_stacked_block_oracle(self, seed):
        # The in-place build performs the oracle's operations: the pool and
        # its noise are the same bits.
        problem = small_problem(p=np.inf)
        cfg = MonteCarloConfig(seed=seed, n_outer=48)
        search = _search_prior(problem, problem.candidates, cfg)
        pairs, noise = search_pool(problem, problem.candidates, cfg)
        np.testing.assert_array_equal(search.pairs, pairs)
        np.testing.assert_array_equal(search.noise, noise)

    @pytest.mark.parametrize("block", [7, 64])
    def test_pool_equals_stacked_block_oracle_at_default_sizes(self, monkeypatch, block):
        # 657 functionals: the map runs over many blocks of rows, and at 7
        # rows a block over one that straddles the candidates and the
        # boundary.
        monkeypatch.setattr(pde, "_CAND_BLOCK", block)
        problem = EllipticDesignProblem(p=np.inf)
        cfg = MonteCarloConfig(seed=4, n_outer=16)
        search = _search_prior(problem, problem.candidates, cfg)
        pairs, noise = search_pool(problem, problem.candidates, cfg)
        np.testing.assert_array_equal(search.pairs, pairs)
        np.testing.assert_array_equal(search.noise, noise)

    def test_search_prior_memory_peak_at_default_draws(self):
        # At MonteCarloConfig()'s 10000 pair samples the pool and its noise
        # take 178 MiB; the peak reads 207.4 MiB. It read 210.1 MiB when the
        # Schur complement went to eigh, 218 MiB when the 1024 x 1024 grid
        # prior was factored, and 283 MiB when the normals and their
        # product z F^T were held at once.
        assert self.search_prior_peak(MonteCarloConfig().n_outer) < 215 * 2**20

    @pytest.mark.parametrize("block", [7, 4096])
    def test_pool_does_not_depend_on_the_block_size(self, monkeypatch, block):
        # The normals are the same for any block size; the pair draws agree
        # to roundoff, since BLAS may sum a row of a short block in another
        # order.
        problem = small_problem(p=np.inf)
        cfg = MonteCarloConfig(seed=6, n_outer=64)
        want = _search_prior(problem, problem.candidates, cfg)
        monkeypatch.setattr(pde, "_DRAW_BLOCK", block)
        got = _search_prior(problem, problem.candidates, cfg)
        np.testing.assert_array_equal(got.noise, want.noise)
        np.testing.assert_allclose(got.pairs, want.pairs, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(want.pairs)))

    def test_pool_streams(self):
        # The pool's normals follow the stream rule of _normal_blocks with
        # derive_rng(seed) and derive_rng(seed, 1): its noise is the second
        # half of each row of the second stream.
        problem = small_problem(p=np.inf)
        n_obs = len(problem.candidates) + problem.n_boundary
        search = _search_prior(problem, problem.candidates, MonteCarloConfig(seed=3, n_outer=20))
        obs = derive_rng(3, 1).standard_normal((20, 2 * n_obs))
        np.testing.assert_array_equal(search.noise, obs[:, n_obs:])

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
    n_grid, n_obs = problem.grid_points.shape[0], len(predictor.codes)
    total = np.zeros(n_grid)
    for k, n in enumerate((n_grid, n_obs, n_obs)):
        blocks = [np.zeros((n, n_grid)), np.zeros((n, n_obs)), np.zeros((n, n_obs))]
        blocks[k] = np.eye(n)
        total += (_design_pairs(problem, predictor)(*blocks) ** 2).sum(axis=0)
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
        grid = problem.grid_points
        want = 2.0 * np.diagonal(_predictor(problem, points).cov_functionals(grid, POINT))
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
        grid = problem.grid_points
        want = 2.0 * np.diagonal(_predictor(problem, points).cov_functionals(grid, POINT))
        got = design_map_variances(problem, points)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-6

    def test_deterministic_across_reruns_and_cache_states(self):
        # Interleaved grids and lengthscales: no call leaves state that a
        # later one reads, so the first problem, repeated last, gives its
        # own value again, and each problem's value is its own.
        problems = [small_problem(p=np.inf), small_problem(p=np.inf, lengthscale=0.5),
                    small_problem(p=np.inf, eval_grid=7), small_problem(p=np.inf)]
        cfg = MonteCarloConfig(seed=5, n_outer=64)
        values = []
        for problem in problems:
            values.append(design_criterion(problem, DEFAULT_DESIGN, cfg))
            assert design_criterion(problem, DEFAULT_DESIGN, cfg) == values[-1]
        assert values[-1] == values[0] and len(set(values)) == 3

    def test_normals_are_drawn_in_blocks_from_two_streams(self, monkeypatch):
        # The blocks of normals that reach the map are the rows of one draw
        # from each stream: derive_rng(seed, 10**6) the grid normals, and
        # derive_rng(seed, 10**6, 1), per draw, the observation normals and
        # then the noise.
        problem = small_problem(p=np.inf)
        n_grid, n_obs = problem.grid_points.shape[0], problem.n_boundary + 2
        seen = []
        design_pairs = pde._design_pairs

        def recording(*args):
            pairs = design_pairs(*args)

            def recorded(z, z_obs, noise):
                seen.append((z.copy(), z_obs.copy(), noise.copy()))
                return pairs(z, z_obs, noise)

            return recorded

        monkeypatch.setattr(pde, "_design_pairs", recording)
        monkeypatch.setattr(pde, "_DRAW_BLOCK", 7)
        design_criterion(problem, [[0.3, 0.4], [0.6, 0.5]], MonteCarloConfig(seed=3, n_outer=20))
        assert [len(z) for z, _, _ in seen] == [7, 7, 6]
        z, z_obs, noise = (np.vstack(block) for block in zip(*seen))
        np.testing.assert_array_equal(z, derive_rng(3, 10**6).standard_normal((20, n_grid)))
        obs = derive_rng(3, 10**6, 1).standard_normal((20, 2 * n_obs))
        np.testing.assert_array_equal(np.hstack([z_obs, noise]), obs)

    @pytest.mark.parametrize("block", [7, 4096])
    def test_value_does_not_depend_on_the_block_size(self, monkeypatch, block):
        problem = small_problem(p=np.inf)
        cfg = MonteCarloConfig(seed=6, n_outer=64)
        want = design_criterion(problem, DEFAULT_DESIGN, cfg)
        monkeypatch.setattr(pde, "_DRAW_BLOCK", block)
        got = design_criterion(problem, DEFAULT_DESIGN, cfg)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_outer", [16, 600])
    def test_map_equals_stacked_block_oracle(self, n_outer):
        # One default design: the map gives the oracle's bits, for a short
        # block of draws and for a full one and its remainder.
        problem = EllipticDesignProblem(p=np.inf)
        predictor = _predictor(problem, DEFAULT_DESIGN)
        got, want = _design_pairs(problem, predictor), design_pairs_map(problem, predictor)
        cfg = MonteCarloConfig(seed=2, n_outer=n_outer)
        for _, z, z_obs, noise in pde._normal_blocks(cfg, len(problem.grid_points),
                                                     len(predictor.codes)):
            np.testing.assert_array_equal(got(z.copy(), z_obs, noise), want(z, z_obs, noise))

    @pytest.mark.parametrize("rows", [1, 16, 128])
    def test_draws_do_not_depend_on_the_block_layout(self, rows):
        # L_og^T is one C-ordered buffer whatever the layout of P_og, so a
        # design's F-ordered block and its C-ordered copy give the same bits
        # on short blocks of draws too, where BLAS rounds the two layouts'
        # products differently.
        problem = EllipticDesignProblem(p=np.inf)
        predictor = _predictor(problem, [[0.3, 0.4], [0.6, 0.5], [0.5, 0.8]])
        cross, _ = predictor.cross_solve(problem.grid_points, POINT)
        rng = derive_rng(5)
        z = rng.standard_normal((rows, len(problem.grid_points)))
        z_obs = rng.standard_normal((rows, len(predictor.codes)))
        draws = []
        for block in (cross.T, np.ascontiguousarray(cross.T)):
            draw = pde._prior_pairs(problem, (block,), predictor.points, predictor.codes)
            draws.append(draw(z.copy(), z_obs))
        for got, want in zip(*draws):
            np.testing.assert_array_equal(got, want)

    def test_memory_does_not_grow_with_the_draws(self):
        # numpy reports its buffers to tracemalloc. The draws are held one
        # block at a time: both peaks read 9.2 MiB, where 4096 draws held at
        # once peaked at 41.0 MiB.
        problem = EllipticDesignProblem(p=np.inf)
        peaks = []
        design_criterion(problem, DEFAULT_DESIGN, MonteCarloConfig(seed=0, n_outer=8))
        for n_outer in (512, 4096):
            tracemalloc.start()
            try:
                design_criterion(problem, DEFAULT_DESIGN, MonteCarloConfig(seed=0, n_outer=n_outer))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

class TestEstimatorCrossValidation:
    def test_pair_reduction_vs_naive_nested_mc(self):
        # Coarse instance: 8x8 grid, 2 interior points. The naive oracle
        # draws the latent field jointly with the observables, conditions,
        # and compares a posterior draw against the joint truth draw.
        problem = small_problem(p=np.inf)
        points = [np.array([0.35, 0.35]), np.array([0.65, 0.65])]
        est, se = design_criterion(problem, points, MonteCarloConfig(seed=0, n_outer=4000))

        n_grid = problem.grid_points.shape[0]
        joint = joint_cov(problem, [], np.array(points))
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
        joint = joint_cov(problem, [], extra)
        n_grid = problem.grid_points.shape[0]
        assert joint.shape == (n_grid + 1, n_grid + 1)
        # The candidate block is the posterior variance of the negative
        # Laplacian functional; strictly positive.
        assert joint[n_grid, n_grid] > 0.0
