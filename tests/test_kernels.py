"""Kernels, linear functionals and GP conditioning."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from optinfo import gaussian, kernels
from optinfo.errors import SingularGram, SingularSystem, UnsupportedFunctional
from optinfo.kernels import NEG_LAPLACIAN, POINT, ConditionedPredictor, SquaredExponential
from reference_impls import BrownianBridge, Wiener, se_functional_covariances


def fd_laplacian(f, t, h=1e-4):
    """Central second-difference Laplacian of a scalar field at t."""
    t = np.asarray(t, dtype=float)
    total = 0.0
    for i in range(t.shape[0]):
        e = np.zeros_like(t)
        e[i] = h
        total += (f(t + e) - 2.0 * f(t) + f(t - e)) / h**2
    return total


def points_1d(ts):
    """(n, 1) locations and POINT codes of point observations in 1-D."""
    ts = np.asarray(ts, dtype=float).reshape(-1, 1)
    return ts, np.full(len(ts), POINT)


def first_nugget_stage(kernel, pts, codes):
    """The first of a predictor's two nugget stages, DEFAULT_JITTER_SCALE *
    mean(diag Gram), computed from the Gram as the predictor computes it
    (0 without observations)."""
    gram = kernel.cross_cov(pts, codes, pts, codes)
    return gaussian.DEFAULT_JITTER_SCALE * np.trace(gram) / max(len(gram), 1)


def same_bits(got, want):
    """``got`` equals ``want`` in shape and in every bit, signed zeros too."""
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def mixed_design():
    """SE kernel, boundary values and two -Laplacian observations."""
    kernel = SquaredExponential(lengthscale=0.5, dim=2)
    points = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.3, 0.6], [0.7, 0.4]])
    codes = np.array([POINT, POINT, POINT, NEG_LAPLACIAN, NEG_LAPLACIAN])
    return kernel, points, codes


class TestWiener:
    def test_min_kernel_exact(self):
        k = Wiener()
        t = np.array([0.0, 0.2, 0.5, 1.0])
        cov = k.cross_cov(t, np.zeros(4, dtype=int), t, np.zeros(4, dtype=int))
        expected = np.minimum.outer(t, t)
        np.testing.assert_array_equal(cov, expected)

    def test_rejects_laplacian(self):
        k = Wiener()
        with pytest.raises(UnsupportedFunctional):
            k.cross_cov([0.5], [NEG_LAPLACIAN], [0.5], [POINT])
        with pytest.raises(UnsupportedFunctional):
            ConditionedPredictor(k, [[0.5]], [NEG_LAPLACIAN])


class TestBrownianBridge:
    def test_covariance_formula(self):
        b = BrownianBridge(0.25, 0.75)
        t = np.array([0.3, 0.5, 0.6])
        cov = b.cross_cov(t, np.zeros(3, dtype=int), t, np.zeros(3, dtype=int))
        for i, ti in enumerate(t):
            for j, tj in enumerate(t):
                lo, hi = min(ti, tj), max(ti, tj)
                assert cov[i, j] == pytest.approx((0.75 - hi) * (lo - 0.25) / 0.5, abs=1e-15)

    def test_mean_interpolates_pinned_values(self):
        b = BrownianBridge(0.0, 2.0, left_value=1.0, right_value=3.0)
        assert b.mean([0.0, 1.0, 2.0]) == pytest.approx([1.0, 2.0, 3.0], abs=1e-15)

    def test_requires_ordered_interval(self):
        with pytest.raises(ValueError):
            BrownianBridge(0.5, 0.5)


class TestWienerConditioning:
    def test_bridge_between_nodes(self):
        # Conditioning the Wiener prior on node values leaves a Brownian
        # bridge on each open interval between consecutive nodes.
        nodes = [0.2, 0.6]
        pred = ConditionedPredictor(Wiener(), *points_1d(nodes))
        query = np.array([0.3, 0.45, 0.55])
        cov = pred.cov_functionals(query, POINT)
        bridge = BrownianBridge(0.2, 0.6)
        expected = bridge.cross_cov(query, np.zeros(3, dtype=int), query, np.zeros(3, dtype=int))
        assert cov == pytest.approx(expected, abs=1e-7)

    def test_point_conditioning_pins_variance(self):
        obs = points_1d([0.5])
        pred = ConditionedPredictor(Wiener(), *obs)
        assert pred.var([0.5])[0] <= first_nugget_stage(Wiener(), *obs) * 10
        # The posterior mean given the observed value 1.0 interpolates it.
        _, solved = pred.cross_solve([0.5], [POINT])
        assert (np.array([1.0]) @ solved)[0] == pytest.approx(1.0, abs=1e-6)

    def test_zero_observations_returns_prior(self):
        pred = ConditionedPredictor(Wiener(), *points_1d([]))
        t = np.array([0.1, 0.9])
        assert pred.cov_functionals(t, POINT) == pytest.approx(np.minimum.outer(t, t), abs=1e-15)

    def test_duplicate_locations_rejected(self):
        with pytest.raises(SingularGram):
            ConditionedPredictor(Wiener(), *points_1d([0.5, 0.5]))

    @pytest.mark.parametrize("kernel", [Wiener(), BrownianBridge(0.25, 0.75)],
                             ids=["wiener", "bridge"])
    def test_zero_observations_reject_laplacian_query(self, kernel):
        # The kernel's cross_cov checks every query, with or without
        # observations, as it does for a predictor with one.
        pred = ConditionedPredictor(kernel, *points_1d([]))
        with pytest.raises(UnsupportedFunctional):
            pred.cross_solve([0.5], NEG_LAPLACIAN)


class TestObservationGeometry:
    @pytest.mark.parametrize("kernel, loc", [
        (Wiener(), np.array([0.5])),
        (SquaredExponential(dim=2), np.array([0.3, 0.6])),
    ])
    def test_same_kind_observations_too_close_rejected(self, kernel, loc):
        near = loc + 5e-7
        with pytest.raises(SingularGram) as err:
            ConditionedPredictor(kernel, np.vstack([loc, near]), [POINT, POINT])
        assert str(loc.tolist()) in str(err.value)
        assert str(near.tolist()) in str(err.value)

    def test_point_and_laplacian_at_one_location_condition(self):
        loc = [0.4, 0.7]
        pred = ConditionedPredictor(SquaredExponential(dim=2), [loc, loc], [POINT, NEG_LAPLACIAN])
        assert pred.var([loc])[0] <= 10 * pred.nugget

    @pytest.mark.parametrize("kernel, loc", [
        (Wiener(), [np.nan]),
        (SquaredExponential(dim=2), [0.5, np.inf]),
    ])
    def test_non_finite_location_rejected(self, kernel, loc):
        with pytest.raises(ValueError, match="finite"):
            ConditionedPredictor(kernel, [[0.2] * len(loc), loc], [POINT, POINT])


class TestSquaredExponentialCalculus:
    def test_zero_distance(self):
        k, lap, dlap = se_functional_covariances(1.0, [0.3, 0.3], [0.3, 0.3])
        assert k == pytest.approx(1.0, abs=1e-15)
        # At zero distance: Delta_t k = -2 d gamma, double Laplacian 4 g^2 d (d+2).
        assert lap == pytest.approx(-4.0, abs=1e-12)
        assert dlap == pytest.approx(32.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        t, tp = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
        _, lap_a, dlap_a = se_functional_covariances(0.7, t, tp)
        _, lap_b, dlap_b = se_functional_covariances(0.7, tp, t)
        assert lap_a == pytest.approx(lap_b, abs=1e-14)
        assert dlap_a == pytest.approx(dlap_b, abs=1e-14)

    def test_finite_difference_oracle(self):
        # Laplacian vs central differences of the plain kernel; the double
        # Laplacian is cross-checked by differencing the (already verified)
        # single-Laplacian values in the second argument.
        rng = np.random.default_rng(123)
        for _ in range(100):
            t = rng.uniform(0.0, 1.0, 2)
            tp = rng.uniform(0.0, 1.0, 2)
            k, lap, dlap = se_functional_covariances(1.0, t, tp)

            def plain(u, tp=tp):
                return np.exp(-np.sum((u - tp) ** 2))

            assert k == pytest.approx(plain(t), abs=1e-12)
            assert lap == pytest.approx(fd_laplacian(plain, t), abs=1e-5)

            def lap_in_t(u, t=t):
                return se_functional_covariances(1.0, t, u)[1]

            assert dlap == pytest.approx(fd_laplacian(lap_in_t, tp), abs=1e-5)

    def test_finite_difference_oracle_varied_lengthscale(self):
        # Shorter lengthscales blow the derivative magnitudes up, so the
        # comparison is relative with an absolute floor.
        rng = np.random.default_rng(321)
        for _ in range(50):
            ls = rng.uniform(0.5, 2.0)
            t = rng.uniform(0.0, 1.0, 2)
            tp = rng.uniform(0.0, 1.0, 2)
            _, lap, dlap = se_functional_covariances(ls, t, tp)

            def plain(u, tp=tp, ls=ls):
                return np.exp(-np.sum((u - tp) ** 2) / ls**2)

            def lap_in_t(u, t=t, ls=ls):
                return se_functional_covariances(ls, t, u)[1]

            assert lap == pytest.approx(fd_laplacian(plain, t), rel=1e-5, abs=1e-5)
            assert dlap == pytest.approx(fd_laplacian(lap_in_t, tp), rel=1e-5, abs=1e-5)

    def test_cross_cov_uses_same_closed_forms(self):
        kernel = SquaredExponential(lengthscale=0.8, amplitude=1.3, dim=2)
        t = np.array([[0.2, 0.4]])
        tp = np.array([[0.7, 0.1]])
        k, lap, dlap = se_functional_covariances(0.8, t[0], tp[0])
        point = kernel.cross_cov(t, [POINT], tp, [POINT])[0, 0]
        one_lap = kernel.cross_cov(t, [NEG_LAPLACIAN], tp, [POINT])[0, 0]
        two_lap = kernel.cross_cov(t, [NEG_LAPLACIAN], tp, [NEG_LAPLACIAN])[0, 0]
        assert point == pytest.approx(1.3 * k, abs=1e-13)
        assert one_lap == pytest.approx(-1.3 * lap, abs=1e-12)
        assert two_lap == pytest.approx(1.3 * dlap, abs=1e-11)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SquaredExponential(lengthscale=0.0)
        with pytest.raises(ValueError):
            SquaredExponential(amplitude=-1.0)
        with pytest.raises(ValueError):
            SquaredExponential(dim=3)
        for name in ("lengthscale", "amplitude"):
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match=name):
                    SquaredExponential(**{name: value})


def mixed_code_cross_cov(kernel, pts_a, codes_a, pts_b, codes_b):
    """Independent oracle of ``SquaredExponential.cross_cov``: the earlier
    one-pass assembly, with an n_a x n_b code sum, a ones factor and one
    boolean mask per code sum."""
    pts_a = np.atleast_2d(np.asarray(pts_a, dtype=float))
    pts_b = np.atleast_2d(np.asarray(pts_b, dtype=float))
    codes_a = np.asarray(codes_a, dtype=np.int64)
    codes_b = np.asarray(codes_b, dtype=np.int64)
    gamma = kernel.gamma
    d = pts_a.shape[1]
    diff = pts_a[:, None, :] - pts_b[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    base = kernel.amplitude * np.exp(-gamma * r2)
    s = codes_a[:, None] + codes_b[None, :]
    factor = np.ones_like(base)
    if np.any(s == 1):
        m = s == 1
        factor[m] = 2.0 * d * gamma - 4.0 * gamma**2 * r2[m]
    if np.any(s == 2):
        m = s == 2
        rm = r2[m]
        factor[m] = (
            16.0 * gamma**4 * rm**2
            - 16.0 * gamma**3 * (d + 2) * rm
            + 4.0 * gamma**2 * d * (d + 2)
        )
    return factor * base


@st.composite
def functionals(draw, d, max_size=12):
    """Points in [-1, 2]^d with an unsorted mix of codes; possibly none."""
    n = draw(st.integers(0, max_size))
    pts = draw(arrays(float, (n, d), elements=st.floats(-1.0, 2.0)))
    codes = draw(arrays(np.int64, n, elements=st.sampled_from([POINT, NEG_LAPLACIAN])))
    return pts, codes


@st.composite
def se_operands(draw):
    d = draw(st.sampled_from([1, 2]))
    kernel = SquaredExponential(lengthscale=draw(st.floats(0.1, 3.0)),
                                amplitude=draw(st.floats(0.1, 3.0)), dim=d)
    return kernel, draw(functionals(d)), draw(functionals(d))


class TestCrossCovBlocks:
    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(se_operands())
    def test_equals_mixed_code_oracle(self, operands):
        kernel, (pts_a, codes_a), (pts_b, codes_b) = operands
        got = kernel.cross_cov(pts_a, codes_a, pts_b, codes_b)
        assert got.shape == (len(codes_a), len(codes_b))
        np.testing.assert_array_equal(
            got, mixed_code_cross_cov(kernel, pts_a, codes_a, pts_b, codes_b))

    @pytest.mark.parametrize("d", [1, 2])
    def test_diag_equals_cross_cov_diagonal_per_code(self, d):
        kernel = SquaredExponential(lengthscale=0.7, amplitude=1.3, dim=d)
        pts = np.random.default_rng(5).uniform(0, 1, (9, d))
        for code in (POINT, NEG_LAPLACIAN):
            codes = np.full(len(pts), code)
            np.testing.assert_array_equal(kernel.diag(pts, code),
                                          np.diag(kernel.cross_cov(pts, codes, pts, codes)))

    def test_one_code_per_side_returns_the_block(self, monkeypatch):
        # A one-code call returns the block it assembled, with no copy into
        # a second n_a x n_b array.
        kernel = SquaredExponential(dim=2)
        made = []
        from_r2 = SquaredExponential._from_r2

        def recording(self, *args):
            made.append(from_r2(self, *args))
            return made[-1]

        monkeypatch.setattr(SquaredExponential, "_from_r2", recording)
        pts = np.random.default_rng(6).uniform(0, 1, (7, 2))
        out = kernel.cross_cov(pts, np.full(7, NEG_LAPLACIAN), pts[:4], np.full(4, POINT))
        assert made[-1] is out

    @pytest.mark.parametrize("code_a", [POINT, NEG_LAPLACIAN])
    @pytest.mark.parametrize("code_b", [POINT, NEG_LAPLACIAN])
    def test_one_code_pair_holds_at_most_three_blocks(self, code_a, code_b):
        # numpy reports its buffers to tracemalloc. The block is assembled
        # in r^2's buffer, with at most two more of its size at any time,
        # besides index and coordinate arrays of a few floats per point.
        kernel = SquaredExponential(lengthscale=0.7, dim=2)
        rng = np.random.default_rng(7)
        pts_a, pts_b = rng.uniform(0, 1, (400, 2)), rng.uniform(0, 1, (300, 2))
        codes_a, codes_b = np.full(400, code_a), np.full(300, code_b)
        kernel.cross_cov(pts_a[:2], codes_a[:2], pts_b[:2], codes_b[:2])
        tracemalloc.start()
        try:
            out = kernel.cross_cov(pts_a, codes_a, pts_b, codes_b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * out.nbytes + 8 * 8 * (400 + 300)


SE2 = SquaredExponential(dim=2)
PT = np.array([[0.3, 0.4]])
THREE_PTS = np.array([[0.1, 0.2], [0.5, 0.5], [0.8, 0.3]])
PT_3D = np.array([[0.3, 0.4, 0.9]])


class TestMalformedFunctionals:
    @pytest.mark.parametrize("call, error", [
        (lambda: SE2.cross_cov(PT, [2], PT, [POINT]), UnsupportedFunctional),
        (lambda: SE2.cross_cov(PT, [-1], PT, [NEG_LAPLACIAN]), UnsupportedFunctional),
        (lambda: SE2.diag(PT, 5), UnsupportedFunctional),
        (lambda: SE2.cross_cov(THREE_PTS, [POINT] * 2, PT, [POINT]), ValueError),
        (lambda: ConditionedPredictor(*mixed_design()).cross_solve(THREE_PTS, [POINT] * 2),
         ValueError),
        (lambda: ConditionedPredictor(SE2, THREE_PTS, [POINT] * 2), ValueError),
        (lambda: SE2.cross_cov(PT_3D, [POINT], PT, [POINT]), ValueError),
        (lambda: SE2.diag(PT_3D), ValueError),
        (lambda: ConditionedPredictor(*mixed_design()).var(PT_3D), ValueError),
        (lambda: ConditionedPredictor(SE2, PT_3D, [POINT]), ValueError),
        (lambda: SE2.diag(np.zeros((0, 3))), ValueError),
        (lambda: ConditionedPredictor(SE2, np.zeros((0, 3)), POINT), ValueError),
        (lambda: SE2.cross_cov(PT, [1.5], [[0.6, 0.1]], [POINT]), UnsupportedFunctional),
        (lambda: ConditionedPredictor(SE2, np.zeros((0, 2)), []).cross_solve(
            THREE_PTS, [7] * 3), UnsupportedFunctional),
        (lambda: ConditionedPredictor(SE2, np.zeros((0, 2)), []).cross_solve(
            THREE_PTS, [POINT] * 2), ValueError),
        # A cast to int64 before the check would read 1.5 as NEG_LAPLACIAN.
        (lambda: ConditionedPredictor(*mixed_design()).cov_functionals([[0.5, 0.5]], [1.5]),
         UnsupportedFunctional),
        (lambda: ConditionedPredictor(SE2, np.zeros((0, 2)), []).cov_functionals(
            [[0.5, 0.5]], [1.5]), UnsupportedFunctional),
    ], ids=["code-2", "code-minus-1", "diag-code-5", "3-points-2-codes",
            "cross-solve-3-points-2-codes", "condition-3-points-2-codes", "3d-point",
            "diag-3d-point", "var-3d-point", "condition-3d-point", "diag-no-3d-points",
            "condition-no-3d-points", "code-1.5",
            "unconditioned-cross-solve-code-7", "unconditioned-cross-solve-3-points-2-codes",
            "cov-functionals-code-1.5", "unconditioned-cov-functionals-code-1.5"])
    def test_rejected(self, call, error):
        with pytest.raises(error):
            call()


LATTICE = np.array([(x, y) for x in np.linspace(0.1, 0.9, 5) for y in np.linspace(0.1, 0.9, 5)])
ORDER_QUERY = np.random.default_rng(10).uniform(0, 1, (6, 2))
ORDER_QUERY_CODES = np.array([POINT, NEG_LAPLACIAN] * 3)


@st.composite
def separated_designs(draw):
    """A lengthscale in [0.3, 0.5], 2 to 8 distinct sites of a lattice of
    spacing 0.2 with both codes among them, and a permutation of the rows."""
    lengthscale = draw(st.floats(0.3, 0.5))
    sites = draw(st.lists(st.integers(0, len(LATTICE) - 1), min_size=2, max_size=8, unique=True))
    codes = [POINT, NEG_LAPLACIAN] + draw(st.lists(
        st.sampled_from([POINT, NEG_LAPLACIAN]), min_size=len(sites) - 2, max_size=len(sites) - 2))
    perm = draw(st.permutations(range(len(sites))))
    return lengthscale, LATTICE[sites], np.array(codes), np.array(perm)


class TestObservationOrder:
    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(separated_designs())
    def test_permuting_observations_moves_results_by_roundoff(self, design):
        # Reordering the rows reorders the Gram's Cholesky, so the results
        # agree to roundoff, not bit for bit. The Grams of these designs have
        # condition numbers below 2e5, so errors stay well below 1e-10 of the
        # largest prior variance of the query functionals (1e-14 measured);
        # the nugget sums the same few diagonal entries in another order.
        lengthscale, pts, codes, perm = design
        kernel = SquaredExponential(lengthscale=lengthscale, dim=2)
        pred = ConditionedPredictor(kernel, pts, codes)
        permuted = ConditionedPredictor(kernel, pts[perm], codes[perm])
        prior = kernel.cross_cov(ORDER_QUERY, ORDER_QUERY_CODES, ORDER_QUERY, ORDER_QUERY_CODES)
        atol = 1e-10 * np.max(np.diagonal(prior))
        np.testing.assert_allclose(permuted.var(ORDER_QUERY), pred.var(ORDER_QUERY),
                                   rtol=0, atol=atol)
        np.testing.assert_allclose(
            permuted.cov_functionals(ORDER_QUERY, ORDER_QUERY_CODES),
            pred.cov_functionals(ORDER_QUERY, ORDER_QUERY_CODES), rtol=0, atol=atol)
        assert permuted.nugget == pytest.approx(pred.nugget, rel=1e-14)


@st.composite
def one_code_blocks(draw):
    """A kernel of dim 1 or 2; 0 to 5 distinct observation sites, spaced
    0.2 apart, with one code; 0 to 6 query points in [0, 1]^dim with one
    code; and a code the kernel does not know."""
    d = draw(st.sampled_from([1, 2]))
    kernel = SquaredExponential(lengthscale=draw(st.floats(0.3, 0.5)),
                                amplitude=draw(st.floats(0.5, 2.0)), dim=d)
    lattice = LATTICE if d == 2 else LATTICE[::5, :1]
    sites = draw(st.lists(st.integers(0, len(lattice) - 1), max_size=5, unique=True))
    query = draw(arrays(float, (draw(st.integers(0, 6)), d), elements=st.floats(0.0, 1.0)))
    codes = st.sampled_from([POINT, NEG_LAPLACIAN])
    return (kernel, lattice[sites], draw(codes), query, draw(codes),
            draw(st.sampled_from([2, 1.5])))


def as_given(kernel, pts):
    """``pts`` flat for a dim-1 kernel, as a caller may pass them."""
    return pts.ravel() if kernel.dim == 1 else pts


class TestOneCodeForABlock:
    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(one_code_blocks())
    @example((SquaredExponential(dim=1), np.zeros((0, 1)), POINT, np.zeros((0, 1)),
              NEG_LAPLACIAN, 2))
    @example((SquaredExponential(lengthscale=0.4, dim=1), np.zeros((0, 1)), POINT,
              np.linspace(0.0, 1.0, 5)[:, None], NEG_LAPLACIAN, 2))
    @example((SquaredExponential(amplitude=1.3, dim=2), np.zeros((0, 2)), NEG_LAPLACIAN,
              LATTICE[::4], POINT, 1.5))
    def test_equals_a_code_per_point(self, case):
        # One code for a block gives the bits of the same code repeated per
        # point, through the kernel and through conditioning, for flat dim-1
        # points and for blocks of no points. Without observations every
        # posterior quantity is the prior bit for bit.
        kernel, obs, obs_code, query, query_code, bad = case
        obs_codes, query_codes = np.full(len(obs), obs_code), np.full(len(query), query_code)
        mixed = np.arange(len(obs)) % 2
        obs_in, query_in = as_given(kernel, obs), as_given(kernel, query)
        same = np.testing.assert_array_equal
        same(kernel.cross_cov(query_in, query_code, obs_in, obs_code),
             kernel.cross_cov(query, query_codes, obs, obs_codes))
        same(kernel.cross_cov(query_in, query_code, obs, mixed),
             kernel.cross_cov(query, query_codes, obs, mixed))
        same(kernel.diag(query_in, query_code),
             np.diagonal(kernel.cross_cov(query, query_codes, query, query_codes)))
        one, each = (ConditionedPredictor(kernel, obs_in, obs_code),
                     ConditionedPredictor(kernel, obs, obs_codes))
        assert ((first_nugget_stage(kernel, obs_in, obs_code), one.nugget)
                == (first_nugget_stage(kernel, obs, obs_codes), each.nugget))
        for got, want in zip(one.cross_solve(query_in, query_code),
                             each.cross_solve(query, query_codes)):
            same(got, want)
        same(one.cov_functionals(query_in, query_code), each.cov_functionals(query, query_codes))
        same(one.var(query_in), each.var(query))
        if not len(obs):
            prior = kernel.cross_cov(query, query_codes, query, query_codes)
            same_bits(one.var(query_in), kernel.diag(query))
            same_bits(one.cov_functionals(query_in, query_code), prior)
            cross, solved = one.cross_solve(query_in, query_code)
            same_bits(cross, kernel.cross_cov(query, query_codes, obs, obs_codes))
            same_bits(solved, np.zeros((0, len(query))))
        for call in (lambda: kernel.cross_cov(query_in, bad, obs_in, obs_code),
                     lambda: kernel.cross_cov(query_in, query_code, obs_in, bad),
                     lambda: kernel.diag(query_in, bad),
                     lambda: ConditionedPredictor(kernel, obs_in, bad),
                     lambda: one.cross_solve(query_in, bad),
                     lambda: one.cov_functionals(query_in, bad)):
            with pytest.raises(UnsupportedFunctional):
                call()


class TestEmptyList:
    def test_is_no_points_for_every_dim(self):
        # [] is no points, as a (0, dim) array is, not one point of width 0.
        for dim in (1, 2):
            kernel, none = SquaredExponential(lengthscale=0.4, dim=dim), np.zeros((0, dim))
            query = LATTICE[:5, :dim]
            for code in (POINT, NEG_LAPLACIAN):
                same_bits(kernel.diag([], code), kernel.diag(none, code))
                same_bits(kernel.cross_cov([], code, query, POINT),
                          kernel.cross_cov(none, code, query, POINT))
                same_bits(kernel.cross_cov(query, POINT, [], code),
                          kernel.cross_cov(query, POINT, none, code))
                empty, zeros = (ConditionedPredictor(kernel, [], code),
                                ConditionedPredictor(kernel, none, code))
                for got, want in zip(empty.cross_solve(query, NEG_LAPLACIAN),
                                     zeros.cross_solve(query, NEG_LAPLACIAN)):
                    same_bits(got, want)
                same_bits(empty.var(query), zeros.var(query))


class TestCrossCovBatch:
    def test_mixed_codes_match_closed_forms_entrywise(self):
        # Oracle for the per-code blocks: every entry of a mixed-code
        # batch equals the scalar closed form for its pair of functionals.
        ls, amp = 0.8, 1.3
        kernel = SquaredExponential(lengthscale=ls, amplitude=amp, dim=2)
        rng = np.random.default_rng(9)
        pts_a = rng.uniform(0, 1, (20, 2))
        pts_b = rng.uniform(0, 1, (15, 2))
        codes_a = rng.integers(0, 2, 20)
        codes_b = rng.integers(0, 2, 15)
        got = kernel.cross_cov(pts_a, codes_a, pts_b, codes_b)
        expected = np.empty((20, 15))
        for i in range(20):
            for j in range(15):
                k, lap, dlap = se_functional_covariances(ls, pts_a[i], pts_b[j])
                expected[i, j] = amp * (k, -lap, dlap)[codes_a[i] + codes_b[j]]
        assert {0, 1, 2} <= set((codes_a[:, None] + codes_b[None, :]).ravel())
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestFactorOnce:
    def test_conditioning_factors_gram_once(self, cho_factor_calls):
        pred = ConditionedPredictor(*mixed_design())
        query = np.array([[0.2, 0.2], [0.5, 0.5], [0.8, 0.3]])
        pred.cov_functionals(query, POINT)
        pred.cov_functionals(query, [POINT, NEG_LAPLACIAN, POINT])
        pred.cov_functionals(query, [NEG_LAPLACIAN] * 3)
        assert len(cho_factor_calls) == 1


class TestOneGate:
    def test_one_condition_number_per_conditioning(self, monkeypatch):
        calls = []
        cond = np.linalg.cond

        def counting(*args, **kwargs):
            calls.append(1)
            return cond(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", counting)
        ConditionedPredictor(*mixed_design())
        assert len(calls) == 1

    def test_failed_gate_raises_singular_system(self, monkeypatch):
        monkeypatch.setattr(gaussian, "MAX_CONDITION", 1.0)
        with pytest.raises(SingularSystem):
            ConditionedPredictor(*mixed_design())


class TestNugget:
    def test_total_nugget_is_the_factored_diagonal_excess(self, monkeypatch):
        factored = []
        spd_factor = kernels._spd_factor

        def recording(mat):
            factored.append(mat.copy())
            return spd_factor(mat)

        monkeypatch.setattr(kernels, "_spd_factor", recording)
        kernel, pts, codes = mixed_design()
        pred = ConditionedPredictor(kernel, pts, codes)
        excess = np.diagonal(factored[0]) - np.diagonal(kernel.cross_cov(pts, codes, pts, codes))
        # The diagonal reaches 512, whose ulp is 1.1e-13, and the nugget is
        # 4.1e-8, so two roundings move each excess by up to 3e-6 relative.
        np.testing.assert_allclose(excess, pred.nugget, rtol=1e-5)
        assert pred.nugget > first_nugget_stage(kernel, pts, codes) > 0.0
        assert ConditionedPredictor(kernel, np.zeros((0, 2)), []).nugget == 0.0


class TestConditioningProperties:
    def test_monotone_variance_reduction_nested_sets(self):
        rng = np.random.default_rng(4)
        pts, codes = points_1d(rng.uniform(0.05, 0.95, 4))
        small = ConditionedPredictor(Wiener(), pts[:2], codes[:2])
        large = ConditionedPredictor(Wiener(), pts, codes)
        query = np.linspace(0.05, 0.95, 17)
        assert np.all(large.var(query) <= small.var(query) + 1e-9)

    def test_laplacian_observations_reduce_variance(self):
        kernel = SquaredExponential(dim=2)
        rng = np.random.default_rng(2)
        pred = ConditionedPredictor(kernel, rng.uniform(0.2, 0.8, (3, 2)), [NEG_LAPLACIAN] * 3)
        query = rng.uniform(0.0, 1.0, (25, 2))
        prior_var = np.diag(kernel.cross_cov(query, np.zeros(25, dtype=int), query, np.zeros(25, dtype=int)))
        assert np.all(pred.var(query) <= prior_var + 1e-9)

    def test_posterior_cov_symmetric_psd(self):
        kernel = SquaredExponential(dim=2)
        rng = np.random.default_rng(6)
        pred = ConditionedPredictor(kernel, rng.uniform(0, 1, (5, 2)), [POINT] * 5)
        query = rng.uniform(0, 1, (12, 2))
        cov = pred.cov_functionals(query, POINT)
        assert cov == pytest.approx(cov.T, abs=1e-12)
        assert np.linalg.eigvalsh(cov)[0] >= -1e-9


DIAG_KERNELS = [
    (Wiener(), np.array([0.0, 0.13, 0.5, 0.77, 1.0])),
    (BrownianBridge(0.25, 0.75), np.array([0.25, 0.3, 0.5, 0.61, 0.75])),
    (SquaredExponential(lengthscale=0.7, amplitude=1.3, dim=2),
     np.random.default_rng(8).uniform(0, 1, (9, 2))),
    (SquaredExponential(lengthscale=0.4, amplitude=0.6, dim=1), np.linspace(0, 1, 7)[:, None]),
]


class TestPriorDiagonal:
    @pytest.mark.parametrize("kernel, pts", DIAG_KERNELS)
    def test_diag_equals_cross_cov_diagonal(self, kernel, pts):
        codes = np.zeros(len(pts), dtype=int)
        np.testing.assert_array_equal(kernel.diag(pts),
                                      np.diag(kernel.cross_cov(pts, codes, pts, codes)))


class TestPosteriorVariance:
    @pytest.mark.parametrize("kernel, obs, query", [
        (Wiener(), points_1d([0.2, 0.5, 0.9]), np.linspace(0.05, 0.95, 13)),
        (BrownianBridge(0.0, 2.0), points_1d([0.4, 1.5]), np.linspace(0.1, 1.9, 11)),
        (SquaredExponential(lengthscale=0.6, amplitude=1.3, dim=2), mixed_design()[1:],
         np.random.default_rng(3).uniform(0, 1, (20, 2))),
        (mixed_design()[0], mixed_design()[1:],
         np.array([[0.2, 0.2], [0.5, 0.5], [0.8, 0.3], [0.4, 0.7]])),
    ])
    @pytest.mark.parametrize("observed", [True, False])
    def test_var_equals_cov_diagonal(self, kernel, obs, query, observed):
        points, codes = obs
        n = len(codes) if observed else 0
        pred = ConditionedPredictor(kernel, points[:n], codes[:n])
        want = np.diag(pred.cov_functionals(query, POINT))
        np.testing.assert_allclose(pred.var(query), want, rtol=1e-12, atol=1e-13)
        if not observed:
            np.testing.assert_array_equal(pred.var(query), want)
