"""Kernels, linear functionals and GP conditioning."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from optinfo import gaussian, kernels
from optinfo.errors import SingularGram, SingularSystem, UnsupportedFunctional
from optinfo.kernels import (
    NEG_LAPLACIAN,
    POINT,
    BrownianBridge,
    NegativeLaplacianEvaluation,
    PointEvaluation,
    SquaredExponential,
    Wiener,
    gp_condition,
)
from reference_impls import se_functional_covariances


def fd_laplacian(f, t, h=1e-4):
    """Central second-difference Laplacian of a scalar field at t."""
    t = np.asarray(t, dtype=float)
    total = 0.0
    for i in range(t.shape[0]):
        e = np.zeros_like(t)
        e[i] = h
        total += (f(t + e) - 2.0 * f(t) + f(t - e)) / h**2
    return total


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
            gp_condition(k, [NegativeLaplacianEvaluation([0.5], 0.0)])


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
        pred = gp_condition(Wiener(), [PointEvaluation([t], 0.0) for t in nodes])
        query = np.array([0.3, 0.45, 0.55])
        cov = pred.cov(query)
        bridge = BrownianBridge(0.2, 0.6)
        expected = bridge.cross_cov(query, np.zeros(3, dtype=int), query, np.zeros(3, dtype=int))
        assert cov == pytest.approx(expected, abs=1e-7)

    def test_point_conditioning_pins_variance(self):
        pred = gp_condition(Wiener(), [PointEvaluation([0.5], 1.0)])
        assert pred.var([0.5])[0] <= pred.jitter * 10
        assert pred.mean([0.5])[0] == pytest.approx(1.0, abs=1e-6)

    def test_zero_observations_returns_prior(self):
        pred = gp_condition(Wiener(), [])
        t = np.array([0.1, 0.9])
        assert pred.cov(t) == pytest.approx(np.minimum.outer(t, t), abs=1e-15)
        assert pred.mean(t) == pytest.approx(0.0, abs=1e-15)

    def test_duplicate_locations_rejected(self):
        with pytest.raises(SingularGram):
            gp_condition(Wiener(), [PointEvaluation([0.5], 0.0), PointEvaluation([0.5], 1.0)])


class TestObservationGeometry:
    @pytest.mark.parametrize("kernel, loc", [
        (Wiener(), np.array([0.5])),
        (SquaredExponential(dim=2), np.array([0.3, 0.6])),
    ])
    def test_same_kind_observations_too_close_rejected(self, kernel, loc):
        near = loc + 5e-7
        with pytest.raises(SingularGram) as err:
            gp_condition(kernel, [PointEvaluation(loc, 0.0), PointEvaluation(near, 1.0)])
        assert str(loc.tolist()) in str(err.value)
        assert str(near.tolist()) in str(err.value)

    def test_point_and_laplacian_at_one_location_condition(self):
        loc = [0.4, 0.7]
        pred = gp_condition(SquaredExponential(dim=2),
                            [PointEvaluation(loc, 1.0), NegativeLaplacianEvaluation(loc, 0.0)])
        assert pred.var([loc])[0] <= 10 * pred.nugget

    @pytest.mark.parametrize("kernel, loc", [
        (Wiener(), [np.nan]),
        (SquaredExponential(dim=2), [0.5, np.inf]),
    ])
    def test_non_finite_location_rejected(self, kernel, loc):
        with pytest.raises(ValueError, match="finite"):
            gp_condition(kernel, [PointEvaluation([0.2] * len(loc), 0.0),
                                  PointEvaluation(loc, 0.0)])


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
        kernel = SquaredExponential(lengthscale=0.5, dim=2)
        boundary = [PointEvaluation([t, 0.0], 0.0) for t in (0.0, 0.5, 1.0)]
        interior = [NegativeLaplacianEvaluation([0.3, 0.6], 1.0),
                    NegativeLaplacianEvaluation([0.7, 0.4], -1.0)]
        pred = gp_condition(kernel, boundary + interior)
        query = np.array([[0.2, 0.2], [0.5, 0.5], [0.8, 0.3]])
        pred.mean(query)
        pred.cov(query)
        pred.cov_functionals(query, [POINT, NEG_LAPLACIAN, POINT])
        pred.cov_functionals(query, [NEG_LAPLACIAN] * 3)
        assert len(cho_factor_calls) == 1


def mixed_predictor():
    """SE predictor on boundary values and two -Laplacian observations."""
    kernel = SquaredExponential(lengthscale=0.5, dim=2)
    boundary = [PointEvaluation([t, 0.0], 0.0) for t in (0.0, 0.5, 1.0)]
    interior = [NegativeLaplacianEvaluation([0.3, 0.6], 1.0),
                NegativeLaplacianEvaluation([0.7, 0.4], -1.0)]
    return kernel, boundary + interior


class TestOneGate:
    def test_one_condition_number_per_conditioning(self, monkeypatch):
        calls = []
        cond = np.linalg.cond

        def counting(*args, **kwargs):
            calls.append(1)
            return cond(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", counting)
        gp_condition(*mixed_predictor())
        assert len(calls) == 1

    def test_failed_gate_raises_singular_system(self, monkeypatch):
        monkeypatch.setattr(gaussian, "MAX_CONDITION", 1.0)
        with pytest.raises(SingularSystem):
            gp_condition(*mixed_predictor())


class TestNugget:
    def test_total_nugget_is_the_factored_diagonal_excess(self, monkeypatch):
        factored = []
        spd_factor = kernels._spd_factor

        def recording(mat):
            factored.append(mat.copy())
            return spd_factor(mat)

        monkeypatch.setattr(kernels, "_spd_factor", recording)
        kernel, obs = mixed_predictor()
        pred = gp_condition(kernel, obs)
        pts = np.array([o.location for o in obs])
        codes = np.array([o.code for o in obs])
        excess = np.diagonal(factored[0]) - np.diagonal(kernel.cross_cov(pts, codes, pts, codes))
        # The diagonal reaches 512, whose ulp is 1.1e-13, and the nugget is
        # 4.1e-8, so two roundings move each excess by up to 3e-6 relative.
        np.testing.assert_allclose(excess, pred.nugget, rtol=1e-5)
        assert pred.nugget > pred.jitter > 0.0
        assert gp_condition(kernel, []).nugget == 0.0


class TestConditioningProperties:
    def test_monotone_variance_reduction_nested_sets(self):
        rng = np.random.default_rng(4)
        obs = [PointEvaluation(rng.uniform(0.05, 0.95, 1), 0.0) for _ in range(4)]
        small = gp_condition(Wiener(), obs[:2])
        large = gp_condition(Wiener(), obs)
        query = np.linspace(0.05, 0.95, 17)
        assert np.all(large.var(query) <= small.var(query) + 1e-9)

    def test_laplacian_observations_reduce_variance(self):
        kernel = SquaredExponential(dim=2)
        rng = np.random.default_rng(2)
        obs = [NegativeLaplacianEvaluation(rng.uniform(0.2, 0.8, 2), 0.0) for _ in range(3)]
        pred = gp_condition(kernel, obs)
        query = rng.uniform(0.0, 1.0, (25, 2))
        prior_var = np.diag(kernel.cross_cov(query, np.zeros(25, dtype=int), query, np.zeros(25, dtype=int)))
        assert np.all(pred.var(query) <= prior_var + 1e-9)

    def test_posterior_cov_symmetric_psd(self):
        kernel = SquaredExponential(dim=2)
        rng = np.random.default_rng(6)
        obs = [PointEvaluation(rng.uniform(0, 1, 2), 0.0) for _ in range(5)]
        pred = gp_condition(kernel, obs)
        query = rng.uniform(0, 1, (12, 2))
        cov = pred.cov(query)
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
        (Wiener(), [PointEvaluation([t], 0.0) for t in (0.2, 0.5, 0.9)],
         np.linspace(0.05, 0.95, 13)),
        (BrownianBridge(0.0, 2.0), [PointEvaluation([t], 1.0) for t in (0.4, 1.5)],
         np.linspace(0.1, 1.9, 11)),
        (SquaredExponential(lengthscale=0.6, amplitude=1.3, dim=2),
         [PointEvaluation([t, 0.0], 0.0) for t in (0.0, 0.5, 1.0)]
         + [NegativeLaplacianEvaluation([0.3, 0.6], 1.0),
            NegativeLaplacianEvaluation([0.7, 0.4], -1.0)],
         np.random.default_rng(3).uniform(0, 1, (20, 2))),
        (*mixed_predictor(), np.array([[0.2, 0.2], [0.5, 0.5], [0.8, 0.3], [0.4, 0.7]])),
    ])
    @pytest.mark.parametrize("observed", [True, False])
    def test_var_equals_cov_diagonal(self, kernel, obs, query, observed):
        pred = gp_condition(kernel, obs if observed else [])
        want = np.diag(pred.cov(query))
        np.testing.assert_allclose(pred.var(query), want, rtol=1e-12, atol=1e-13)
        if not observed:
            np.testing.assert_array_equal(pred.var(query), want)
