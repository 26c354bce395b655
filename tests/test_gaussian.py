"""Gaussian measures, conjugate conditioning and sampling."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from optinfo.errors import DimensionMismatch, FactorizationFailure, SingularSystem
from optinfo.gaussian import (
    DEFAULT_JITTER_SCALE,
    SAMPLING_JITTER,
    GaussianDensity,
    _psd_factor,
    _spd_factor,
    _unit_diagonal_factor,
    conjugate_posterior,
    derive_rng,
)
from optinfo.kernels import (
    NegativeLaplacianEvaluation,
    PointEvaluation,
    SquaredExponential,
    gp_condition,
)


def grid_posterior_oracle(prior, A, noise, y, half_width=6.0, resolution=400):
    """Brute-force 2-D posterior moments by quadrature of Bayes' rule on a
    regular grid: completely independent of the linear-algebra route."""
    sds = np.sqrt(np.diag(prior.cov))
    axes = [
        np.linspace(prior.mean[i] - half_width * sds[i], prior.mean[i] + half_width * sds[i], resolution)
        for i in range(2)
    ]
    xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])

    prior_prec = np.linalg.inv(prior.cov)
    diff = pts - prior.mean
    log_prior = -0.5 * np.einsum("ij,jk,ik->i", diff, prior_prec, diff)
    resid = y[None, :] - pts @ np.atleast_2d(A).T
    noise_prec = np.linalg.inv(np.atleast_2d(noise))
    log_lik = -0.5 * np.einsum("ij,jk,ik->i", resid, noise_prec, resid)
    w = np.exp(log_prior + log_lik - np.max(log_prior + log_lik))
    w /= w.sum()
    mean = w @ pts
    centred = pts - mean
    cov = (centred * w[:, None]).T @ centred
    return mean, cov


class TestGaussianDensity:
    def test_validates_symmetry(self):
        with pytest.raises(FactorizationFailure):
            GaussianDensity([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_validates_psd(self):
        with pytest.raises(FactorizationFailure):
            GaussianDensity([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_validates_dimensions(self):
        with pytest.raises(DimensionMismatch):
            GaussianDensity([0.0, 0.0, 0.0], np.eye(2))

    def test_scalar_inputs_promoted(self):
        g = GaussianDensity(0.0, 1.0)
        assert g.dim == 1
        assert g.cov.shape == (1, 1)


class TestConjugatePosterior:
    def test_no_information_returns_prior(self):
        prior = GaussianDensity([0.0], [[1.0]])
        post = conjugate_posterior(prior, [[0.0]], [[1.0]], [3.7])
        assert post.mean == pytest.approx(prior.mean, abs=1e-12)
        assert post.cov == pytest.approx(prior.cov, abs=1e-9)

    def test_scalar_unit_example(self):
        # Hand evaluation of the conjugate formulas: prior N(0,1), one unit
        # observation y=1 with unit noise gives N(1/2, 1/2).
        prior = GaussianDensity([0.0], [[1.0]])
        post = conjugate_posterior(prior, [[1.0]], [[1.0]], [1.0])
        assert post.mean[0] == pytest.approx(0.5, abs=1e-9)
        assert post.cov[0, 0] == pytest.approx(0.5, abs=1e-9)

    def test_matches_grid_quadrature_oracle(self):
        rng = np.random.default_rng(7)
        L = rng.standard_normal((2, 2))
        prior = GaussianDensity(rng.standard_normal(2), L @ L.T + 0.5 * np.eye(2))
        A = rng.standard_normal((1, 2))
        noise = np.array([[0.6]])
        y = np.array([0.8])
        post = conjugate_posterior(prior, A, noise, y)
        mean, cov = grid_posterior_oracle(prior, A, noise, y)
        assert post.mean == pytest.approx(mean, abs=1e-3)
        assert post.cov == pytest.approx(cov, abs=1e-3)

    def test_information_form_matches_joint_conditioning(self):
        # The two computation routes must agree for nonsingular noise; the
        # joint-conditioning route is re-derived here as the oracle.
        rng = np.random.default_rng(3)
        L = rng.standard_normal((3, 3))
        prior = GaussianDensity(rng.standard_normal(3), L @ L.T + np.eye(3))
        A = rng.standard_normal((2, 3))
        y = rng.standard_normal(2)
        post = conjugate_posterior(prior, A, np.eye(2), y)

        innovation = A @ prior.cov @ A.T + np.eye(2)
        gain = prior.cov @ A.T @ np.linalg.inv(innovation)
        mean = prior.mean + gain @ (y - A @ prior.mean)
        cov = prior.cov - gain @ A @ prior.cov
        assert post.mean == pytest.approx(mean, rel=1e-8, abs=1e-10)
        assert post.cov == pytest.approx(cov, rel=1e-8, abs=1e-10)

    def test_zero_noise_interpolates(self):
        rng = np.random.default_rng(11)
        L = rng.standard_normal((3, 3))
        prior = GaussianDensity(np.zeros(3), L @ L.T + np.eye(3))
        A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        y = np.array([0.3, -1.2])
        post = conjugate_posterior(prior, A, np.zeros((2, 2)), y)
        assert A @ post.mean == pytest.approx(y, abs=1e-6)
        assert np.diag(A @ post.cov @ A.T) == pytest.approx(0.0, abs=1e-6)

    def test_dimension_mismatch(self):
        prior = GaussianDensity([0.0, 0.0], np.eye(2))
        with pytest.raises(DimensionMismatch):
            conjugate_posterior(prior, [[1.0, 0.0]], np.eye(2), [1.0, 2.0])

    def test_rank_deficient_prior_is_stabilised(self):
        # A rank-deficient (but PSD) prior conditions without crashing; the
        # posterior stays PSD.
        prior = GaussianDensity([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
        post = conjugate_posterior(prior, np.eye(2), np.eye(2), [0.0, 0.0])
        assert np.linalg.eigvalsh(post.cov)[0] >= -1e-9

    def test_factors_innovation_once(self, cho_factor_calls):
        # One Cholesky factorisation, of the innovation, per posterior.
        rng = np.random.default_rng(3)
        L = rng.standard_normal((3, 3))
        prior = GaussianDensity(rng.standard_normal(3), L @ L.T + np.eye(3))
        A = rng.standard_normal((2, 3))
        conjugate_posterior(prior, A, np.eye(2), rng.standard_normal(2))
        assert len(cho_factor_calls) == 1

    def test_indefinite_system_fails_loudly(self):
        with pytest.raises(SingularSystem):
            _spd_factor(np.array([[1.0, 0.0], [0.0, -1.0]]))

    @pytest.mark.parametrize("noise_kind", ["diagonal", "dense"])
    def test_exact_against_explicit_joint_formula(self, noise_kind):
        # Nonsingular noise is conditioned without jitter, so the posterior
        # matches the joint formula through a dense solve to roundoff.
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, d + 1))
            L = rng.standard_normal((d, d))
            prior = GaussianDensity(rng.standard_normal(d), L @ L.T + np.eye(d))
            A = rng.standard_normal((n, d))
            if noise_kind == "diagonal":
                noise = np.diag(rng.uniform(0.1, 2.0, n))
            else:
                M = rng.standard_normal((n, n))
                noise = M @ M.T + 0.1 * np.eye(n)
            y = rng.standard_normal(n)
            post = conjugate_posterior(prior, A, noise, y)

            gain = np.linalg.solve(A @ prior.cov @ A.T + noise, A @ prior.cov).T
            mean = prior.mean + gain @ (y - A @ prior.mean)
            cov = prior.cov - gain @ A @ prior.cov
            assert np.max(np.abs(post.mean - mean)) <= 1e-12 * np.max(np.abs(mean))
            assert np.max(np.abs(post.cov - cov)) <= 1e-12 * np.max(np.abs(cov))

    def test_zero_noise_square_design(self):
        # Full information: the posterior collapses onto A^-1 y, up to the
        # jitter that the singular noise calls for.
        rng = np.random.default_rng(5)
        L = rng.standard_normal((3, 3))
        prior = GaussianDensity(rng.standard_normal(3), L @ L.T + np.eye(3))
        A = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        y = rng.standard_normal(3)
        post = conjugate_posterior(prior, A, np.zeros((3, 3)), y)
        assert A @ post.mean == pytest.approx(y, abs=1e-6)
        assert np.max(np.abs(post.cov)) <= 1e-6

    @pytest.mark.parametrize("noise_var", [0.0, 1e-12])
    def test_redundant_rows(self, noise_var):
        # Two identical rows: the innovation is singular up to the noise and
        # gets the jitter; the posterior equals the one-row posterior.
        prior = GaussianDensity([0.5, -0.2], [[2.0, 0.3], [0.3, 1.0]])
        row = np.array([[1.0, 2.0]])
        post = conjugate_posterior(prior, np.vstack([row, row]), noise_var * np.eye(2),
                                   [0.7, 0.7])
        single = conjugate_posterior(prior, row, [[0.0]], [0.7])
        assert post.mean == pytest.approx(single.mean, abs=1e-8)
        assert post.cov == pytest.approx(single.cov, abs=1e-8)

    def test_tiny_noise_is_not_swamped_by_jitter(self):
        # A well-conditioned innovation is factored as it is, so a 1e-12
        # observation noise sets the posterior variance.
        prior = GaussianDensity([0.0, 0.0], np.diag([1e3, 1.0]))
        post = conjugate_posterior(prior, np.eye(2), 1e-12 * np.eye(2), [0.0, 0.0])
        assert post.cov[1, 1] == pytest.approx(1e-12, rel=0.05)
        assert post.cov[0, 0] == pytest.approx(1e-12, rel=0.05)


class TestFactorJitter:
    def test_diagonal_jitter_matches_dense_identity(self, monkeypatch):
        rng = derive_rng(11)
        a = rng.standard_normal((40, 30))
        cov = a @ a.T
        n = cov.shape[0]
        jitter_psd = DEFAULT_JITTER_SCALE * (np.trace(cov) / n + 1.0)
        want_psd = np.linalg.cholesky(cov + jitter_psd * np.eye(n))

        b = rng.standard_normal((40, 60))
        spd = b @ b.T
        want_spd = scipy.linalg.cho_factor(0.5 * (spd + spd.T))[0]

        kernel = SquaredExponential(lengthscale=0.5, dim=2)
        obs = [PointEvaluation([t, 0.0], 0.0) for t in (0.0, 0.5, 1.0)]
        obs += [NegativeLaplacianEvaluation([0.3, 0.6], 1.0),
                NegativeLaplacianEvaluation([0.7, 0.4], -1.0)]
        pts = np.array([o.location for o in obs])
        codes = np.array([o.code for o in obs])
        gram = kernel.cross_cov(pts, codes, pts, codes)
        m = gram.shape[0]
        stage1 = gram + DEFAULT_JITTER_SCALE * np.trace(gram) / m * np.eye(m)
        sym = 0.5 * (stage1 + stage1.T)
        stage2 = sym + DEFAULT_JITTER_SCALE * (np.trace(sym) / m + 1.0) * np.eye(m)
        want_gram = scipy.linalg.cho_factor(stage2)[0]

        def no_dense_identity(*args, **kwargs):
            raise AssertionError("jitter must not build a dense identity")

        monkeypatch.setattr(np, "eye", no_dense_identity)
        np.testing.assert_array_equal(_psd_factor(cov), want_psd)
        np.testing.assert_array_equal(_spd_factor(spd)[0], want_spd)
        np.testing.assert_array_equal(gp_condition(kernel, obs)._factor[0], want_gram)


class TestUnitDiagonalFactor:
    def test_jitter_is_relative_to_each_variance(self):
        # Variances over eight decades; each gets a 1e-12 relative jitter,
        # where _psd_factor's mean-diagonal jitter would swamp the small ones.
        a = derive_rng(12).standard_normal((6, 6))
        scale = np.logspace(-4, 4, 6)
        cov = (a @ a.T + np.eye(6)) * np.outer(scale, scale)
        factor = _unit_diagonal_factor(cov.copy())
        want = cov + SAMPLING_JITTER * np.diag(np.diag(cov))
        assert np.max(np.abs(factor @ factor.T - want) / np.outer(scale, scale)) <= 1e-13

    def test_indefinite_form_falls_back_to_eigenvalue_clip(self):
        scale = np.array([2.0, 0.5])
        corr = np.array([[1.0, 1.001], [1.001, 1.0]])
        factor = _unit_diagonal_factor(corr * np.outer(scale, scale))
        clipped = (2.001 + SAMPLING_JITTER) / 2.0 * np.ones((2, 2))
        np.testing.assert_allclose(factor @ factor.T, clipped * np.outer(scale, scale),
                                   rtol=1e-12)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(FactorizationFailure):
            _unit_diagonal_factor(np.diag([1.0, 0.0]))

    def test_cholesky_factor_is_formed_in_place(self):
        a = derive_rng(13).standard_normal((7, 7))
        cov = a @ a.T + np.eye(7)
        want = cov + SAMPLING_JITTER * np.diag(np.diag(cov))
        factor = _unit_diagonal_factor(cov)
        assert factor is cov and np.shares_memory(factor, cov)
        assert np.all(np.triu(factor, 1) == 0.0)
        np.testing.assert_allclose(factor @ factor.T, want, rtol=1e-13)
        with pytest.raises(ValueError, match="C-contiguous"):
            _unit_diagonal_factor(np.asfortranarray(a @ a.T + np.eye(7)))

    def test_factor_allocates_no_square_array(self):
        # A 1681 x 1681 form, the size of the default p = inf search prior:
        # numpy reports its buffers to tracemalloc, and a copy of the form,
        # or an n x n mask for its upper triangle, would exceed the bound.
        n = 1681
        cov = np.full((n, n), 0.5)
        np.fill_diagonal(cov, 1.0)
        tracemalloc.start()
        try:
            factor = _unit_diagonal_factor(cov)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factor is cov
        assert peak < 0.05 * cov.nbytes

    @pytest.mark.parametrize("corr", [
        [[1.0, 1.001, 0.2], [1.001, 1.0, 0.3], [0.2, 0.3, 1.0]],
        [[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]],
    ], ids=["second-pivot", "third-pivot"])
    def test_failure_at_a_later_column_falls_back_to_eigenvalue_clip(self, corr):
        # LAPACK overwrites the leading rows of the factor and the diagonal
        # before it finds a pivot that is not positive; the fallback must see
        # the form as it was. Read from the overwritten lower triangle, the
        # third-pivot form is 280 % off.
        scale = np.array([2.0, 0.5, 3.0])
        corr = np.array(corr)
        factor = _unit_diagonal_factor(corr * np.outer(scale, scale))
        w, v = np.linalg.eigh(corr + SAMPLING_JITTER * np.eye(3))
        assert w[0] < 0.0
        clipped = (v * np.clip(w, 0.0, None)) @ v.T
        np.testing.assert_allclose(factor @ factor.T, clipped * np.outer(scale, scale),
                                   rtol=1e-12)


class TestSeedSplitting:
    def test_streams_are_deterministic_and_distinct(self):
        a = derive_rng(0, 1).standard_normal(4)
        b = derive_rng(0, 1).standard_normal(4)
        c = derive_rng(0, 2).standard_normal(4)
        root = derive_rng(0).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, root)
