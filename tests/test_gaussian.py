"""Gaussian measures, conjugate conditioning and sampling."""

import numpy as np
import pytest
import scipy.linalg

from optinfo.errors import DimensionMismatch, FactorizationFailure, SingularSystem
from optinfo.gaussian import (
    DEFAULT_JITTER_SCALE,
    GaussianDensity,
    _psd_factor,
    _spd_factor,
    conjugate_posterior,
    derive_rng,
    sample_gaussian,
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
        # A rank-deficient (but PSD) prior is rescued by the documented
        # trace-scaled jitter instead of crashing; the posterior stays PSD.
        prior = GaussianDensity([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
        post = conjugate_posterior(prior, np.eye(2), np.eye(2), [0.0, 0.0])
        assert np.linalg.eigvalsh(post.cov)[0] >= -1e-9

    def test_information_form_factors_each_matrix_once(self, cho_factor_calls):
        # One Cholesky factorisation each for the noise, the prior and the
        # posterior precision.
        rng = np.random.default_rng(3)
        L = rng.standard_normal((3, 3))
        prior = GaussianDensity(rng.standard_normal(3), L @ L.T + np.eye(3))
        A = rng.standard_normal((2, 3))
        conjugate_posterior(prior, A, np.eye(2), rng.standard_normal(2))
        assert len(cho_factor_calls) == 3

    def test_indefinite_system_fails_loudly(self):
        from optinfo.gaussian import _spd_solve

        with pytest.raises(SingularSystem):
            _spd_solve(np.array([[1.0, 0.0], [0.0, -1.0]]), np.ones(2))


class TestFactorJitter:
    def test_diagonal_jitter_matches_dense_identity(self, monkeypatch):
        rng = derive_rng(11)
        a = rng.standard_normal((40, 30))
        cov = a @ a.T
        n = cov.shape[0]
        sym = 0.5 * (cov + cov.T)
        jitter_psd = DEFAULT_JITTER_SCALE * (np.trace(cov) / n + 1.0)
        jitter_spd = DEFAULT_JITTER_SCALE * (np.trace(sym) / n + 1.0)
        want_psd = np.linalg.cholesky(cov + jitter_psd * np.eye(n))
        want_spd = scipy.linalg.cho_factor(sym + jitter_spd * np.eye(n))[0]

        def no_dense_identity(*args, **kwargs):
            raise AssertionError("jitter must not build a dense identity")

        monkeypatch.setattr(np, "eye", no_dense_identity)
        np.testing.assert_array_equal(_psd_factor(cov), want_psd)
        np.testing.assert_array_equal(_spd_factor(cov)[0], want_spd)


class TestSampling:
    def test_deterministic_given_seed(self):
        g = GaussianDensity([1.0, -1.0], np.eye(2))
        a = sample_gaussian(g, seed=42, count=16)
        b = sample_gaussian(g, seed=42, count=16)
        np.testing.assert_array_equal(a, b)
        c = sample_gaussian(g, seed=43, count=16)
        assert not np.array_equal(a, c)

    def test_degenerate_covariance(self):
        g = GaussianDensity([2.0], [[0.0]])
        samples = sample_gaussian(g, seed=0, count=10)
        assert samples == pytest.approx(2.0, abs=1e-4)

    def test_moments_standard_normal(self):
        g = GaussianDensity(np.zeros(2), np.eye(2))
        samples = sample_gaussian(g, seed=5, count=100_000)
        assert samples.mean(axis=0) == pytest.approx(0.0, abs=3.0 / np.sqrt(100_000))
        assert np.cov(samples.T) == pytest.approx(np.eye(2), abs=0.05)

    def test_count_validation(self):
        g = GaussianDensity([0.0], [[1.0]])
        with pytest.raises(ValueError):
            sample_gaussian(g, seed=0, count=0)


class TestSeedSplitting:
    def test_streams_are_deterministic_and_distinct(self):
        a = derive_rng(0, 1).standard_normal(4)
        b = derive_rng(0, 1).standard_normal(4)
        c = derive_rng(0, 2).standard_normal(4)
        root = derive_rng(0).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, root)
