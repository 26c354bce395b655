"""Gaussian measures, conjugate conditioning and sampling."""

import numpy as np
import pytest
import scipy.linalg

from optinfo.decisions import GaussianLinearProblem, PNormOnGrid
from optinfo.errors import DimensionMismatch, FactorizationFailure, SingularSystem
from optinfo.gaussian import (
    DEFAULT_JITTER_SCALE,
    GaussianDensity,
    _psd_factor,
    _spd_factor,
    conjugate_posterior,
    derive_rng,
    linear_gaussian_update,
)
from optinfo.kernels import NEG_LAPLACIAN, POINT, ConditionedPredictor, SquaredExponential


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

    @pytest.mark.parametrize("d", [1, 3])
    def test_null_experiment_returns_prior_bit_for_bit(self, d):
        # An A of no rows observes nothing: the gain is d x 0, and the
        # posterior is the prior in every bit.
        rng = np.random.default_rng(d)
        L = rng.standard_normal((d, d))
        prior = GaussianDensity(rng.standard_normal(d), L @ L.T + np.eye(d))
        A, noise = np.zeros((0, d)), np.zeros((0, 0))
        gain, cov = linear_gaussian_update(prior, A, noise)
        assert gain.shape == (d, 0)
        assert cov.tobytes() == prior.cov.tobytes()
        post = conjugate_posterior(prior, A, noise, np.zeros(0))
        assert post.mean.tobytes() == prior.mean.tobytes()
        assert post.cov.tobytes() == prior.cov.tobytes()

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
        # _psd_factor adds no jitter: this rank-30 cov has no Cholesky
        # factor, so it takes the eigenvalue clip of cov as it is.
        rng = derive_rng(11)
        a = rng.standard_normal((40, 30))
        cov = a @ a.T
        w, v = np.linalg.eigh(cov)
        want_psd = v * np.sqrt(np.clip(w, 0.0, None))

        b = rng.standard_normal((40, 60))
        spd = b @ b.T
        want_spd = scipy.linalg.cho_factor(0.5 * (spd + spd.T))[0]

        kernel = SquaredExponential(lengthscale=0.5, dim=2)
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.3, 0.6], [0.7, 0.4]])
        codes = np.array([POINT, POINT, POINT, NEG_LAPLACIAN, NEG_LAPLACIAN])
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
        np.testing.assert_array_equal(_psd_factor(spd), np.linalg.cholesky(spd))
        np.testing.assert_array_equal(_spd_factor(spd)[0], want_spd)
        np.testing.assert_array_equal(ConditionedPredictor(kernel, pts, codes)._factor[0],
                                      want_gram)


class TestSamplingFactor:
    def test_tiny_observation_noise_is_drawn_at_its_own_variance(self):
        # The sampler factors the noise covariance as it is: a jitter scaled
        # by the mean diagonal would draw noise of variance about 1e-10 here.
        prior = GaussianDensity([0.0, 0.0], np.diag([2.0, 0.5]))
        problem = GaussianLinearProblem(prior, {"e": (np.eye(2), 1e-12 * np.eye(2))},
                                        PNormOnGrid(2.0, np.ones(2)))
        xs, ys, _ = problem.sample_nested(derive_rng(14), "e", 20000, 0)
        assert np.var(ys - xs, axis=0, ddof=1) == pytest.approx([1e-12, 1e-12], rel=0.05)


class TestSeedSplitting:
    def test_streams_are_deterministic_and_distinct(self):
        a = derive_rng(0, 1).standard_normal(4)
        b = derive_rng(0, 1).standard_normal(4)
        c = derive_rng(0, 2).standard_normal(4)
        root = derive_rng(0).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, root)


class TestInputChecks:
    @pytest.mark.parametrize("call, error", [
        (lambda: GaussianDensity([0.0, 0.0], np.ones((2, 3))), DimensionMismatch),
        (lambda: _psd_factor(-np.eye(2)), FactorizationFailure),
        (lambda: linear_gaussian_update(GaussianDensity([0.0, 0.0], np.eye(2)), np.ones((1, 3)),
                                        np.eye(1)), DimensionMismatch),
        (lambda: linear_gaussian_update(GaussianDensity([0.0, 0.0], np.eye(2)), np.ones((2, 2)),
                                        np.eye(1)), DimensionMismatch),
    ], ids=["non-square-cov", "negative-definite-factor", "design-columns", "noise-rows"])
    def test_rejected(self, call, error):
        with pytest.raises(error):
            call()
