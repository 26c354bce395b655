"""Finite-dimensional Gaussian measures and conjugate conditioning.

The ``GaussianDensity`` here is the universal posterior/prior container used
throughout the package: linear-regression posteriors, grid-restricted GP
posteriors and quadrature posteriors all reduce to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, FactorizationFailure, SingularSystem

# Diagonal stabilisation applied before factorising Gram/innovation matrices.
DEFAULT_JITTER_SCALE = 1e-10
# Condition-number ceiling beyond which a solve is declared degenerate.
MAX_CONDITION = 1e12


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic seed-splitting rule: (seed, stream-index...) -> generator.

    Every concurrent Monte Carlo stream must obtain its generator through
    this function so that results are independent of execution order.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(stream)))


def _as_cov(cov) -> np.ndarray:
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DimensionMismatch(f"covariance must be square, got shape {cov.shape}")
    return cov


@dataclass(frozen=True)
class GaussianDensity:
    """Gaussian measure N(mean, cov) on R^d.

    The covariance must be symmetric (relative tolerance 1e-12) and positive
    semi-definite (smallest eigenvalue >= -1e-10 * largest).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = _as_cov(self.cov)
        if mean.shape[0] != cov.shape[0]:
            raise DimensionMismatch(
                f"mean has dimension {mean.shape[0]} but cov is {cov.shape}"
            )
        scale = np.max(np.abs(cov)) if cov.size else 0.0
        if scale > 0 and np.max(np.abs(cov - cov.T)) > 1e-12 * scale:
            raise FactorizationFailure("covariance is not symmetric")
        cov = 0.5 * (cov + cov.T)
        if cov.size:
            eigs = np.linalg.eigvalsh(cov)
            if eigs[0] < -1e-10 * max(eigs[-1], 0.0) - 1e-300:
                raise FactorizationFailure(
                    f"covariance not PSD: min eigenvalue {eigs[0]:.3e}"
                )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Return F with F F^T = cov, via Cholesky with eigenvalue-clip fallback."""
    if cov.size == 0:
        return cov
    jitter = DEFAULT_JITTER_SCALE * (np.trace(cov) / cov.shape[0] + 1.0)
    try:
        return np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        if w[-1] < 0:
            raise FactorizationFailure("covariance has no nonnegative eigenvalues")
        w = np.clip(w, 0.0, None)
        return v * np.sqrt(w)


def sample_gaussian(g: GaussianDensity, seed: int, count: int) -> np.ndarray:
    """Draw ``count`` samples from g, deterministically given ``seed``.

    Returns an array of shape (count, d).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = derive_rng(seed)
    factor = _psd_factor(g.cov)
    z = rng.standard_normal((count, g.dim))
    return g.mean[None, :] + z @ factor.T


def _spd_factor(mat: np.ndarray):
    """Cholesky factor of a symmetric positive definite matrix, failing loudly
    if degenerate.

    The matrix is symmetrised and jittered, its condition number is checked
    against MAX_CONDITION, and it is factored once; every solve against it
    then goes through ``scipy.linalg.cho_solve`` on the returned factor.
    """
    mat = 0.5 * (mat + mat.T)
    jitter = DEFAULT_JITTER_SCALE * (np.trace(mat) / mat.shape[0] + 1.0)
    stabilised = mat + jitter * np.eye(mat.shape[0])
    if np.linalg.cond(stabilised) > MAX_CONDITION:
        raise SingularSystem(
            "system condition number exceeds 1e12 after jitter; degenerate design"
        )
    try:
        return scipy.linalg.cho_factor(stabilised)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(f"symmetric factorisation failed: {exc}") from exc


def _spd_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive definite system, failing loudly if degenerate."""
    return scipy.linalg.cho_solve(_spd_factor(mat), rhs)


def conjugate_posterior(
    prior: GaussianDensity,
    design_matrix,
    noise_cov,
    observation,
) -> GaussianDensity:
    """Posterior of x given y = A x + noise with Gaussian prior on x.

    For nonsingular observation noise the information form
    (A^T S^-1 A + Sigma0^-1)^-1 is used; for (numerically) singular noise the
    joint-Gaussian conditioning route with jitter is taken instead.
    """
    A = np.atleast_2d(np.asarray(design_matrix, dtype=float))
    y = np.atleast_1d(np.asarray(observation, dtype=float))
    S = _as_cov(noise_cov)
    n, d = A.shape
    if d != prior.dim:
        raise DimensionMismatch(f"design matrix has {d} columns, prior dim {prior.dim}")
    if y.shape[0] != n or S.shape[0] != n:
        raise DimensionMismatch(
            f"observation/noise dimensions {y.shape[0]}/{S.shape[0]} != {n} rows"
        )

    noise_nonsingular = (
        S.size > 0
        and np.all(np.linalg.eigvalsh(0.5 * (S + S.T)) > 1e-13 * max(np.max(np.abs(S)), 1.0))
    )
    if noise_nonsingular:
        S_factor = _spd_factor(S)
        prior_factor = _spd_factor(prior.cov)
        Sinv_A = scipy.linalg.cho_solve(S_factor, A)
        prior_prec_mu = scipy.linalg.cho_solve(prior_factor, prior.mean)
        prec = A.T @ Sinv_A + scipy.linalg.cho_solve(prior_factor, np.eye(d))
        cov = _spd_solve(prec, np.eye(d))
        mean = cov @ (A.T @ scipy.linalg.cho_solve(S_factor, y) + prior_prec_mu)
        return GaussianDensity(mean, 0.5 * (cov + cov.T))

    # Zero / singular noise: condition the joint Gaussian (x, Ax + noise).
    innovation = A @ prior.cov @ A.T + S
    cross = prior.cov @ A.T
    gain = _spd_solve(innovation, cross.T).T
    mean = prior.mean + gain @ (y - A @ prior.mean)
    cov = prior.cov - gain @ cross.T
    return GaussianDensity(mean, 0.5 * (cov + cov.T))
