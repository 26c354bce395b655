"""Finite-dimensional Gaussian measures and conjugate conditioning.

The ``GaussianDensity`` here is the universal posterior/prior container used
throughout the package: linear-regression posteriors, grid-restricted GP
posteriors and quadrature posteriors all reduce to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FactorizationFailure, SingularSystem

# Scale of the diagonal jitter that ``_add_jitter`` applies.
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


def _jitter(mat: np.ndarray) -> float:
    """``DEFAULT_JITTER_SCALE * (mean diagonal + 1)`` of the square ``mat``:
    the amount ``_add_jitter`` adds."""
    return DEFAULT_JITTER_SCALE * (np.trace(mat) / mat.shape[0] + 1.0)


def _add_jitter(mat: np.ndarray) -> np.ndarray:
    """Add ``_jitter(mat)`` to the diagonal of the square ``mat`` in place;
    return ``mat``."""
    np.fill_diagonal(mat, np.diagonal(mat) + _jitter(mat))
    return mat


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Return F with F F^T = cov: the Cholesky factor of ``cov`` as it is,
    or, if that fails, V sqrt(max(w, 0)) from its eigendecomposition. No
    jitter is added, so a draw through F has the variances of ``cov``
    however small they are."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        if w[-1] < 0:
            raise FactorizationFailure("covariance has no nonnegative eigenvalues")
        w = np.clip(w, 0.0, None)
        return v * np.sqrt(w)


def _spd_factor(mat: np.ndarray):
    """``cho_factor`` of the symmetric ``mat``, adding no jitter.

    ``mat`` must be symmetric: it is factored as it is, from its upper
    triangle, and no symmetrised copy is made. Raises SingularSystem if the
    condition number exceeds MAX_CONDITION or the factorisation fails; a
    0 x 0 matrix, whose condition number is undefined, skips the gate and
    has a 0 x 0 factor. A caller that needs a jitter adds it first
    (``_add_jitter``); every solve then goes through
    ``scipy.linalg.cho_solve`` on the returned factor.
    """
    # Imported on first use: scipy is slow to import and most runs never need it.
    import scipy.linalg

    if mat.size and np.linalg.cond(mat) > MAX_CONDITION:
        raise SingularSystem("system condition number exceeds 1e12; degenerate design")
    try:
        return scipy.linalg.cho_factor(mat)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(f"symmetric factorisation failed: {exc}") from exc


def linear_gaussian_update(prior: GaussianDensity, design_matrix, noise_cov):
    """(gain, cov) of x given y = A x + noise, noise ~ N(0, S), under ``prior``.

    The posterior given y is N(prior.mean + gain (y - A prior.mean), cov),
    with cov = prior.cov - gain A prior.cov. The joint form factors the
    symmetrised innovation A prior.cov A^T + S once. It is jittered
    (``_add_jitter``) only when S is numerically singular (an eigenvalue at
    most 1e-13 * max(max|S|, 1)) or when ``_spd_factor`` rejects it as it
    is, so a well-conditioned experiment is conditioned exactly. An A of
    no rows observes nothing: the gain is d x 0 and cov is the prior
    covariance bit for bit.
    """
    # Imported on first use: scipy is slow to import and most runs never need it.
    import scipy.linalg

    A = np.atleast_2d(np.asarray(design_matrix, dtype=float))
    S = _as_cov(noise_cov)
    n, d = A.shape
    if d != prior.dim:
        raise DimensionMismatch(f"design matrix has {d} columns, prior dim {prior.dim}")
    if S.shape[0] != n:
        raise DimensionMismatch(f"noise dimension {S.shape[0]} != {n} rows")
    cross = prior.cov @ A.T
    innovation = A @ prior.cov @ A.T + S
    innovation = 0.5 * (innovation + innovation.T)
    # Without rows S is vacuously nonsingular, and the 0 x 0 innovation is
    # factored as it is.
    noise_nonsingular = np.all(
        np.linalg.eigvalsh(0.5 * (S + S.T)) > 1e-13 * max(np.max(np.abs(S), initial=0.0), 1.0)
    )
    factor = None
    if noise_nonsingular:
        try:
            factor = _spd_factor(innovation)
        except SingularSystem:
            pass
    if factor is None:
        factor = _spd_factor(_add_jitter(innovation))
    gain = scipy.linalg.cho_solve(factor, cross.T).T
    cov = prior.cov - gain @ cross.T
    return gain, 0.5 * (cov + cov.T)


def conjugate_posterior(
    prior: GaussianDensity,
    design_matrix,
    noise_cov,
    observation,
) -> GaussianDensity:
    """Posterior of x given y = A x + noise with Gaussian prior on x,
    through ``linear_gaussian_update``."""
    A = np.atleast_2d(np.asarray(design_matrix, dtype=float))
    y = np.atleast_1d(np.asarray(observation, dtype=float))
    if y.shape[0] != A.shape[0]:
        raise DimensionMismatch(f"observation dimension {y.shape[0]} != {A.shape[0]} rows")
    gain, cov = linear_gaussian_update(prior, A, noise_cov)
    return GaussianDensity(prior.mean + gain @ (y - A @ prior.mean), cov)
