"""Covariance kernels, linear observation functionals and GP conditioning.

Three kernels are provided: the Wiener kernel min(t, t') on [0, 1], the
Brownian bridge on an interval with pinned endpoint values, and the
squared-exponential kernel amp * exp(-||t - t'||^2 / lengthscale^2) in one
or two dimensions (the only kernel smooth enough to support Laplacian
observations). The SE kernel assembles covariances in blocks of one
functional code per side, from r^2 and one multiplier for the code pair.

``ConditionedPredictor`` is the one conditioning path: it alone knows its
observations, checks their geometry (``_split_obs``), factors the Gram
once and assembles every block against its observations. Callers read
posterior covariances and pathwise draws from the two blocks of
``cross_solve``.

Each kernel has ``diag(pts)``, the prior variances of point values (SE:
``diag(pts, code)``, of either functional), equal bit for bit to the
diagonal of ``cross_cov``.
``ConditionedPredictor.var`` reads only that diagonal and the query-by-
observation block, so a posterior variance costs O(n_query * n_obs) kernel
entries and never assembles the n_query x n_query covariance that ``cov``
returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularGram, UnsupportedFunctional
from .gaussian import DEFAULT_JITTER_SCALE, _add_jitter, _jitter, _spd_factor

# Name of the SE assembly implementation; recorded in benchmark environments.
BACKEND = "numpy"

POINT = 0
NEG_LAPLACIAN = 1

# Two observations of one kind closer than this make the Gram singular.
MIN_SEPARATION = 1e-6


@dataclass(frozen=True)
class PointEvaluation:
    """Observation of x(location)."""

    location: np.ndarray
    value: float = 0.0
    code = POINT

    def __post_init__(self):
        object.__setattr__(self, "location", np.atleast_1d(np.asarray(self.location, dtype=float)))


@dataclass(frozen=True)
class NegativeLaplacianEvaluation:
    """Observation of -Delta x(location); requires a twice-differentiable kernel."""

    location: np.ndarray
    value: float = 0.0
    code = NEG_LAPLACIAN

    def __post_init__(self):
        object.__setattr__(self, "location", np.atleast_1d(np.asarray(self.location, dtype=float)))


class Wiener:
    """Standard Wiener kernel k(t, t') = min(t, t') on [0, 1]."""

    dim = 1
    smooth = False

    def cross_cov(self, pts_a, codes_a, pts_b, codes_b):
        if np.any(np.asarray(codes_a)) or np.any(np.asarray(codes_b)):
            raise UnsupportedFunctional("Wiener kernel is not twice differentiable")
        ta = np.asarray(pts_a, dtype=float).reshape(-1)
        tb = np.asarray(pts_b, dtype=float).reshape(-1)
        return np.minimum.outer(ta, tb)

    def diag(self, pts):
        """Prior variances k(t, t) = t."""
        return np.array(pts, dtype=float).reshape(-1)

    def mean(self, pts):
        return np.zeros(np.asarray(pts, dtype=float).reshape(-1).shape[0])


class BrownianBridge:
    """Wiener process on [left, right] pinned to given endpoint values.

    Covariance (right - t')(t - left) / (right - left) for t <= t'; the mean
    interpolates the pinned values linearly.
    """

    dim = 1
    smooth = False

    def __init__(self, left: float, right: float, left_value: float = 0.0, right_value: float = 0.0):
        if not right > left:
            raise ValueError("require right > left")
        self.left = float(left)
        self.right = float(right)
        self.left_value = float(left_value)
        self.right_value = float(right_value)

    def cross_cov(self, pts_a, codes_a, pts_b, codes_b):
        if np.any(np.asarray(codes_a)) or np.any(np.asarray(codes_b)):
            raise UnsupportedFunctional("Brownian bridge is not twice differentiable")
        ta = np.asarray(pts_a, dtype=float).reshape(-1)
        tb = np.asarray(pts_b, dtype=float).reshape(-1)
        width = self.right - self.left
        lo = np.minimum.outer(ta, tb)
        hi = np.maximum.outer(ta, tb)
        return (self.right - hi) * (lo - self.left) / width

    def diag(self, pts):
        """Prior variances (right - t)(t - left) / (right - left)."""
        t = np.asarray(pts, dtype=float).reshape(-1)
        return (self.right - t) * (t - self.left) / (self.right - self.left)

    def mean(self, pts):
        t = np.asarray(pts, dtype=float).reshape(-1)
        w = (t - self.left) / (self.right - self.left)
        return (1.0 - w) * self.left_value + w * self.right_value


class SquaredExponential:
    """k(t, t') = amplitude * exp(-||t - t'||^2 / lengthscale^2).

    The defaults reproduce the literal exp(-||t - t'||^2).
    """

    smooth = True

    def __init__(self, lengthscale: float = 1.0, amplitude: float = 1.0, dim: int = 2):
        for name, value in (("lengthscale", lengthscale), ("amplitude", amplitude)):
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        self.lengthscale = float(lengthscale)
        self.amplitude = float(amplitude)
        self.dim = int(dim)

    @property
    def gamma(self) -> float:
        return 1.0 / self.lengthscale**2

    def cross_cov(self, pts_a, codes_a, pts_b, codes_b):
        """Cross-covariance matrix between two sets of linear functionals.

        pts_* have shape (n, d); codes_* hold POINT or NEG_LAPLACIAN per row,
        in any order. Each pair of one-code row and column groups is one
        ``_from_r2`` block, returned as it is when it fills the matrix.
        """
        pts_a, pts_b = (np.atleast_2d(np.asarray(p, dtype=float)) for p in (pts_a, pts_b))
        codes_a, codes_b = (np.asarray(c, dtype=np.int64) for c in (codes_a, codes_b))
        groups_a, groups_b = np.unique(codes_a), np.unique(codes_b)
        one_block = len(groups_a) == len(groups_b) == 1
        out = None if one_block else np.empty((len(codes_a), len(codes_b)))
        for code_a in groups_a:
            rows = np.flatnonzero(codes_a == code_a)
            for code_b in groups_b:
                cols = np.flatnonzero(codes_b == code_b)
                # r^2 coordinate by coordinate: no (n_a, n_b, d) differences.
                r2 = sum(np.subtract.outer(a, b) ** 2 for a, b in zip(pts_a[rows].T, pts_b[cols].T))
                block = self._from_r2(r2, code_a + code_b, pts_a.shape[1])
                if one_block:
                    return block
                out[np.ix_(rows, cols)] = block
        return out

    def _from_r2(self, r2, s, d):
        """Covariances at squared distances r2 in d dimensions with -Delta on s of the two sides."""
        g = self.gamma
        k = np.exp(-g * r2)
        k *= self.amplitude
        if s == 1:  # (2 d g - 4 g^2 r^2) k
            k *= 2.0 * d * g - 4.0 * g**2 * r2
        elif s == 2:  # (16 g^4 r^4 - 16 g^3 (d+2) r^2 + 4 g^2 d (d+2)) k
            k *= 16.0 * g**4 * r2**2 - 16.0 * g**3 * (d + 2) * r2 + 4.0 * g**2 * d * (d + 2)
        return k

    def diag(self, pts, code=POINT):
        """Prior variances of one functional at each point: ``cross_cov``'s diagonal."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self._from_r2(np.zeros(pts.shape[0]), 2 * code, pts.shape[1])

    def mean(self, pts):
        return np.zeros(np.atleast_2d(np.asarray(pts, dtype=float)).shape[0])


def se_functional_covariances(lengthscale: float, t, t_prime):
    """Evaluate (k, Delta_t k, Delta_t Delta_t' k) for the SE kernel at (t, t').

    Closed forms for k = exp(-gamma r^2), gamma = 1/lengthscale^2, r = ||t - t'||,
    in d = len(t) dimensions:
        Delta_t k           = (4 g^2 r^2 - 2 d g) k
        Delta_t Delta_t' k  = (16 g^4 r^4 - 16 g^3 (d+2) r^2 + 4 g^2 d (d+2)) k
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    t_prime = np.atleast_1d(np.asarray(t_prime, dtype=float))
    d = t.shape[0]
    g = 1.0 / lengthscale**2
    r2 = float(np.sum((t - t_prime) ** 2))
    k = np.exp(-g * r2)
    lap = (4.0 * g**2 * r2 - 2.0 * d * g) * k
    double_lap = (
        16.0 * g**4 * r2**2 - 16.0 * g**3 * (d + 2) * r2 + 4.0 * g**2 * d * (d + 2)
    ) * k
    return k, lap, double_lap


def _split_obs(kernel, observations):
    """Locations, codes and values of the observations, and the one check of
    their geometry: a non-finite location raises ValueError, and two
    observations of one kind closer than MIN_SEPARATION raise SingularGram
    naming both locations. Observations of different kinds may share a
    location."""
    if not observations:
        d = kernel.dim
        return np.zeros((0, d)), np.zeros(0, dtype=np.int64), np.zeros(0)
    pts = np.vstack([np.atleast_1d(o.location) for o in observations])
    codes = np.array([o.code for o in observations], dtype=np.int64)
    values = np.array([o.value for o in observations], dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("observation locations must be finite")
    if np.any(codes == NEG_LAPLACIAN) and not kernel.smooth:
        raise UnsupportedFunctional(
            "Laplacian observations require a twice-differentiable kernel"
        )
    for kind in np.unique(codes):
        sub = pts[codes == kind]
        dists = np.linalg.norm(sub[:, None, :] - sub[None, :, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        i, j = np.unravel_index(np.argmin(dists), dists.shape)
        if dists[i, j] < MIN_SEPARATION:
            raise SingularGram(
                f"observation locations {sub[i].tolist()} and {sub[j].tolist()} "
                f"are closer than MIN_SEPARATION = {MIN_SEPARATION}"
            )
    return pts, codes, values


class ConditionedPredictor:
    """GP posterior predictor: mean and covariance over query points.

    The predictor is the only code that knows its observations: ``mean``,
    ``var`` and ``cov_functionals`` all read the query-by-observation block
    from ``_cross``. The Gram matrix gets its nugget here, in two stages:
    ``jitter`` = DEFAULT_JITTER_SCALE * mean(diag Gram), then
    ``_add_jitter``'s DEFAULT_JITTER_SCALE * (mean diagonal + 1).
    ``nugget`` is the total of both stages, the variance that the factored
    matrix adds to every observation (0 without observations); a pathwise
    draw that conditions through this factor adds noise of that variance
    to its observed values. The Gram is factored once, at construction, by
    ``_spd_factor``, whose 1e12 condition gate on that matrix is the one
    gate. ``_split_obs`` checks the geometry: a non-finite location raises
    ValueError and same-kind observations closer than MIN_SEPARATION raise
    SingularGram; a Gram that fails the gate or its Cholesky factorisation
    raises SingularSystem (numerics).
    """

    def __init__(self, kernel, observations):
        # Imported on first use: scipy is slow to import and most runs never need it.
        import scipy.linalg

        self.kernel = kernel
        self.observations = tuple(observations)
        pts, codes, values = _split_obs(kernel, observations)
        self._obs_pts = pts
        self._obs_codes = codes
        if pts.shape[0] == 0:
            self._weights = np.zeros(0)
            self._factor = None
            self.jitter = self.nugget = 0.0
            return
        gram = kernel.cross_cov(pts, codes, pts, codes)
        self.jitter = float(DEFAULT_JITTER_SCALE * np.trace(gram) / gram.shape[0])
        np.fill_diagonal(gram, np.diagonal(gram) + self.jitter)
        self.nugget = self.jitter + float(_jitter(gram))
        self._factor = _spd_factor(_add_jitter(gram))
        prior_mean = kernel.mean(pts)
        self._weights = scipy.linalg.cho_solve(self._factor, values - prior_mean)

    def _query(self, points):
        pts = np.asarray(points, dtype=float)
        if self.kernel.dim == 1:
            pts = pts.reshape(-1, 1)
        else:
            pts = np.atleast_2d(pts)
        return pts

    def _cross(self, pts, codes):
        """Prior covariance of the query functionals with the observations,
        one column per observation in conditioning order."""
        return self.kernel.cross_cov(pts, codes, self._obs_pts, self._obs_codes)

    def cross_solve(self, points, codes):
        """``(cross, K^-1 cross^T)`` for linear functionals (points with
        per-point functional codes): their prior covariance with the
        observations, n x n_obs, and its solve against the factored Gram,
        n_obs x n. Posterior covariances and pathwise draws are read from
        these two blocks: a covariance block is ``prior - cross_a @
        solved_b``, and a pathwise draw is ``prior draw - (observed draw +
        noise) @ solved`` with noise of variance ``nugget``. Without
        observations both have zero width.
        """
        # Imported on first use: scipy is slow to import and most runs never need it.
        import scipy.linalg

        pts = self._query(points)
        codes = np.asarray(codes, dtype=np.int64)
        if self._factor is None:
            return np.zeros((len(codes), 0)), np.zeros((0, len(codes)))
        cross = self._cross(pts, codes)
        return cross, scipy.linalg.cho_solve(self._factor, cross.T)

    def mean(self, points) -> np.ndarray:
        pts = self._query(points)
        base = self.kernel.mean(pts)
        if self._factor is None:
            return base
        return base + self._cross(pts, np.zeros(pts.shape[0], dtype=np.int64)) @ self._weights

    def cov(self, points) -> np.ndarray:
        pts = self._query(points)
        return self.cov_functionals(pts, np.zeros(pts.shape[0], dtype=np.int64))

    def cov_functionals(self, points, codes, prior=None) -> np.ndarray:
        """Posterior covariance ``prior - cross K^-1 cross^T``, symmetrised,
        between linear functionals (points with per-point functional codes).

        ``prior`` is the prior covariance among these functionals. A caller
        that keeps it across several conditionings passes it; otherwise it
        is assembled here. A prior that is not n x n raises
        DimensionMismatch. The cross block is always assembled here.
        """
        pts = self._query(points)
        codes = np.asarray(codes, dtype=np.int64)
        if prior is None:
            prior = self.kernel.cross_cov(pts, codes, pts, codes)
        elif np.shape(prior) != (len(codes), len(codes)):
            raise DimensionMismatch(f"prior is {np.shape(prior)} for {len(codes)} functionals")
        if self._factor is None:
            return 0.5 * (prior + prior.T)
        # The two blocks are freed before the n x n temporaries below.
        reduction = np.matmul(*self.cross_solve(pts, codes))
        out = prior - reduction
        return 0.5 * (out + out.T)

    def var(self, points) -> np.ndarray:
        """Posterior variances at points: ``diag(cov(points))`` without the
        n x n covariance.

        Reads the kernel's prior diagonal and the two blocks of
        ``cross_solve``, and takes ``prior_diag - rowsum(cross *
        solved^T)``. The rowsum adds in another
        order than the matrix product inside ``cov``, so the two agree to
        roundoff, not bit for bit.
        """
        pts = self._query(points)
        prior = self.kernel.diag(pts)
        if self._factor is None:
            return prior
        cross, solved = self.cross_solve(pts, np.zeros(pts.shape[0], dtype=np.int64))
        return prior - np.einsum("ij,ji->i", cross, solved)


def gp_condition(kernel, observations) -> ConditionedPredictor:
    """Condition ``kernel``'s GP on a list of linear observations."""
    return ConditionedPredictor(kernel, observations)
