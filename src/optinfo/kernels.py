"""Covariance kernels, linear observation functionals and GP conditioning.

Two kernels are provided: the Wiener kernel min(t, t') on [0, 1] and the
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

from .errors import SingularGram, UnsupportedFunctional
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
                # r^2 coordinate by coordinate, squared and summed in place:
                # no (n_a, n_b, d) differences, at most two n_a x n_b buffers.
                r2 = None
                for a, b in zip(pts_a[rows].T, pts_b[cols].T):
                    sq = np.subtract.outer(a, b)
                    np.square(sq, out=sq)
                    r2 = sq if r2 is None else np.add(r2, sq, out=r2)
                del sq  # frees the last square before _from_r2 allocates
                block = self._from_r2(r2, code_a + code_b, pts_a.shape[1])
                if one_block:
                    return block
                out[np.ix_(rows, cols)] = block
        return out

    def _from_r2(self, r2, s, d):
        """Covariances at squared distances r2 in d dimensions with -Delta
        on s of the two sides; r2 is overwritten.

        The value k = amplitude * exp(-g r^2) goes into one new buffer of
        r2's shape, and the code pair's polynomial in r^2 into r2's own
        buffer, except that -Delta x -Delta needs a third for r^4. The ufunc
        operations are those of the expressions in the comments, in the
        same order, so the values are the same bit for bit. k is not written
        into r2: a kept block in the buffer allocated first lets glibc trim
        the heap above it, and each later greedy step then page-faults its
        temporaries afresh (about 1000 faults a step at default sizes).
        """
        g = self.gamma
        k = np.multiply(-g, r2)
        np.exp(k, out=k)
        k *= self.amplitude
        if s == 1:  # (2 d g - 4 g^2 r^2) k
            poly = np.multiply(4.0 * g**2, r2, out=r2)
            k *= np.subtract(2.0 * d * g, poly, out=poly)
        elif s == 2:  # (16 g^4 r^4 - 16 g^3 (d+2) r^2 + 4 g^2 d (d+2)) k
            poly = np.square(r2)
            poly *= 16.0 * g**4
            poly -= np.multiply(16.0 * g**3 * (d + 2), r2, out=r2)
            poly += 4.0 * g**2 * d * (d + 2)
            k *= poly
        return k

    def diag(self, pts, code=POINT):
        """Prior variances of one functional at each point: ``cross_cov``'s diagonal."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self._from_r2(np.zeros(pts.shape[0]), 2 * code, pts.shape[1])

    def mean(self, pts):
        return np.zeros(np.atleast_2d(np.asarray(pts, dtype=float)).shape[0])


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

    ``points`` (n_obs, dim) and ``codes`` (n_obs,) hold the observations'
    locations and functional codes as arrays, in conditioning order.
    """

    def __init__(self, kernel, observations):
        # Imported on first use: scipy is slow to import and most runs never need it.
        import scipy.linalg

        self.kernel = kernel
        self.observations = tuple(observations)
        pts, codes, values = _split_obs(kernel, observations)
        self.points = pts
        self.codes = codes
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
        return self.kernel.cross_cov(pts, codes, self.points, self.codes)

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

    def cov_functionals(self, points, codes) -> np.ndarray:
        """Posterior covariance ``prior - cross K^-1 cross^T``, symmetrised,
        between linear functionals (points with per-point functional codes).
        The prior and cross blocks are both assembled here.
        """
        pts = self._query(points)
        codes = np.asarray(codes, dtype=np.int64)
        prior = self.kernel.cross_cov(pts, codes, pts, codes)
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
