"""Covariance kernel, linear observation functionals and GP conditioning.

A linear functional is a location and a code: ``POINT`` observes x(t) and
``NEG_LAPLACIAN`` observes -Delta x(t). Every entry point names its
functionals the same way (``_functionals``): an (n, dim) location array,
flat for dim 1, and a code per point or one code for all.

A kernel is any object with three members: ``dim``, the dimension of its
locations; ``cross_cov(pts_a, codes_a, pts_b, codes_b)``, the prior
covariance between two sets of functionals; and ``diag(pts)``, the prior
variances of point values, equal bit for bit to the diagonal of
``cross_cov``. ``cross_cov`` is the one place that rejects a functional
the kernel cannot represent, by raising UnsupportedFunctional; a kernel
that is not twice differentiable rejects NEG_LAPLACIAN there.

The kernel provided is the squared-exponential amp * exp(-||t - t'||^2 /
lengthscale^2) in one or two dimensions, twice differentiable, so it
supports Laplacian observations. It assembles covariances in blocks of one
functional code per side, from r^2 and one multiplier for the code pair,
and rejects a code it does not know and points of another dimension. Its
``diag(pts, code)`` takes either functional.

``ConditionedPredictor(kernel, points, codes)`` is the one conditioning
path: it alone knows its observations, checks their geometry
(``_check_geometry``), factors the Gram once and assembles every block
against its observations. Callers read posterior covariances and pathwise
draws from the two blocks of ``cross_solve``. No observed value enters:
for a linear problem with a Gaussian prior the posterior covariance
depends on where and what is observed, not on what is seen. No
observations is the ordinary case of the same path: the Gram is 0 x 0,
every query-by-observation block has zero width, and every posterior
quantity is the prior bit for bit, with queries checked by ``cross_cov``
as ever. ``ConditionedPredictor.var`` reads only the kernel's diagonal
and the query-by-observation block, so a posterior variance costs
O(n_query * n_obs) kernel entries and never assembles the n_query x
n_query covariance that ``cov_functionals`` returns.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularGram, UnsupportedFunctional
from .gaussian import DEFAULT_JITTER_SCALE, _add_jitter, _jitter, _spd_factor

# Name of the SE assembly implementation; recorded in benchmark environments.
BACKEND = "numpy"

POINT = 0
NEG_LAPLACIAN = 1

# Two observations of one kind closer than this make the Gram singular.
MIN_SEPARATION = 1e-6


def _functionals(pts, codes, dim):
    """``pts`` as an (n, dim) float array, ``codes`` as int64, and the
    functionals' (code, rows) groups in sorted code order, rows indexing
    ``pts``. ``codes`` is one code per point, or one code for all of them;
    flat points of a dim-1 kernel are a column, a flat point of a higher
    dim is one row, and an empty flat input is no points for every dim. A
    block of one code is one group whose rows are every point,
    ``slice(None)``. Points that are not one row of dimension dim per code
    raise ValueError, and a code other than POINT and NEG_LAPLACIAN, such
    as 2 or 1.5, raises UnsupportedFunctional."""
    pts = np.asarray(pts, dtype=float)
    flat = pts.ndim < 2 and (dim == 1 or pts.size == 0)
    pts = pts.reshape(-1, dim) if flat else np.atleast_2d(pts)
    codes = np.asarray(codes)
    if codes.ndim > 1 or pts.shape != (codes.size if codes.ndim else len(pts), dim):
        raise ValueError(
            f"need one code per point of an (n, {dim}) array, or one code for "
            f"all, got points of shape {pts.shape} and codes of shape {codes.shape}"
        )
    kinds = np.unique(codes)
    # Checked before the cast, which would truncate 1.5 to NEG_LAPLACIAN.
    if not all(g in (POINT, NEG_LAPLACIAN) for g in kinds.tolist()):
        raise UnsupportedFunctional(
            f"functional codes must be POINT ({POINT}) or NEG_LAPLACIAN "
            f"({NEG_LAPLACIAN}), got {kinds.tolist()}"
        )
    codes, kinds = codes.astype(np.int64, copy=False), kinds.astype(np.int64).tolist()
    if len(kinds) == 1:
        return pts, codes, [(kinds[0], slice(None))]
    return pts, codes, [(kind, np.flatnonzero(codes == kind)) for kind in kinds]


class SquaredExponential:
    """k(t, t') = amplitude * exp(-||t - t'||^2 / lengthscale^2).

    The defaults reproduce the literal exp(-||t - t'||^2).
    """

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

        pts_* have shape (n, dim); codes_* hold POINT or NEG_LAPLACIAN per
        row, in any order, or one code for all rows (``_functionals``).
        Each pair of one-code row and column groups is one ``_from_r2``
        block, returned as it is when it fills the matrix.
        """
        pts_a, _, groups_a = _functionals(pts_a, codes_a, self.dim)
        pts_b, _, groups_b = _functionals(pts_b, codes_b, self.dim)
        one_block = len(groups_a) == len(groups_b) == 1
        if not one_block:
            out = np.empty((len(pts_a), len(pts_b)))
            ids_a, ids_b = np.arange(len(pts_a)), np.arange(len(pts_b))
        for code_a, rows in groups_a:
            for code_b, cols in groups_b:
                # r^2 coordinate by coordinate, squared and summed in place:
                # no (n_a, n_b, d) differences, at most two n_a x n_b buffers.
                r2 = None
                for a, b in zip(pts_a[rows].T, pts_b[cols].T):
                    sq = np.subtract.outer(a, b)
                    np.square(sq, out=sq)
                    r2 = sq if r2 is None else np.add(r2, sq, out=r2)
                del sq  # frees the last square before _from_r2 allocates
                block = self._from_r2(r2, code_a + code_b)
                if one_block:
                    return block
                out[np.ix_(ids_a[rows], ids_b[cols])] = block
        return out

    def _from_r2(self, r2, s):
        """Covariances at squared distances r2 with -Delta on s of the two
        sides; r2 is overwritten.

        The value k = amplitude * exp(-g r^2) goes into one new buffer of
        r2's shape, and the code pair's polynomial in r^2 into r2's own
        buffer, except that -Delta x -Delta needs a third for r^4. The ufunc
        operations are those of the expressions in the comments, in the
        same order, so the values are the same bit for bit. k is not written
        into r2: a kept block in the buffer allocated first lets glibc trim
        the heap above it, and each later greedy step then page-faults its
        temporaries afresh (about 1000 faults a step at default sizes).
        """
        g, d = self.gamma, self.dim
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
        pts, _, ((code, _),) = _functionals(pts, code, self.dim)
        return self._from_r2(np.zeros(len(pts)), 2 * code)


def _check_geometry(pts, groups):
    """The one check of the observations' geometry: a non-finite location
    raises ValueError, and two observations of one kind closer than
    MIN_SEPARATION raise SingularGram naming both locations. Observations
    of different kinds may share a location. Whether the kernel can
    represent the functionals is not checked here: its ``cross_cov``
    rejects those it cannot."""
    if not np.all(np.isfinite(pts)):
        raise ValueError("observation locations must be finite")
    for _, rows in groups:
        sub = pts[rows]
        if len(sub) < 2:  # a block of one code may hold no points
            continue
        dists = np.linalg.norm(sub[:, None, :] - sub[None, :, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        i, j = np.unravel_index(np.argmin(dists), dists.shape)
        if dists[i, j] < MIN_SEPARATION:
            raise SingularGram(
                f"observation locations {sub[i].tolist()} and {sub[j].tolist()} "
                f"are closer than MIN_SEPARATION = {MIN_SEPARATION}"
            )


class ConditionedPredictor:
    """GP posterior covariance over linear functionals, conditioned on
    observing the functionals ``codes`` at ``points``.

    ``points`` (n_obs, kernel.dim) are the observations' locations, in
    conditioning order, and ``codes`` their functional codes, one per
    point or one for all; ``_functionals`` checks their shapes and codes,
    ``_check_geometry`` their geometry (a non-finite location raises
    ValueError and same-kind observations closer than MIN_SEPARATION raise
    SingularGram), and the kernel's ``cross_cov``, which assembles the
    Gram, rejects a functional it cannot represent with
    UnsupportedFunctional. No observed value is needed: the posterior
    covariance does not depend on it.

    The predictor is the only code that knows its observations: ``var``,
    ``cov_functionals`` and pathwise draws all read the query-by-observation
    block from ``cross_solve``, whose ``cross_cov`` checks every query, with
    or without observations. Only the constructor tells the two cases
    apart: the Gram of observations gets its nugget here, in two stages,
    DEFAULT_JITTER_SCALE * mean(diag Gram), then ``_add_jitter``'s
    DEFAULT_JITTER_SCALE * (mean diagonal + 1). ``nugget`` is the total of
    both stages, the variance that the factored matrix adds to every
    observation (0 without observations); a pathwise draw that conditions
    through this factor adds noise of that variance to its observed
    values. The Gram is factored once, at construction, by
    ``_spd_factor``, whose 1e12 condition gate on that matrix is the one
    gate; a Gram that fails the gate or its Cholesky factorisation raises
    SingularSystem (numerics). Without observations the 0 x 0 Gram is
    factored as it is, and every block against it has zero width.
    """

    def __init__(self, kernel, points, codes):
        self.kernel = kernel
        pts, codes, groups = _functionals(points, codes, kernel.dim)
        _check_geometry(pts, groups)
        self.points = pts
        self.codes = codes
        gram = kernel.cross_cov(pts, codes, pts, codes)
        self.nugget = 0.0
        if len(pts):
            jitter = float(DEFAULT_JITTER_SCALE * np.trace(gram) / len(pts))
            np.fill_diagonal(gram, np.diagonal(gram) + jitter)
            self.nugget = jitter + float(_jitter(gram))
            _add_jitter(gram)
        self._factor = _spd_factor(gram)

    def cross_solve(self, points, codes):
        """``(cross, K^-1 cross^T)`` for linear functionals (points with a
        functional code each, or one for all): their prior covariance with the
        observations, n x n_obs, one column per observation in conditioning
        order, and its solve against the factored Gram, n_obs x n.
        Posterior covariances and pathwise draws are read from these two
        blocks: a covariance block is ``prior - cross_a @ solved_b``, a
        pathwise draw is ``prior draw - (observed draw + noise) @ solved``
        with noise of variance ``nugget``, and the posterior mean given
        observed values y is ``y @ solved``. Without observations both have
        zero width. ``cross_cov`` assembles ``cross`` with or without
        observations, so it checks every query.
        """
        # Imported on first use: scipy is slow to import and most runs never need it.
        import scipy.linalg

        pts, codes, _ = _functionals(points, codes, self.kernel.dim)
        cross = self.kernel.cross_cov(pts, codes, self.points, self.codes)
        return cross, scipy.linalg.cho_solve(self._factor, cross.T)

    def cov_functionals(self, points, codes) -> np.ndarray:
        """Posterior covariance ``prior - cross K^-1 cross^T``, symmetrised,
        between linear functionals (points with a functional code each, or
        one for all). The prior and cross blocks are both assembled here.
        Without observations the reduction is zero and the prior is
        returned symmetrised.
        """
        prior = self.kernel.cross_cov(points, codes, points, codes)
        # The two blocks are freed before the n x n temporaries below.
        reduction = np.matmul(*self.cross_solve(points, codes))
        out = prior - reduction
        return 0.5 * (out + out.T)

    def var(self, points) -> np.ndarray:
        """Posterior variances at points: the diagonal of
        ``cov_functionals(points, POINT)`` without the n x n covariance.

        Reads the kernel's prior diagonal and the two blocks of
        ``cross_solve``, and takes ``prior_diag - rowsum(cross *
        solved^T)``. The rowsum adds in another order than the matrix
        product inside ``cov_functionals``, so the two agree to roundoff,
        not bit for bit; without observations both are the prior bit for
        bit.
        """
        prior = self.kernel.diag(points)
        cross, solved = self.cross_solve(points, POINT)
        return prior - np.einsum("ij,ji->i", cross, solved)
