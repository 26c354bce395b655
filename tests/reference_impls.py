"""Independent reference implementations that the tests check the library
against. None of them is called by the library or the CLI.

- ``se_functional_covariances``: scalar closed forms of the SE kernel and
  its Laplacians, the oracle of ``SquaredExponential.cross_cov``.
- ``joint_cov``: the dense posterior covariance over [grid values;
  -Laplacian at extra points], one ``cov_functionals`` reduction.
- ``greedy_trace_design``: the A-optimal greedy search that reassembles and
  reconditions the dense joint at every step, the oracle of the p = 2
  ``greedy_design``.
- ``dense_design_criterion``: the p = inf fixed-design criterion sampled
  from a factor of each dense grid posterior, the oracle of the pathwise
  ``design_criterion``.
- ``prior_pairs_map``, ``design_pairs_map`` and ``search_pool``: the prior
  pair map from a stacked P_og block, mapped and reduced to its Schur
  complement in whole-array expressions, and the fixed-design map and the
  p = inf search pool drawn through it; the bit-for-bit oracles of the
  in-place ``pde._prior_pairs``. They take the Schur root by the map's
  row-block Gram and ``dpstrf`` call, so they check its layout, not its
  factorisation, which ``TestSchurRoot`` in tests/test_pde.py checks.
- ``Wiener``: the kernel min(t, t') on [0, 1], the 1-D kernel of the
  conditioning tests.
- ``BrownianBridge``: the Wiener process pinned at both ends of an
  interval, the second 1-D kernel of the conditioning tests and the
  closed form of a Wiener posterior between two nodes.
- ``discrete_posterior`` and ``gaussian_posterior``: the posterior of one
  observation of a finite or a linear-Gaussian experiment, read from the
  tables the engines use.

The module is not named ``oracles`` because ``optbench/oracles.py`` is
imported under that name in the same pytest session.
"""

import numpy as np
from scipy.linalg import lapack

from optinfo import pde
from optinfo.criteria import mean_and_stderr
from optinfo.decisions import posterior_table
from optinfo.errors import DimensionMismatch, UnsupportedFunctional
from optinfo.gaussian import GaussianDensity, _psd_factor, derive_rng
from optinfo.kernels import NEG_LAPLACIAN, POINT
from optinfo.pde import (
    EllipticDesignProblem,
    _check_design_size,
    _grid_pair_factor,
    _normal_blocks,
    _predictor,
)


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


def joint_cov(problem: EllipticDesignProblem, chosen, extra_points):
    """Posterior covariance over [grid values; -Laplacian at extra points]."""
    grid = problem.grid_points
    extra = np.atleast_2d(np.asarray(extra_points, dtype=float))
    codes = np.repeat([POINT, NEG_LAPLACIAN], [len(grid), len(extra)])
    return _predictor(problem, chosen).cov_functionals(np.vstack([grid, extra]), codes)


def greedy_trace_design(problem: EllipticDesignProblem, m: int) -> list:
    """A-optimal (weighted-trace) greedy sequence, computed independently of
    the criterion surface via rank-1 posterior updates.

    This is the full-reconditioning oracle for ``greedy_design``: every step
    reassembles and reconditions the joint covariance through ``joint_cov``.
    """
    _check_design_size(problem, m)
    cands = problem.candidates
    n_grid = problem.grid_points.shape[0]
    weights = problem.grid_weights
    picked: list = []
    for _ in range(m):
        joint = joint_cov(problem, cands[picked], cands)
        diag = np.diag(joint)[:n_grid]
        jitter = 1e-12 * (np.trace(joint) / joint.shape[0] + 1.0)
        free = np.setdiff1d(np.arange(len(cands)), picked)
        traces = np.array([
            float(weights @ (diag - joint[:n_grid, n_grid + c] ** 2
                             / (joint[n_grid + c, n_grid + c] + jitter)))
            for c in free
        ])
        picked.append(int(free[int(np.argmin(traces))]))
    return list(cands[picked])


def dense_design_criterion(problem: EllipticDesignProblem, points, cfg):
    """Independent oracle of the p = inf ``design_criterion``: pair
    differences drawn from ``_psd_factor`` of twice the dense grid
    posterior, factored for every design. It shares no sampling code with
    the pathwise estimator."""
    cov = _predictor(problem, points).cov_functionals(problem.grid_points, POINT)
    rng = derive_rng(cfg.seed, 10**6)
    factor = _psd_factor(2.0 * cov)
    z = rng.standard_normal((cfg.n_outer, cov.shape[0])) @ factor.T
    value, stderr = mean_and_stderr(np.max(np.abs(z), axis=1))
    return float(value), float(stderr)


def prior_pairs_map(problem: EllipticDesignProblem, cross, points, codes):
    """``draw(z, z_obs)``, the prior pair map of ``pde._prior_pairs`` for the
    functionals ``points`` and ``codes`` with their (n_grid, n_obs) prior
    covariance ``cross`` with the grid, by the same operations on whole
    arrays: L_og^T formed in one C-ordered copy of ``2 cross`` transposed,
    the map's layout, read as n_obs G x G blocks, every block mapped by one
    matmul, and 2 P_oo assembled in one ``cross_cov`` call. The Gram is subtracted from its lower triangle in
    the map's ``pde._CAND_BLOCK`` row blocks, since a row-block product
    rounds differently from a whole one, and the root is taken by the
    map's ``dpstrf`` call on a copy of the complement, its rows put in
    place by the inverse of the pivot order."""
    G = problem.eval_grid
    u, root = _grid_pair_factor(problem)
    l_go = np.ascontiguousarray(np.asarray_chkfinite(2.0 * cross).T).reshape(-1, G, G)
    l_go = np.matmul(u.T @ l_go, u, out=l_go)
    l_go = np.divide(l_go, root, out=l_go).reshape(len(codes), G * G)
    schur = 2.0 * problem.kernel.cross_cov(points, codes, points, codes)
    for c0 in range(0, len(codes), pde._CAND_BLOCK):
        stop = min(c0 + pde._CAND_BLOCK, len(codes))
        schur[c0:stop, :stop] -= l_go[c0:stop] @ l_go[:stop].T
    factor, piv, rank, _ = lapack.dpstrf(schur.T, lower=0)
    obs_root = np.triu(factor)[:rank].T[np.argsort(piv)]

    def draw(z, z_obs):
        observed = z @ l_go.T + z_obs[:, :rank] @ obs_root.T
        grid = z.reshape(-1, G, G)
        grid *= root
        grid = np.matmul(u, grid @ u.T, out=grid)
        return grid.reshape(len(z), G * G), observed

    return draw


def design_pairs_map(problem: EllipticDesignProblem, predictor):
    """``pairs(z, z_obs, noise)``, the posterior pair map of
    ``pde._design_pairs``: ``prior_pairs_map`` over the predictor's
    observations, then Matheron's rule as one expression."""
    grid = problem.grid_points
    cross, solved = predictor.cross_solve(grid, np.full(len(grid), POINT, dtype=np.int64))
    draw = prior_pairs_map(problem, cross, predictor.points, predictor.codes)

    def pairs(z, z_obs, noise):
        prior, observed = draw(z, z_obs)
        return prior - (observed + np.sqrt(2.0 * predictor.nugget) * noise) @ solved

    return pairs


def search_pool(problem: EllipticDesignProblem, candidates, cfg):
    """(pairs, noise), the p = inf search pool of ``pde._search_prior``: the
    candidate x grid and boundary x grid blocks stacked by ``np.vstack``
    and drawn through ``prior_pairs_map`` with the normals of
    ``pde._normal_blocks``."""
    kernel, grid, bnd = problem.kernel, problem.grid_points, problem.boundary
    grid_codes = np.full(len(grid), POINT, dtype=np.int64)
    cand_codes = np.full(len(candidates), NEG_LAPLACIAN, dtype=np.int64)
    bnd_codes = np.full(len(bnd), POINT, dtype=np.int64)
    cross = np.vstack([kernel.cross_cov(candidates, cand_codes, grid, grid_codes),
                       kernel.cross_cov(bnd, bnd_codes, grid, grid_codes)])
    draw = prior_pairs_map(problem, cross.T, np.vstack([candidates, bnd]),
                           np.concatenate([cand_codes, bnd_codes]))
    n_grid, n_obs = len(grid), len(candidates) + len(bnd)
    pairs = np.empty((cfg.n_outer, n_grid + n_obs))
    noise = np.empty((cfg.n_outer, n_obs))
    for rows, z, z_obs, eps in _normal_blocks(cfg, n_grid, n_obs):
        pairs[rows, :n_grid], pairs[rows, n_grid:] = draw(z, z_obs)
        noise[rows] = eps
    return pairs, noise


class Wiener:
    """Standard Wiener kernel k(t, t') = min(t, t') on [0, 1]."""

    dim = 1

    def cross_cov(self, pts_a, codes_a, pts_b, codes_b):
        if np.any(np.asarray(codes_a)) or np.any(np.asarray(codes_b)):
            raise UnsupportedFunctional("Wiener kernel is not twice differentiable")
        ta = np.asarray(pts_a, dtype=float).reshape(-1)
        tb = np.asarray(pts_b, dtype=float).reshape(-1)
        return np.minimum.outer(ta, tb)

    def diag(self, pts):
        """Prior variances k(t, t) = t."""
        return np.array(pts, dtype=float).reshape(-1)


class BrownianBridge:
    """Wiener process on [left, right] pinned to given endpoint values.

    Covariance (right - t')(t - left) / (right - left) for t <= t'; the mean
    interpolates the pinned values linearly.
    """

    dim = 1

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


def discrete_posterior(problem, e, y: int) -> np.ndarray:
    """Exact Bayes posterior over the states of a ``DiscreteProblem`` given
    observation index y, the row of ``posterior_table``; ValueError if y
    has zero marginal probability."""
    _, marginal, post = posterior_table(problem, e)
    if marginal[y] <= 0.0:
        raise ValueError(f"observation {y} has zero marginal probability under {e!r}")
    return post[y]


def gaussian_posterior(problem, e, y) -> GaussianDensity:
    """Posterior of a ``GaussianLinearProblem`` given observation y of
    experiment e, from its cached ``_posterior_pieces``."""
    gain, base, _ = problem._posterior_pieces(e)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (gain.shape[1],):
        raise DimensionMismatch(f"observation shape {y.shape} != ({gain.shape[1]},)")
    return GaussianDensity(base.mean + gain @ y, base.cov)
