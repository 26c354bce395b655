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

The module is not named ``oracles`` because ``optbench/oracles.py`` is
imported under that name in the same pytest session.
"""

import numpy as np

from optinfo.criteria import mean_and_stderr
from optinfo.gaussian import _psd_factor, derive_rng
from optinfo.pde import (
    EllipticDesignProblem,
    _check_design_size,
    _joint_functionals,
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
    return _predictor(problem, chosen).cov_functionals(*_joint_functionals(problem, extra_points))


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
    cov = _predictor(problem, points).cov(problem.grid_points)
    rng = derive_rng(cfg.seed, 10**6)
    factor = _psd_factor(2.0 * cov)
    z = rng.standard_normal((cfg.n_outer, cov.shape[0])) @ factor.T
    value, stderr = mean_and_stderr(np.max(np.abs(z), axis=1))
    return float(value), float(stderr)
