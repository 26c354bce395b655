"""Sequential design of interior source-observation points for the elliptic
boundary-value problem on the unit square.

The latent solution carries a squared-exponential GP prior; an experiment
fixes equispaced boundary-value observations plus m interior points where
the negative Laplacian is observed. Candidates are scored by the
concentration criterion of the resulting posterior on an evaluation grid,
under the grid-weighted L^p loss (p = 2 analytic via the squared-norm pair
reduction; p = inf by seeded Monte Carlo over posterior pair differences).
Since the criterion is a prior expectation, no manufactured source or
boundary data are needed; only the information operator matters.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .criteria import MonteCarloConfig
from .errors import SingularGram
from .gaussian import _psd_factor, derive_rng
from .kernels import (
    NEG_LAPLACIAN,
    POINT,
    NegativeLaplacianEvaluation,
    PointEvaluation,
    SquaredExponential,
    gp_condition,
)

# Candidates x grid points per block of the p = inf scoring kernel; with the
# default 128 pair samples one block buffer is 1 MB.
_CAND_BLOCK = 16
_GRID_BLOCK = 64


def boundary_points(n_boundary: int) -> np.ndarray:
    """n equispaced points on the boundary of the unit square."""
    s = 4.0 * np.arange(n_boundary) / n_boundary
    pts = np.empty((n_boundary, 2))
    for i, v in enumerate(s):
        if v < 1.0:
            pts[i] = (v, 0.0)
        elif v < 2.0:
            pts[i] = (1.0, v - 1.0)
        elif v < 3.0:
            pts[i] = (3.0 - v, 1.0)
        else:
            pts[i] = (0.0, 4.0 - v)
    return pts


@dataclass(frozen=True)
class EllipticDesignProblem:
    """Configuration of the design search.

    eval_grid: G for the G x G cell-centred evaluation grid.
    candidate_grid: C for the C x C strictly interior candidate lattice.
    p: loss exponent, 2 or inf.

    At the default lengthscale 1 the p = 2 greedy design clusters about the
    centre, and this is the exact-arithmetic optimum: in 40-digit arithmetic
    step 1 takes the centre and step 2 a lattice neighbour of it, while the
    best candidate at least 0.15 from the centre scores 1.2 % worse.
    Shorter lengthscales spread the design (min pairwise distance 0.207 at
    lengthscale 0.3). From the sixth step on, the choices at lengthscale 1
    depend on the conditioning jitter scale.
    """

    eval_grid: int = 32
    candidate_grid: int = 25
    n_boundary: int = 32
    p: float = 2.0
    lengthscale: float = 1.0
    amplitude: float = 1.0
    min_separation: float = 1e-6

    def __post_init__(self):
        if self.p not in (2.0, np.inf):
            raise ValueError("p must be 2 or inf")
        if self.eval_grid < 1:
            raise ValueError(f"eval_grid must be >= 1, got {self.eval_grid}")
        if self.candidate_grid < 1:
            raise ValueError(f"candidate_grid must be >= 1, got {self.candidate_grid}")
        if self.n_boundary < 0:
            raise ValueError(f"n_boundary must be >= 0, got {self.n_boundary}")

    @property
    def kernel(self) -> SquaredExponential:
        return SquaredExponential(self.lengthscale, self.amplitude, dim=2)

    @property
    def grid_points(self) -> np.ndarray:
        G = self.eval_grid
        axis = (np.arange(G) + 0.5) / G
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])

    @property
    def grid_weights(self) -> np.ndarray:
        G = self.eval_grid
        return np.full(G * G, 1.0 / (G * G))

    @property
    def candidates(self) -> np.ndarray:
        """Candidate lattice in lexicographic (x, then y) order."""
        C = self.candidate_grid
        axis = np.arange(1, C + 1) / (C + 1)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])

    @property
    def boundary(self) -> np.ndarray:
        return boundary_points(self.n_boundary)


@dataclass
class DesignState:
    """Chosen interior points and the cached grid posterior covariance."""

    points: list = field(default_factory=list)
    grid_cov: np.ndarray | None = None


def _check_separation(problem: EllipticDesignProblem, points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float)) if len(points) else np.zeros((0, 2))
    if pts.shape[0] > 1:
        dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        i, j = np.unravel_index(np.argmin(dists), dists.shape)
        if dists[i, j] < problem.min_separation:
            raise SingularGram(
                f"points {pts[i].tolist()} and {pts[j].tolist()} are closer than "
                f"the minimum separation {problem.min_separation}"
            )
    return pts


def _observations(problem: EllipticDesignProblem, points):
    obs = [PointEvaluation(p) for p in problem.boundary]
    obs += [NegativeLaplacianEvaluation(p) for p in points]
    return obs


def _predictor(problem: EllipticDesignProblem, points):
    return gp_condition(problem.kernel, _observations(problem, points))


def posterior_on_grid(problem: EllipticDesignProblem, points) -> np.ndarray:
    """Posterior covariance of the solution restricted to the evaluation grid."""
    pts = _check_separation(problem, points)
    return _predictor(problem, pts).cov(problem.grid_points)


def _joint_functionals(problem: EllipticDesignProblem, extra_points):
    """Points and codes of [grid values; -Laplacian at extra points]."""
    grid = problem.grid_points
    extra = np.atleast_2d(np.asarray(extra_points, dtype=float))
    codes = np.concatenate(
        [np.full(grid.shape[0], POINT, dtype=np.int64),
         np.full(extra.shape[0], NEG_LAPLACIAN, dtype=np.int64)]
    )
    return np.vstack([grid, extra]), codes


def _joint_cov(problem: EllipticDesignProblem, chosen, extra_points):
    """Posterior covariance over [grid values; -Laplacian at extra points]."""
    pts = _check_separation(problem, chosen)
    predictor = _predictor(problem, pts)
    return predictor.cov_functionals(*_joint_functionals(problem, extra_points))


def _candidate_values(problem, joint, n_grid, cand_idx, weights, cfg, step, threads=1):
    """Criterion value for each candidate functional, given the joint
    covariance over [grid; candidate functionals].

    p = 2: analytic squared-norm pair reduction, 2 * weighted trace of the
    rank-1-updated grid covariance. p = inf: shared posterior pair samples
    (common random numbers across candidates), deterministic given
    (cfg.seed, step).

    The p = inf kernel walks the candidates in blocks of _CAND_BLOCK and the
    grid in blocks of _GRID_BLOCK. Each worker fills one preallocated buffer
    in place with fl(dx - fl(a * v)), takes |.| and the maximum over the grid
    block, and merges it into a running maximum per pair sample; the means
    and standard errors are taken once over all candidates. Each element
    sees the same single product and subtraction as a per-candidate
    ``dx - np.outer(a, v)``, and the maximum is exact in any order, so every
    value and stderr is bit-identical to that loop for any block size and
    thread count. With one pair sample the stderr is 0.
    """
    grid_cov = joint[:n_grid, :n_grid]
    diag = np.diag(grid_cov)
    jitter = 1e-12 * (np.trace(joint) / joint.shape[0] + 1.0)

    if problem.p == 2.0:
        def value_for(c):
            j = n_grid + c
            v = joint[:n_grid, j]
            s = joint[j, j] + jitter
            return 2.0 * float(weights @ (diag - v**2 / s))

        return np.array([value_for(c) for c in cand_idx]), np.zeros(len(cand_idx))

    # p = inf: Z = pair difference of posterior draws after adding the
    # candidate observation; fluctuation trick collapses the y-average.
    rng = derive_rng(cfg.seed, step)
    factor = _psd_factor(joint)
    n_pairs = cfg.n_outer
    draws = rng.standard_normal((2 * n_pairs, joint.shape[0])) @ factor.T
    dx = draws[:n_pairs, :n_grid] - draws[n_pairs:, :n_grid]
    dg = draws[:n_pairs, n_grid:] - draws[n_pairs:, n_grid:]

    cand = np.asarray(cand_idx, dtype=np.int64)
    cols = n_grid + cand
    scales = (dg[:, cand] / (joint[cols, cols] + jitter)).T
    columns = joint[:n_grid, cols].T
    dx_t = np.ascontiguousarray(dx.T)
    maxes = np.empty((len(cols), n_pairs))

    def eval_chunk(chunk):
        buf = np.empty((_CAND_BLOCK, _GRID_BLOCK, n_pairs))
        for start in range(0, len(chunk), _CAND_BLOCK):
            rows = chunk[start:start + _CAND_BLOCK]
            a = scales[rows][:, None, :]
            v = columns[rows][:, :, None]
            running = np.zeros((len(rows), n_pairs))
            for g0 in range(0, n_grid, _GRID_BLOCK):
                g1 = min(g0 + _GRID_BLOCK, n_grid)
                z = buf[:len(rows), :g1 - g0]
                np.multiply(v[:, g0:g1], a, out=z)
                np.subtract(dx_t[g0:g1], z, out=z)
                np.abs(z, out=z)
                np.maximum(running, z.max(axis=1), out=running)
            maxes[rows] = running

    positions = np.arange(len(cols))
    workers = min(threads, len(positions))
    if workers > 1:
        chunks = [positions[i::workers] for i in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(eval_chunk, chunks))
    else:
        eval_chunk(positions)
    values = np.mean(maxes, axis=1)
    if n_pairs == 1:
        return values, np.zeros(len(cols))
    return values, np.std(maxes, axis=1, ddof=1) / np.sqrt(n_pairs)


def bpn_surface(problem: EllipticDesignProblem, state: DesignState, candidate,
                cfg: MonteCarloConfig | None = None) -> float:
    """Criterion value of the design (state's points plus one candidate)."""
    cfg = cfg or MonteCarloConfig()
    candidate = np.asarray(candidate, dtype=float)
    for p in state.points:
        if np.linalg.norm(candidate - np.asarray(p)) < problem.min_separation:
            raise SingularGram("candidate collides with an already chosen point")
    joint = _joint_cov(problem, state.points, candidate[None, :])
    n_grid = problem.grid_points.shape[0]
    values, _ = _candidate_values(
        problem, joint, n_grid, [0], problem.grid_weights, cfg, step=len(state.points)
    )
    return float(values[0])


def design_criterion(problem: EllipticDesignProblem, points,
                     cfg: MonteCarloConfig | None = None):
    """Criterion value (and stderr) of a complete design of interior points."""
    cfg = cfg or MonteCarloConfig()
    cov = posterior_on_grid(problem, points)
    weights = problem.grid_weights
    if problem.p == 2.0:
        return 2.0 * float(weights @ np.diag(cov)), 0.0
    rng = derive_rng(cfg.seed, 10**6)
    factor = _psd_factor(2.0 * cov)
    z = rng.standard_normal((cfg.n_outer, cov.shape[0])) @ factor.T
    vals = np.max(np.abs(z), axis=1)
    stderr = float(np.std(vals, ddof=1) / np.sqrt(cfg.n_outer)) if cfg.n_outer > 1 else 0.0
    return float(np.mean(vals)), stderr


def greedy_design(problem: EllipticDesignProblem, m: int,
                  cfg: MonteCarloConfig | None = None, threads: int = 1):
    """Sequentially add m interior points, each minimising the candidate
    criterion surface.

    The prior covariance over [grid; -Laplacian at every candidate] and its
    cross-covariance with the boundary observations are assembled once; each
    choice appends one column to the cross block, and each step conditions on
    the boundary plus the chosen points through ``cov_from_blocks``.

    Each step takes the first minimum of the computed candidate values
    (``np.argmin``); there is no tie tolerance. Candidates that tie in exact
    arithmetic, such as mirror images under a symmetry of the square, differ
    by roundoff, so the choice among them follows summation order, not
    candidate order.

    Returns (DesignState, contour_grids, criterion_trace) where
    contour_grids[k] is the C x C candidate-value matrix at step k (NaN for
    candidates excluded by collision with already chosen points).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    C = problem.candidate_grid
    if m > C * C:
        raise ValueError(
            f"m = {m} exceeds the {C * C} candidates of candidate_grid {C}"
        )
    cfg = cfg or MonteCarloConfig()
    cands = problem.candidates
    n_grid = problem.grid_points.shape[0]
    weights = problem.grid_weights
    kernel = problem.kernel
    joint_pts, joint_codes = _joint_functionals(problem, cands)
    boundary = problem.boundary
    prior = kernel.cross_cov(joint_pts, joint_codes, joint_pts, joint_codes)
    cross = kernel.cross_cov(joint_pts, joint_codes,
                             boundary, np.full(boundary.shape[0], POINT))
    chosen: list = []
    contours = []
    trace = []
    for step in range(m):
        joint = _predictor(problem, chosen).cov_from_blocks(prior, cross)
        if chosen:
            taken = np.atleast_2d(np.asarray(chosen))
            dists = np.linalg.norm(cands[:, None, :] - taken[None, :, :], axis=-1)
            free = np.flatnonzero(np.min(dists, axis=1) >= problem.min_separation)
        else:
            free = np.arange(cands.shape[0])
        values, _ = _candidate_values(
            problem, joint, n_grid, free, weights, cfg, step, threads
        )
        surface = np.full(cands.shape[0], np.nan)
        surface[free] = values
        best = free[int(np.argmin(values))]
        chosen.append(cands[best].copy())
        cross = np.hstack([cross, kernel.cross_cov(joint_pts, joint_codes,
                                                   cands[best:best + 1], [NEG_LAPLACIAN])])
        contours.append(surface.reshape(C, C))
        trace.append(float(values[np.argmin(values)]))
    grid_cov = _predictor(problem, chosen).cov_from_blocks(
        prior[:n_grid, :n_grid], cross[:n_grid]
    )
    state = DesignState(points=[p.copy() for p in chosen], grid_cov=grid_cov)
    return state, contours, trace


def greedy_trace_design(problem: EllipticDesignProblem, m: int) -> list:
    """A-optimal (weighted-trace) greedy sequence, computed independently of
    the criterion surface via rank-1 posterior updates.

    This is the full-reconditioning oracle for ``greedy_design``: every step
    reassembles and reconditions the joint covariance through ``_joint_cov``.
    """
    cands = problem.candidates
    n_grid = problem.grid_points.shape[0]
    weights = problem.grid_weights
    chosen: list = []
    for _ in range(m):
        joint = _joint_cov(problem, chosen, cands)
        diag = np.diag(joint)[:n_grid]
        jitter = 1e-12 * (np.trace(joint) / joint.shape[0] + 1.0)
        if chosen:
            taken = np.atleast_2d(np.asarray(chosen))
            dists = np.linalg.norm(cands[:, None, :] - taken[None, :, :], axis=-1)
            free = np.flatnonzero(np.min(dists, axis=1) >= problem.min_separation)
        else:
            free = np.arange(cands.shape[0])
        traces = np.array([
            float(weights @ (diag - joint[:n_grid, n_grid + c] ** 2
                             / (joint[n_grid + c, n_grid + c] + jitter)))
            for c in free
        ])
        best = free[int(np.argmin(traces))]
        chosen.append(cands[best].copy())
    return chosen
