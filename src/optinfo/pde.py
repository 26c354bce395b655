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

Each greedy step, at either p, reads the grid variances, the candidate
variances and the grid x candidate posterior covariance from one
``cross_solve`` of the step's predictor against the query functionals;
no step forms a query x query posterior covariance. At p = 2 that is all
the step needs: the criterion is the grid-weighted A-optimal trace, so
each candidate is a rank-1 update scored in closed form.

At p = inf the greedy search samples pathwise (Matheron's rule; Wilson et
al., "Efficiently sampling functions from Gaussian process posteriors",
ICML 2020). It factors the pair-difference prior over [grid; -Laplacian at
every candidate; boundary] once per search and draws one pool of prior pair
differences and observation noise from cfg.seed. Each step maps that pool
to posterior pair differences with one small solve against the step's
Gram, so no step factors a posterior covariance, and the draws depend on
cfg.seed alone, not on the step. ``design_criterion`` samples a fixed
design pathwise too, from a factor of the grid pair-difference prior that
is computed once per process; the dense sampler of the grid posterior that
it replaced is kept in the tests as the independent oracle.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .criteria import MonteCarloConfig, _check_integer, _check_integers, mean_and_stderr
from .errors import FactorizationFailure
from .gaussian import _unit_diagonal_factor, derive_rng
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
# Draws per block of a fixed design's Matheron update: 4 MB of temporaries
# at the default 1024 grid points.
_DRAW_BLOCK = 512


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

    def __post_init__(self):
        if self.p not in (2.0, np.inf):
            raise ValueError("p must be 2 or inf")
        _check_integers(self, {"eval_grid": 1, "candidate_grid": 1, "n_boundary": 0})
        # ``kernel`` is built on use; check its parameters now.
        SquaredExponential(self.lengthscale, self.amplitude, dim=2)

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
    """Chosen interior points."""

    points: list = field(default_factory=list)


def _observations(problem: EllipticDesignProblem, points):
    obs = [PointEvaluation(p) for p in problem.boundary]
    obs += [NegativeLaplacianEvaluation(p) for p in points]
    return obs


def _predictor(problem: EllipticDesignProblem, points):
    """GP conditioned on ``_observations(problem, points)``.

    ``points`` is an empty list, one flat point or a (k, 2) array; any other
    shape raises ValueError. ``gp_condition`` checks the geometry: a
    non-finite point raises ValueError, and two points closer than
    ``kernels.MIN_SEPARATION`` raise SingularGram.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape in ((0,), (2,)):
        pts = pts.reshape(-1, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"design points must form a (k, 2) array, got shape {pts.shape}")
    return gp_condition(problem.kernel, _observations(problem, pts))


@functools.lru_cache(maxsize=1)
def _grid_prior(eval_grid: int, lengthscale: float, amplitude: float) -> np.ndarray:
    """Read-only prior covariance over the evaluation grid; it depends on
    nothing else, so fixed designs on one grid share one assembly."""
    problem = EllipticDesignProblem(eval_grid=eval_grid, lengthscale=lengthscale,
                                    amplitude=amplitude)
    grid = problem.grid_points
    codes = np.full(grid.shape[0], POINT, dtype=np.int64)
    prior = problem.kernel.cross_cov(grid, codes, grid, codes)
    prior.setflags(write=False)
    return prior


def posterior_on_grid(problem: EllipticDesignProblem, points) -> np.ndarray:
    """Posterior covariance of the solution restricted to the evaluation grid.

    The grid x grid prior block comes from a cache of one entry per process,
    keyed by (eval_grid, lengthscale, amplitude) and read-only (8 MB at the
    default 32 x 32 grid) and is passed to ``cov_functionals``, which
    assembles only the grid x observation block. The result equals
    ``_predictor(problem, points).cov(problem.grid_points)`` bit for bit and
    is a fresh writable array.
    """
    grid = problem.grid_points
    prior = _grid_prior(problem.eval_grid, problem.lengthscale, problem.amplitude)
    return _predictor(problem, points).cov_functionals(
        grid, np.full(grid.shape[0], POINT, dtype=np.int64), prior
    )


@functools.lru_cache(maxsize=1)
def _grid_pair_factor(eval_grid: int, lengthscale: float, amplitude: float) -> np.ndarray:
    """Read-only lower-triangular F with F F^T = 2 P_gg + 1e-12 diag(2 P_gg),
    where P_gg is the prior covariance over the evaluation grid: the factor
    of the grid pair-difference prior, by ``_unit_diagonal_factor`` as in
    the search. One entry per process, keyed like ``_grid_prior``; the prior
    is assembled here, so no ``_grid_prior`` entry is kept beside it.

    ``_design_pairs`` needs F triangular, so the eigenvalue-clip fallback of
    ``_unit_diagonal_factor`` raises FactorizationFailure here. The
    Cholesky succeeded on every grid tried: G x G for G up to 48 at
    lengthscales 0.3 to 3, and G up to 32 at lengthscales up to 100.
    """
    problem = EllipticDesignProblem(eval_grid=eval_grid, lengthscale=lengthscale,
                                    amplitude=amplitude)
    grid = problem.grid_points
    codes = np.full(grid.shape[0], POINT, dtype=np.int64)
    cov = problem.kernel.cross_cov(grid, codes, grid, codes)
    cov *= 2.0
    factor = _unit_diagonal_factor(cov)
    if np.any(np.triu(factor, 1)):
        raise FactorizationFailure("the grid pair-difference prior has no Cholesky factor")
    factor.setflags(write=False)
    return factor


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
    return _predictor(problem, chosen).cov_functionals(*_joint_functionals(problem, extra_points))


def _check_design_size(problem: EllipticDesignProblem, m: int):
    """ValueError unless a greedy search can pick m distinct candidates."""
    _check_integer("m", m)
    n = problem.candidate_grid ** 2
    if not 1 <= m <= n:
        raise ValueError(f"m = {m} must be between 1 and the {n} candidates "
                         f"of candidate_grid {problem.candidate_grid}")


@dataclass
class _SearchPrior:
    """What a search keeps across its steps, at either p.

    ``points`` and ``codes`` are the query functionals [grid values;
    -Laplacian at each of ``candidates``]. Of their prior covariance a step
    reads only the diagonal, kept in ``diag``, and the C-contiguous
    candidate x grid block, kept in ``cand_grid``; both are assembled once
    per search. At p = inf, ``pairs`` holds n_pairs prior pair differences
    X - X' over [query functionals; boundary values], and ``noise`` holds
    one standard normal per candidate and boundary observation for each of
    them, column-aligned with ``pairs[:, n_grid:]``. Both are None at p = 2.
    """

    candidates: np.ndarray
    points: np.ndarray
    codes: np.ndarray
    diag: np.ndarray
    cand_grid: np.ndarray
    pairs: np.ndarray | None = None
    noise: np.ndarray | None = None

    @property
    def n_grid(self) -> int:
        return len(self.codes) - len(self.candidates)


def _search_prior(problem: EllipticDesignProblem, candidates,
                  cfg: MonteCarloConfig) -> _SearchPrior:
    """Assemble once what every step of a search reads of the prior over
    [grid; -Laplacian at the candidates]: its diagonal, from the kernel's
    ``diag``, and its candidate x grid block, one ``cross_cov`` call.

    At p = 2 nothing else is assembled. At p = inf the blocks of P over
    [grid; candidates; boundary values] fill one buffer: one ``cross_cov``
    call per block below or on the diagonal, except the kept candidate x
    grid block, and their transposes above it. 2 P, the prior of a pair
    difference X - X', is factored in that buffer as F F^T up to a
    relative jitter of 1e-12: a Cholesky factor of the unit-diagonal form
    (``_unit_diagonal_factor``). An additive jitter scaled by the mean
    diagonal, as in ``_psd_factor``, would give every observed value extra
    variance of the size of the GP nugget, which K^-1 then amplifies. The
    pool is drawn from ``derive_rng(cfg.seed)``: first cfg.n_outer rows of
    pair differences ``z F^T``, then the observation noise, one standard
    normal per candidate and boundary observation in each row.
    """
    kernel = problem.kernel
    points, codes = _joint_functionals(problem, candidates)
    blocks = [(problem.grid_points, POINT), (candidates, NEG_LAPLACIAN)]

    def block(i, j):
        (pts_a, code_a), (pts_b, code_b) = blocks[i], blocks[j]
        return kernel.cross_cov(pts_a, np.full(len(pts_a), code_a),
                                pts_b, np.full(len(pts_b), code_b))

    diag = np.concatenate([kernel.diag(pts, code) for pts, code in blocks])
    search = _SearchPrior(candidates, points, codes, diag, block(1, 0))
    if problem.p == 2.0:
        return search
    blocks.append((problem.boundary, POINT))
    ends = np.cumsum([len(pts) for pts, _ in blocks])
    cov = np.empty((ends[-1], ends[-1]))
    for i in range(len(blocks)):
        rows = slice(ends[i] - len(blocks[i][0]), ends[i])
        for j in range(i + 1):
            cols = slice(ends[j] - len(blocks[j][0]), ends[j])
            cov[rows, cols] = search.cand_grid if (i, j) == (1, 0) else block(i, j)
            if j < i:
                cov[cols, rows] = cov[rows, cols].T
    cov *= 2.0
    factor = _unit_diagonal_factor(cov)
    rng = derive_rng(cfg.seed)
    search.pairs = rng.standard_normal((cfg.n_outer, factor.shape[0])) @ factor.T
    search.noise = rng.standard_normal((cfg.n_outer, factor.shape[0] - search.n_grid))
    return search


def _matheron(draws, observed, noise, nugget: float, solved) -> np.ndarray:
    """Matheron's rule for pair differences, ``draws - (observed + sqrt(2
    nugget) noise) @ solved``: prior pair draws D_q at the query
    functionals, the same draws D_o at the observations, one standard
    normal per observation and draw, the predictor's total nugget, and
    K^-1 C_oq from ``predictor.cross_solve``. The difference is written into
    the product's buffer, so ``draws`` is left as it is and no other
    (draws x queries) array is allocated."""
    out = (observed + np.sqrt(2.0 * nugget) * noise) @ solved
    return np.subtract(draws, out, out=out)


def _pathwise_pairs(search: _SearchPrior, predictor, chosen, solved) -> np.ndarray:
    """Posterior pair differences over the query functionals by Matheron's
    rule (``_matheron``): ``D_q - (D_o + sqrt(2 nugget) eps_o) K^-1 C_oq``
    for each pool row.

    The observations o are the predictor's, in the order of
    ``_observations``: the boundary values, then -Laplacian at the
    candidates indexed by ``chosen``. ``solved`` is K^-1 C_oq from
    ``predictor.cross_solve``. The map is linear in the pool, and with pool
    rows drawn from N(0, 2 P) it has twice the posterior covariance that the
    predictor's factor and total nugget give.
    """
    n_grid, n_q = search.n_grid, len(search.codes)
    obs = np.concatenate([np.arange(n_q, search.pairs.shape[1]),
                          n_grid + np.asarray(chosen, dtype=np.int64)])
    return _matheron(search.pairs[:, :n_q], search.pairs[:, obs],
                     search.noise[:, obs - n_grid], predictor.nugget, solved)


def _candidate_values(problem, search: _SearchPrior, predictor, chosen, free, threads=1):
    """Criterion value and stderr of each free candidate (indices into
    ``search.candidates``) added to the predictor's observations, which are
    the boundary and the ``chosen`` candidates.

    Both criteria read the step from the search's prior diagonal and
    candidate x grid block and the two blocks of ``predictor.cross_solve``:
    the query variances, the grid x candidate posterior covariance and the
    candidate variances, which get a scoring jitter of 1e-12 (mean query
    variance + 1). No query x query covariance, prior or posterior, is
    formed. Only the scoring differs:

    p = 2: analytic squared-norm pair reduction, 2 * weighted trace of the
    rank-1-updated grid covariance; the stderr is 0.

    p = inf: the pool's prior pair draws become posterior ones through
    ``_pathwise_pairs``, so every candidate and every step shares one set of
    random numbers, fixed by the seed of the pool, and ``_pinf_values``
    scores each candidate.
    """
    n_grid = search.n_grid
    cross, solved = predictor.cross_solve(search.points, search.codes)
    var = search.diag - np.einsum("ij,ji->i", cross, solved)
    free = np.asarray(free, dtype=np.int64)
    cols = n_grid + free
    columns = search.cand_grid[free] - solved[:, cols].T @ cross[:n_grid].T
    variances = var[cols] + 1e-12 * (np.mean(var) + 1.0)
    if problem.p == 2.0:
        weights = problem.grid_weights
        values = 2.0 * (weights @ var[:n_grid] - (columns**2 @ weights) / variances)
        return values, np.zeros(len(free))
    pairs = _pathwise_pairs(search, predictor, chosen, solved)
    return _pinf_values(pairs[:, :n_grid], pairs[:, cols], columns, variances, threads)


def _pinf_values(dx, dg, columns, variances, threads=1):
    """Mean and stderr over the pair draws of max_g |dx - (dg_c / s_c) v_c|
    for each candidate c: the grid pair difference once c is observed.

    dx: (n_pairs, n_grid) posterior pair differences on the grid; dg:
    (n_pairs, n_cand) the same at the candidate functionals; columns:
    (n_cand, n_grid) their posterior covariance with the grid, v_c;
    variances: (n_cand,) their jittered posterior variances, s_c.

    The kernel walks the candidates in blocks of _CAND_BLOCK and the grid in
    blocks of _GRID_BLOCK. Each worker fills one preallocated buffer in
    place with fl(dx - fl(a * v)), takes |.| and the maximum over the grid
    block, and merges it into a running maximum per pair sample; the means
    and standard errors are taken once over all candidates. Each element
    sees the same single product and subtraction as a per-candidate
    ``dx - np.outer(a, v)``, and the maximum is exact in any order, so every
    value and stderr is bit-identical to that loop for any block size and
    thread count. With one pair sample the stderr is 0.
    """
    n_pairs, n_grid = dx.shape
    scales = (dg / variances).T
    dx_t = np.ascontiguousarray(dx.T)
    maxes = np.empty((len(variances), n_pairs))

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

    positions = np.arange(len(variances))
    workers = min(threads, len(positions))
    if workers > 1:
        chunks = [positions[i::workers] for i in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(eval_chunk, chunks))
    else:
        eval_chunk(positions)
    return mean_and_stderr(maxes)


def _design_pairs(problem: EllipticDesignProblem, predictor, z, z_obs, noise) -> np.ndarray:
    """Posterior pair differences X - X' on the grid of a fixed design, one
    row per row of standard normals: z (n, n_grid), z_obs and noise (n,
    n_obs), for the n_obs observations of ``predictor``.

    The prior pair differences over [grid; observations] are drawn through
    the lower-triangular factor of 2 P over that joint, whose grid block is
    the cached F (``_grid_pair_factor``). Its observation rows are L_og^T
    with L_og = F^-1 2 P_go, one triangular solve, and the n_obs x n_obs
    Schur complement 2 P_oo - L_og^T L_og is factored by ``eigh`` with its
    eigenvalues clipped at 0. The draws become posterior ones by
    ``_matheron`` through the predictor's ``cross_solve`` and nugget, so no
    matrix larger than n_obs x n_obs is factored here. Without observations
    the prior pair draws are returned.

    The grid draws z F^T are formed in place, by a triangular multiply into
    the buffer of a C-contiguous z, which is overwritten and returned; Matheron's
    rule then rewrites it _DRAW_BLOCK rows at a time. So beyond z the map
    allocates only (n, n_obs) and (_DRAW_BLOCK, n_grid) arrays.
    """
    # Imported on first use: scipy is slow to import and most runs never need it.
    import scipy.linalg

    factor = _grid_pair_factor(problem.eval_grid, problem.lengthscale, problem.amplitude)
    observed = None
    if predictor.observations:
        grid = problem.grid_points
        cross, solved = predictor.cross_solve(grid, np.full(grid.shape[0], POINT, dtype=np.int64))
        l_og = scipy.linalg.solve_triangular(factor, 2.0 * cross, lower=True)
        obs_pts = np.vstack([o.location for o in predictor.observations])
        obs_codes = np.array([o.code for o in predictor.observations], dtype=np.int64)
        schur = 2.0 * problem.kernel.cross_cov(obs_pts, obs_codes, obs_pts, obs_codes)
        w, v = np.linalg.eigh(schur - l_og.T @ l_og)
        observed = z @ l_og + z_obs @ (v * np.sqrt(np.clip(w, 0.0, None))).T
    draws = scipy.linalg.blas.dtrmm(1.0, factor.T, z.T, lower=0, trans_a=1, overwrite_b=1).T
    if observed is not None:
        for start in range(0, len(draws), _DRAW_BLOCK):
            rows = slice(start, start + _DRAW_BLOCK)
            draws[rows] = _matheron(draws[rows], observed[rows], noise[rows],
                                    predictor.nugget, solved)
    return draws


def design_criterion(problem: EllipticDesignProblem, points,
                     cfg: MonteCarloConfig | None = None):
    """Criterion value (and stderr) of a complete design of interior points.

    p = 2: twice the weighted trace of the grid posterior covariance, read
    from the posterior variances alone (``ConditionedPredictor.var``); no
    grid x grid block is assembled, and the stderr is 0. p = inf: the mean
    over cfg.n_outer seeded pair differences of the largest absolute grid
    value, sampled pathwise (``_design_pairs``) from the grid
    pair-difference factor that is computed once per process. Once that
    factor is cached, no grid x grid block is assembled or factored. The
    normals come from ``derive_rng(cfg.seed, 10**6)`` in this order: the
    (n_outer, n_grid) grid normals, then one normal per observation in each
    draw, then the observation noise, one normal per observation in each
    draw.

    The dense sampler that this replaced, which factors each grid posterior
    from ``posterior_on_grid``, shares no sampling code with it or with the
    greedy search; it is kept in the tests (``dense_design_criterion`` in
    tests/test_pde.py) as the independent oracle of this estimator.
    """
    cfg = cfg or MonteCarloConfig()
    weights = problem.grid_weights
    predictor = _predictor(problem, points)
    if problem.p == 2.0:
        var = predictor.var(problem.grid_points)
        return 2.0 * float(weights @ var), 0.0
    n_obs = len(predictor.observations)
    rng = derive_rng(cfg.seed, 10**6)
    z = rng.standard_normal((cfg.n_outer, len(weights)))
    z_obs = rng.standard_normal((cfg.n_outer, n_obs))
    noise = rng.standard_normal((cfg.n_outer, n_obs))
    pairs = _design_pairs(problem, predictor, z, z_obs, noise)
    np.abs(pairs, out=pairs)
    value, stderr = mean_and_stderr(pairs.max(axis=1))
    return float(value), float(stderr)


def greedy_design(problem: EllipticDesignProblem, m: int,
                  cfg: MonteCarloConfig | None = None, threads: int = 1):
    """Sequentially add m interior points, each minimising the candidate
    criterion surface.

    Of the prior covariance over [grid; -Laplacian at every candidate],
    ``_search_prior`` assembles the diagonal and the candidate x grid block
    once; at p = 2 nothing more. Each step conditions on the boundary plus
    the chosen points with one ``ConditionedPredictor``, which assembles the
    block against its own observations, and scores every free candidate,
    the sorted candidate indices not yet picked, through one body,
    ``_candidate_values``, from that predictor's ``cross_solve``; the two
    criteria differ only in the final scoring. At p = inf the prior over
    [grid; candidates; boundary] is assembled and factored once per search,
    one pool of pair draws is taken from cfg.seed, and each step maps that
    pool to posterior pair draws (``_pathwise_pairs``). The draws are
    therefore deterministic given cfg.seed alone, the same at every step.

    Each step takes the first minimum of the computed candidate values
    (``np.argmin``); there is no tie tolerance. Candidates that tie in exact
    arithmetic, such as mirror images under a symmetry of the square, differ
    by roundoff, so the choice among them follows summation order, not
    candidate order.

    Returns (DesignState, contour_grids, criterion_trace) where
    contour_grids[k] is the C x C candidate-value matrix at step k (NaN at
    the candidates already picked).
    """
    _check_design_size(problem, m)
    _check_integer("threads", threads, 1)
    C = problem.candidate_grid
    cfg = cfg or MonteCarloConfig()
    cands = problem.candidates
    search = _search_prior(problem, cands, cfg)
    picked: list = []
    contours = []
    trace = []
    for _ in range(m):
        free = np.setdiff1d(np.arange(len(cands)), picked)
        values = _candidate_values(
            problem, search, _predictor(problem, cands[picked]), picked, free, threads
        )[0]
        best = int(np.argmin(values))
        surface = np.full(len(cands), np.nan)
        surface[free] = values
        contours.append(surface.reshape(C, C))
        picked.append(int(free[best]))
        trace.append(float(values[best]))
    return DesignState(points=list(cands[picked])), contours, trace


def greedy_trace_design(problem: EllipticDesignProblem, m: int) -> list:
    """A-optimal (weighted-trace) greedy sequence, computed independently of
    the criterion surface via rank-1 posterior updates.

    This is the full-reconditioning oracle for ``greedy_design``: every step
    reassembles and reconditions the joint covariance through ``_joint_cov``.
    """
    _check_design_size(problem, m)
    cands = problem.candidates
    n_grid = problem.grid_points.shape[0]
    weights = problem.grid_weights
    picked: list = []
    for _ in range(m):
        joint = _joint_cov(problem, cands[picked], cands)
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
