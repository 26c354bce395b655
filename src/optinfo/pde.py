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
ICML 2020). It draws one pool of prior pair differences over [grid;
-Laplacian at every candidate; boundary] and of observation noise from
cfg.seed. Each step maps that pool to posterior pair differences with one
small solve against the step's Gram, so no step factors a posterior
covariance, and the draws depend on cfg.seed alone, not on the step.
``_pinf_values`` takes the grid maxima of a block of candidates in one
fused, exact pass, scipy's Chebyshev ``cdist``, so only the p = inf search
loads scipy.spatial. ``design_criterion`` samples a fixed design
pathwise too. Both draw prior pairs through one map, ``_prior_pairs``,
from a grid factor computed once per process, ``_DRAW_BLOCK`` rows at a
time by one stream rule (``_normal_blocks``).

The dense references that check these paths, the full-reconditioning
greedy trace search, the dense joint posterior over [grid; candidates] and
the dense sampler of the grid posterior, live in tests/reference_impls.py.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .criteria import MonteCarloConfig, _check_integer, _check_integers, mean_and_stderr
from .errors import SamplerFailure
from .gaussian import _unit_diagonal_factor, derive_rng
from .kernels import (
    NEG_LAPLACIAN,
    POINT,
    NegativeLaplacianEvaluation,
    PointEvaluation,
    SquaredExponential,
    gp_condition,
)

# Candidates per block of the p = inf scoring kernel (512 KB at 1024 grid
# points). The kernel of a default seed-0 search on 2 cores, at blocks of
# 32 / 64 / 128, took a median 0.92 / 0.98 / 1.20 s with 1 thread (32 and
# 64 within each other's quartiles) and 1.00 / 0.70 / 0.83 s with 2.
_CAND_BLOCK = 64
# Draws per block of the pathwise prior sampler, for a fixed design and for
# the search's pool: two 4 MB blocks at the default 1024 grid points.
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
def _grid_pair_factor(eval_grid: int, lengthscale: float, amplitude: float) -> np.ndarray:
    """Read-only lower-triangular F with F F^T = 2 P_gg + 1e-12 diag(2 P_gg),
    where P_gg is the prior covariance over the evaluation grid: the factor
    of the grid pair-difference prior, by ``_unit_diagonal_factor``. One
    entry per process, keyed by (eval_grid, lengthscale, amplitude); the
    grid prior is assembled and factored in one buffer, which becomes F.
    This is the only prior that a search or a fixed design factors.

    A grid prior whose unit-diagonal form has no Cholesky factor raises
    FactorizationFailure. The Cholesky succeeded on every grid tried: G x G
    for G up to 48 at lengthscales 0.3 to 3, and G up to 32 at lengthscales
    up to 100.
    """
    problem = EllipticDesignProblem(eval_grid=eval_grid, lengthscale=lengthscale,
                                    amplitude=amplitude)
    grid = problem.grid_points
    codes = np.full(grid.shape[0], POINT, dtype=np.int64)
    cov = problem.kernel.cross_cov(grid, codes, grid, codes)
    cov *= 2.0
    factor = _unit_diagonal_factor(cov)
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

    At p = 2 nothing else is assembled. At p = inf the pool is drawn
    through the fixed-design map ``_prior_pairs`` over the functionals
    [-Laplacian at the candidates; boundary values]: the search factors
    only the cached grid prior, assembles besides only the boundary x grid
    block and the functionals' own block, and forms nothing of size
    (grid + candidates + boundary)^2. The pool, with the columns [grid;
    candidates; boundary], and the noise are preallocated and filled
    ``_DRAW_BLOCK`` rows at a time from ``_normal_blocks`` with the streams
    ``derive_rng(cfg.seed)`` and ``derive_rng(cfg.seed, 1)``.
    """
    kernel = problem.kernel
    grid = problem.grid_points
    points, codes = _joint_functionals(problem, candidates)
    grid_codes = np.full(len(grid), POINT, dtype=np.int64)
    cand_codes = np.full(len(candidates), NEG_LAPLACIAN, dtype=np.int64)
    diag = np.concatenate([kernel.diag(grid, POINT), kernel.diag(candidates, NEG_LAPLACIAN)])
    search = _SearchPrior(candidates, points, codes, diag,
                          kernel.cross_cov(candidates, cand_codes, grid, grid_codes))
    if problem.p == 2.0:
        return search
    bnd = problem.boundary
    bnd_codes = np.full(len(bnd), POINT, dtype=np.int64)
    cross = np.vstack([search.cand_grid, kernel.cross_cov(bnd, bnd_codes, grid, grid_codes)])
    draw = _prior_pairs(problem, cross.T, np.vstack([candidates, bnd]),
                        np.concatenate([cand_codes, bnd_codes]))
    del cross
    n_grid, n_obs = len(grid), len(candidates) + len(bnd)
    search.pairs = np.empty((cfg.n_outer, n_grid + n_obs))
    search.noise = np.empty((cfg.n_outer, n_obs))
    for rows, z, z_obs, noise in _normal_blocks(cfg, n_grid, n_obs):
        search.pairs[rows, :n_grid], search.pairs[rows, n_grid:] = draw(z, z_obs)
        search.noise[rows] = noise
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
    # The prior block minus the reduction, written into the reduction's
    # buffer a block of rows at a time: one (n_free, n_grid) array.
    columns = solved[:, cols].T @ cross[:n_grid].T
    for start in range(0, len(free), _CAND_BLOCK):
        rows = slice(start, start + _CAND_BLOCK)
        np.subtract(search.cand_grid[free[rows]], columns[rows], out=columns[rows])
    variances = var[cols] + 1e-12 * (np.mean(var) + 1.0)
    if problem.p == 2.0:
        weights = problem.grid_weights
        squares = np.square(columns, out=columns)
        values = 2.0 * (weights @ var[:n_grid] - (squares @ weights) / variances)
        return values, np.zeros(len(free))
    pairs = _pathwise_pairs(search, predictor, chosen, solved)
    return _pinf_values(pairs[:, :n_grid], pairs[:, cols], columns, variances, threads)


def _pinf_values(dx, dg, columns, variances, threads=1):
    """Mean and stderr over the pair draws of max_g |dx - (dg_c / s_c) v_c|
    for each candidate c: the grid pair difference once c is observed.

    dx: (n_pairs, n_grid) posterior pair differences on the grid; dg:
    (n_pairs, n_cand) the same at the candidate functionals; columns:
    (n_cand, n_grid) their posterior covariance with the grid, v_c;
    variances: (n_cand,) their jittered posterior variances, s_c. A
    non-finite input or scale a_c = dg_c / s_c raises SamplerFailure.

    Per block of _CAND_BLOCK candidates and per pair sample, one multiply
    writes fl(a_c v_c) into a block buffer, and one Chebyshev ``cdist``,
    which skips NaN, fuses the subtract, |.| and max over the grid. Each
    worker takes a contiguous run of blocks. For its loop it sets numpy's
    ufunc buffer, 8192 elements by default, to the grid row length rounded
    down to a multiple of 16 (numpy's granularity; at least 16), and then
    restores it. A buffer longer than a row makes numpy stretch the inner
    loop across rows and copy the broadcast scale column into the buffer:
    at 1024 grid points the multiply costs about 1.4 ns per element with
    the default and 0.5 ns with a row-length buffer, near the 0.4 ns of a
    scalar multiply, for the same products. The setting is per thread, so the
    caller's value never changes. Every element sees the one
    product and subtraction of a per-candidate ``dx - np.outer(a, v)``, the
    max is exact in any order, and the maxima are C-contiguous (n_cand,
    n_pairs), so the mean and stderr sum in that loop's order: they are
    bit-identical to it for any block size and thread count, and the
    stderr is 0 with one pair sample.
    """
    # Imported on first use: only the p = inf search needs it.
    from scipy.spatial.distance import cdist

    scales = dg / variances
    if not all(np.isfinite(x).all() for x in (dx, dg, columns, variances, scales)):
        raise SamplerFailure("non-finite input to the p = inf scoring kernel")
    maxes = np.empty(scales.shape)

    def eval_blocks(starts):
        buf = np.empty((_CAND_BLOCK, dx.shape[1]))
        # Restored by hand: leaving np.errstate restores it only on numpy >= 2.
        old = np.setbufsize(max(16, dx.shape[1] // 16 * 16))
        try:
            for c0 in starts:
                block = slice(c0, c0 + _CAND_BLOCK)
                v = columns[block]
                y = buf[:len(v)]
                for s in range(len(dx)):
                    np.multiply(v, scales[s, block, None], out=y)
                    cdist(dx[s:s + 1], y, "chebyshev", out=maxes[s:s + 1, block])
        finally:
            np.setbufsize(old)

    starts = np.arange(0, maxes.shape[1], _CAND_BLOCK)
    workers = min(threads, len(starts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(eval_blocks, np.array_split(starts, workers)))
    else:
        eval_blocks(starts)
    return mean_and_stderr(np.ascontiguousarray(maxes.T))


def _prior_pairs(problem: EllipticDesignProblem, cross, points, codes):
    """The map from standard normals to prior pair differences X - X' over
    [grid; functionals], for the n_obs functionals given by ``points`` and
    ``codes`` and their (n_grid, n_obs) prior covariance ``cross`` with the
    grid values: ``draw(z, z_obs)`` gives the grid pairs (n, n_grid) and
    the functionals' pairs (n, n_obs), one row per row of z (n, n_grid) and
    z_obs (n, n_obs). What the map reads is computed here, once.

    The draws are taken through the lower-triangular factor of 2 P over the
    joint, whose grid block is the cached F (``_grid_pair_factor``). Its
    functional rows are L_og^T with L_og = F^-1 2 P_go, one triangular
    solve, and the n_obs x n_obs Schur complement 2 P_oo - L_og^T L_og is
    factored by ``eigh`` with its eigenvalues clipped at 0; P_oo is one
    ``cross_cov`` call. So no matrix larger than n_obs x n_obs is factored
    here, and none, once F is cached, that spans the grid.

    The solve, L_og^T L_og (``dsyrk``, into the lower triangle that ``eigh``
    reads) and ``eigh`` (``dsyevd``, as in ``np.linalg.eigh``) run in
    scipy's OpenBLAS, not numpy's: a numpy call right after a scipy call
    shares the cores with scipy's spinning threads (on 2 cores the default
    search's 657 x 657 ``np.linalg.eigh`` took 120 ms instead of 65 ms).

    The grid draws z F^T are formed in place, by a triangular multiply into
    the buffer of a C-contiguous z, which is overwritten and returned; the
    functionals' draws z L_og + z_obs R^T are taken first, into one new
    (n, n_obs) array.
    """
    # Imported on first use: scipy is slow to import and most runs never need it.
    import scipy.linalg

    factor = _grid_pair_factor(problem.eval_grid, problem.lengthscale, problem.amplitude)
    l_og = scipy.linalg.solve_triangular(factor, 2.0 * cross, lower=True, overwrite_b=True)
    schur = 2.0 * problem.kernel.cross_cov(points, codes, points, codes)
    if len(codes):  # dsyrk rejects an empty product
        schur -= scipy.linalg.blas.dsyrk(1.0, l_og, trans=1, lower=1)
    w, v = scipy.linalg.eigh(schur, driver="evd")
    root = v * np.sqrt(np.clip(w, 0.0, None))

    def draw(z, z_obs):
        observed = z @ l_og + z_obs @ root.T
        grid = scipy.linalg.blas.dtrmm(1.0, factor.T, z.T, lower=0, trans_a=1,
                                       overwrite_b=1).T
        return grid, observed

    return draw


def _normal_blocks(cfg: MonteCarloConfig, n_grid: int, n_obs: int, *stream: int):
    """Yield (rows, z, z_obs, noise) for cfg.n_outer draws, ``_DRAW_BLOCK``
    at a time: (n, n_grid) grid normals from ``derive_rng(cfg.seed,
    *stream)``, row by row, and from ``derive_rng(cfg.seed, *stream, 1)``,
    per draw, n_obs functional normals then n_obs noise normals, so the
    normals do not depend on the block size."""
    grid_rng, obs_rng = derive_rng(cfg.seed, *stream), derive_rng(cfg.seed, *stream, 1)
    for start in range(0, cfg.n_outer, _DRAW_BLOCK):
        n = min(_DRAW_BLOCK, cfg.n_outer - start)
        z_obs, noise = np.hsplit(obs_rng.standard_normal((n, 2 * n_obs)), 2)
        yield slice(start, start + n), grid_rng.standard_normal((n, n_grid)), z_obs, noise


def _design_pairs(problem: EllipticDesignProblem, predictor):
    """The map from standard normals to posterior pair differences X - X'
    on the grid of a fixed design: ``pairs(z, z_obs, noise)`` gives one row
    per row of z (n, n_grid), z_obs and noise (n, n_obs), for the n_obs
    observations of ``predictor``. ``_prior_pairs`` draws the prior pairs
    over [grid; observations], writing the grid pairs over z, and
    ``_matheron`` makes them posterior ones through the predictor's
    ``cross_solve`` against the grid, computed here once, and its nugget.
    Without observations the map gives the prior pair draws.

    Beyond z a call allocates one (n, n_grid) array, Matheron's result,
    and a few (n, n_obs) arrays.
    """
    grid = problem.grid_points
    cross, solved = predictor.cross_solve(grid, np.full(grid.shape[0], POINT, dtype=np.int64))
    draw = _prior_pairs(problem, cross, predictor.points, predictor.codes)

    def pairs(z, z_obs, noise):
        prior, observed = draw(z, z_obs)
        return _matheron(prior, observed, noise, predictor.nugget, solved)

    return pairs


def design_criterion(problem: EllipticDesignProblem, points,
                     cfg: MonteCarloConfig | None = None):
    """Criterion value (and stderr) of a complete design of interior points.

    p = 2: twice the weighted trace of the grid posterior covariance, read
    from the posterior variances alone (``ConditionedPredictor.var``); no
    grid x grid block is assembled, and the stderr is 0. p = inf: the mean
    over cfg.n_outer seeded pair differences of the largest absolute grid
    value, sampled pathwise (``_design_pairs``) from the grid
    pair-difference factor that is computed once per process. Once that
    factor is cached, no grid x grid block is assembled or factored.

    The draws are taken, mapped and reduced to their maxima _DRAW_BLOCK
    rows at a time, so the memory is that of one block for any n_outer.
    The normals follow ``_normal_blocks`` with the streams
    ``derive_rng(cfg.seed, 10**6)`` and ``derive_rng(cfg.seed, 10**6, 1)``.

    The dense sampler that this replaced, which factors each grid posterior
    ``_predictor(problem, points).cov(problem.grid_points)``, shares no
    sampling code with it or with the greedy search; it is kept in the
    tests (``dense_design_criterion`` in tests/reference_impls.py) as the
    independent oracle of this estimator.
    """
    cfg = cfg or MonteCarloConfig()
    weights = problem.grid_weights
    predictor = _predictor(problem, points)
    if problem.p == 2.0:
        var = predictor.var(problem.grid_points)
        return 2.0 * float(weights @ var), 0.0
    pairs = _design_pairs(problem, predictor)
    maxes = np.empty(cfg.n_outer)
    for rows, *normals in _normal_blocks(cfg, len(weights), len(predictor.codes), 10**6):
        block = pairs(*normals)
        maxes[rows] = np.abs(block, out=block).max(axis=1)
        del normals, block  # freed before the next block is drawn
    value, stderr = mean_and_stderr(maxes)
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
    criteria differ only in the final scoring. At p = inf one pool of prior
    pair draws over [grid; candidates; boundary] is taken from cfg.seed
    through the fixed-design sampler's map, which factors only the cached
    grid prior, and each step maps that pool to posterior pair draws
    (``_pathwise_pairs``). The draws are
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
