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
``_DRAW_BLOCK`` rows at a time by one stream rule (``_normal_blocks``).
Its grid factor comes from the G x G kernel matrix over one axis of the
tensor grid (``_grid_pair_factor``), so no sampler assembles or factors a
matrix over grid x grid. The map reads the functionals' covariance with
the grid as row blocks, the search's candidate and boundary blocks,
unstacked, builds its functional rows once in one buffer, and factors
their Schur complement in its own buffer by LAPACK's pivoted Cholesky
``dpstrf``, so its root has as many columns as the complement's numerical
rank (123 of 657 in a default search).

``greedy_design`` and ``design_criterion`` run numpy's and scipy's
OpenBLAS on one thread (``_blas.one_thread``), so their results do not
depend on OPENBLAS_NUM_THREADS or the core count; the p = inf search's
``threads`` argument is the only parallelism.

The dense references that check these paths, the full-reconditioning
greedy trace search, the dense joint posterior over [grid; candidates] and
the dense sampler of the grid posterior, live in tests/reference_impls.py.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._blas import one_thread
from .criteria import MonteCarloConfig, _check_integer, _check_integers, mean_and_stderr
from .errors import SamplerFailure
from .gaussian import derive_rng
from .kernels import NEG_LAPLACIAN, POINT, ConditionedPredictor, SquaredExponential, _functionals

# Candidates per block of the p = inf scoring kernel, and functionals per
# block of the prior map's functional rows and Schur complement
# (``_prior_pairs``): 512 KB at 1024 grid points. The kernel of a default
# seed-0 search on 2 cores, at blocks of 32 / 64 / 128, took a median
# 0.92 / 0.98 / 1.20 s with 1 thread (32 and 64 within each other's
# quartiles) and 1.00 / 0.70 / 0.83 s with 2.
_CAND_BLOCK = 64
# Draws per block of the pathwise prior sampler, for a fixed design and for
# the search's pool: two 4 MB blocks at the default 1024 grid points.
_DRAW_BLOCK = 512
# Relative diagonal jitter of the grid pair-difference factor
# (``_grid_pair_factor``). It stays far below the GP nugget (at least 2e-10
# of the mean Gram diagonal), so pathwise draws of observed functionals
# carry almost no extra variance for K^-1 to amplify.
SAMPLING_JITTER = 1e-12


def _grid_axis(eval_grid: int) -> np.ndarray:
    """The G cell centres of the evaluation grid along one axis."""
    return (np.arange(eval_grid) + 0.5) / eval_grid


def boundary_points(n_boundary: int) -> np.ndarray:
    """n equispaced points on the boundary of the unit square, counter-
    clockwise from the origin: the point at perimeter length s in [0, 4)
    lies on edge floor(s)."""
    s = 4.0 * np.arange(n_boundary) / n_boundary
    edges = [s < 1.0, s < 2.0, s < 3.0]
    x = np.select(edges, [s, 1.0, 3.0 - s], 0.0)
    y = np.select(edges, [0.0, s - 1.0, 1.0], 4.0 - s)
    return np.column_stack([x, y])


@dataclass(frozen=True)
class EllipticDesignProblem:
    """Configuration of the design search.

    eval_grid: G for the G x G cell-centred evaluation grid.
    candidate_grid: C for the C x C strictly interior candidate lattice.
    p: loss exponent, 2 or inf.

    At the default lengthscale 1 the p = 2 greedy design clusters about the
    centre, and each of its steps is the exact-arithmetic optimum of that
    step: in 40-digit arithmetic step 1 takes the centre and step 2 a
    lattice neighbour of it, while the best candidate at least 0.15 from
    the centre scores 1.2 % worse. The 9-point design as a whole is not
    optimal: its criterion is 5.9 times that of a design that no exchange
    of one point for a free candidate improves. Shorter lengthscales spread
    the design (min pairwise distance 0.207 at lengthscale 0.3). From the
    sixth step on, the choices at lengthscale 1 depend on the conditioning
    jitter scale.
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
        axis = _grid_axis(self.eval_grid)
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


def _predictor(problem: EllipticDesignProblem, points):
    """GP conditioned on the boundary values, then -Laplacian at ``points``.

    ``points`` is an empty list, one flat point or a (k, 2) array; any other
    shape raises ValueError (``kernels._functionals``).
    ``ConditionedPredictor`` checks the geometry: a non-finite point raises
    ValueError, and two points closer than ``kernels.MIN_SEPARATION`` raise
    SingularGram.
    """
    pts, _, _ = _functionals(points, NEG_LAPLACIAN, 2)
    bnd = problem.boundary
    codes = np.repeat([POINT, NEG_LAPLACIAN], [len(bnd), len(pts)])
    return ConditionedPredictor(problem.kernel, np.vstack([bnd, pts]), codes)


def _grid_pair_factor(problem: EllipticDesignProblem):
    """(U, root) with F = (U kron U) diag(root.ravel()) a factor of the grid
    pair-difference prior: F F^T = 2 P_gg + SAMPLING_JITTER diag(2 P_gg),
    where P_gg is the prior covariance over the evaluation grid.

    The SE kernel is separable and the grid is a tensor grid, so P_gg is
    amplitude (K1 kron K1) in the "ij" order of ``grid_points``, with K1
    the unit-diagonal G x G kernel matrix over one axis (Gilboa, Saatci &
    Cunningham, IEEE TPAMI 2015). From K1 = U diag(lam) U^T, root[i, j] =
    sqrt(2 amplitude (lam_i lam_j + SAMPLING_JITTER)), with lam clipped at
    0, so every root is positive and F is invertible. The jitter is added to
    each product of eigenvalues, not to each axis: a per-axis jitter d
    leaves only d^2 in the directions where both axes are small, and F^-1
    blows up there. So the only matrix factored is G x G. A factor with a
    non-finite entry raises ValueError.
    """
    axis = _grid_axis(problem.eval_grid)
    k1 = SquaredExponential(problem.lengthscale, dim=1).cross_cov(axis, POINT, axis, POINT)
    lam, u = np.linalg.eigh(k1)
    lam = np.clip(lam, 0.0, None)
    root = np.sqrt(2.0 * problem.amplitude * (np.outer(lam, lam) + SAMPLING_JITTER))
    return np.asarray_chkfinite(u), np.asarray_chkfinite(root)


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
    only the one-axis grid kernel and the functionals' Schur complement,
    assembles besides only the boundary x grid block and the functionals'
    own block, and forms nothing of size (grid + candidates + boundary)^2.
    The map reads the candidate x grid and boundary x grid blocks as they
    are, without stacking them, so while ``dpstrf`` factors the Schur
    complement the only functional x grid blocks live are these two (625
    x 1024 and 32 x 1024 at default sizes) and the map's own L_og^T.
    The pool, with the columns [grid; candidates; boundary], and the noise
    are preallocated and filled ``_DRAW_BLOCK`` rows at a time from
    ``_normal_blocks`` with the streams ``derive_rng(cfg.seed)`` and
    ``derive_rng(cfg.seed, 1)``.
    """
    kernel = problem.kernel
    grid = problem.grid_points
    points = np.vstack([grid, candidates])
    codes = np.repeat([POINT, NEG_LAPLACIAN], [len(grid), len(candidates)])
    diag = np.concatenate([kernel.diag(grid, POINT), kernel.diag(candidates, NEG_LAPLACIAN)])
    search = _SearchPrior(candidates, points, codes, diag,
                          kernel.cross_cov(candidates, NEG_LAPLACIAN, grid, POINT))
    if problem.p == 2.0:
        return search
    bnd = problem.boundary
    bnd_grid = kernel.cross_cov(bnd, POINT, grid, POINT)
    draw = _prior_pairs(problem, (search.cand_grid, bnd_grid), np.vstack([candidates, bnd]),
                        np.repeat([NEG_LAPLACIAN, POINT], [len(candidates), len(bnd)]))
    del bnd_grid  # freed before the pool is drawn
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
    ``_predictor``: the boundary values, then -Laplacian at the
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


def _candidate_values(problem, search: _SearchPrior, chosen, free, threads=1):
    """Criterion value and stderr of each free candidate added to the
    observations of the step, the boundary and the ``chosen`` candidates;
    ``chosen`` and ``free`` index ``search.candidates``.

    The step conditions on its observations with one ``_predictor``. Both
    criteria read the step from the search's prior diagonal and candidate x
    grid block and the two blocks of that predictor's ``cross_solve``:
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
    predictor = _predictor(problem, search.candidates[chosen])
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


def _prior_pairs(problem: EllipticDesignProblem, blocks, points, codes):
    """The map from standard normals to prior pair differences X - X' over
    [grid; functionals], for the n_obs functionals given by ``points`` and
    ``codes``: ``draw(z, z_obs)`` gives the grid pairs (n, n_grid) and the
    functionals' pairs (n, n_obs), one row per row of z (n, n_grid) and
    z_obs (n, n_obs). ``blocks`` holds the functionals' prior covariance
    with the grid values, P_og, as row blocks (k, n_grid) whose rows,
    stacked, follow ``points``; they are read, never stacked or written.
    What the map reads is computed here, once.

    The draws are taken through a factor of 2 P over the joint whose grid
    block is F = (U kron U) diag(root) from ``_grid_pair_factor``. Its
    functional rows are L_og^T with L_og = F^-1 2 P_go: each row of 2 P_og,
    read row-major as a G x G block B, maps to (U^T B U) / root. The
    n_obs x n_obs Schur complement S = 2 P_oo - L_og^T L_og is factored by
    LAPACK's pivoted Cholesky ``dpstrf`` at its default tolerance
    (Hammarling, Higham & Lucas 2007; Harbrecht, Peters & Schneider 2012):
    P^T S P = U^T U, stopped at S's numerical rank r, gives the n_obs x r
    root R = P U[:r]^T, and R R^T is within SAMPLING_JITTER max diag(2 P_oo)
    of S in every entry. Once the pivot order is fixed the factor is
    unique, where the eigenvectors of S are not. So nothing larger than
    G x G and n_obs x n_obs is factored, and no block over grid x grid is
    assembled.

    L_og^T is one C-ordered (n_obs, n_grid) buffer, built once and kept
    for the draws, whatever the layout of ``blocks``, so the draws of a
    design do not depend on how its caller holds P_og: 2 P_og is written
    into it block by block. S is one n_obs x n_obs buffer whose lower
    triangle is all that dpstrf reads. One pass, ``_CAND_BLOCK`` rows at a
    time, maps those rows of L_og^T in place and fills the same rows of S
    with 2 P_oo, from ``cross_cov``, less their Gram with the rows mapped
    so far, so no other n_obs x n_obs array is made (numpy would compute a
    whole Gram into a new one). dpstrf factors S in place, through its
    F-ordered transpose, with a workspace of 2 n_obs numbers, and R is
    copied out of it.

    Each grid draw z F^T is U (root * Z) U^T, with the row of z read
    row-major as the G x G matrix Z, which matches the "ij" order of
    ``grid_points``. It is formed in the buffer of z when z is C-contiguous,
    which is then overwritten; the functionals' draws z L_og + z_obs[:, :r]
    R^T are taken first, into one new (n, n_obs) array. z_obs keeps all
    n_obs columns, so the normals follow one stream rule at any rank.
    """
    # Imported on first use: only the p = inf paths factor a Schur complement.
    from scipy.linalg import lapack

    G = problem.eval_grid
    n_obs = len(codes)
    u, root = _grid_pair_factor(problem)
    l_go = np.empty((n_obs, G * G))
    start = 0
    for block in blocks:
        np.multiply(block, 2.0, out=l_go[start:start + len(block)])
        start += len(block)
    stack = np.asarray_chkfinite(l_go).reshape(-1, G, G)
    # One pass of row blocks: map rows c0:stop of L_og^T in place, then fill
    # the same rows of the lower triangle of 2 P_oo - L_og^T L_og, whose Gram
    # reads only rows already mapped. The strict upper triangle is never
    # written, and dpstrf never reads it.
    schur = np.empty((n_obs, n_obs))
    for c0 in range(0, n_obs, _CAND_BLOCK):
        stop = min(c0 + _CAND_BLOCK, n_obs)
        b = stack[c0:stop]
        np.divide(np.matmul(u.T @ b, u, out=b), root, out=b)
        block = schur[c0:stop, :stop]
        np.multiply(problem.kernel.cross_cov(points[c0:stop], codes[c0:stop], points[:stop],
                                             codes[:stop]), 2.0, out=block)
        block -= l_go[c0:stop] @ l_go[:stop].T
    obs_root = np.empty((n_obs, 0))
    if n_obs:
        # schur.T is F-contiguous, so LAPACK factors schur's own buffer:
        # P^T S P = U^T U with U in the upper triangle of schur.T, that is
        # U^T in the lower triangle of schur, and S = R R^T for R = P U^T.
        _, piv, rank, _ = lapack.dpstrf(schur.T, lower=0, overwrite_a=1)
        obs_root = np.empty((n_obs, rank))
        obs_root[piv - 1] = np.tril(schur[:, :rank])

    def draw(z, z_obs):
        observed = z @ l_go.T + z_obs[:, :obs_root.shape[1]] @ obs_root.T
        grid = z.reshape(-1, G, G)
        grid *= root
        grid = np.matmul(u, grid @ u.T, out=grid)
        return grid.reshape(len(z), G * G), observed

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
    cross, solved = predictor.cross_solve(problem.grid_points, POINT)
    draw = _prior_pairs(problem, (cross.T,), predictor.points, predictor.codes)

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
    value, sampled pathwise (``_design_pairs``) from the one-axis factor of
    the grid pair-difference prior, so no grid x grid block is assembled or
    factored.

    The draws are taken, mapped and reduced to their maxima _DRAW_BLOCK
    rows at a time, so the memory is that of one block for any n_outer.
    The normals follow ``_normal_blocks`` with the streams
    ``derive_rng(cfg.seed, 10**6)`` and ``derive_rng(cfg.seed, 10**6, 1)``.

    The independent oracle of this estimator is ``dense_design_criterion``
    in tests/reference_impls.py, which factors each dense grid posterior
    and shares no sampling code with it or with the greedy search.
    """
    # Loaded before the pin, so that scipy's OpenBLAS pool is pinned too.
    import scipy.linalg  # noqa: F401

    cfg = cfg or MonteCarloConfig()
    weights = problem.grid_weights
    with one_thread():
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
    once; at p = 2 nothing more. Each step scores every free candidate, the
    sorted candidate indices not yet picked, through one body,
    ``_candidate_values``, which conditions on the boundary plus the picked
    candidates with one ``ConditionedPredictor`` and reads that predictor's
    ``cross_solve``; the two criteria differ only in the final scoring. At
    p = inf one pool of prior pair draws over [grid; candidates; boundary]
    is taken from cfg.seed through the fixed-design sampler's map, which
    factors no matrix over the grid larger than G x G, and each step maps
    that pool to posterior pair draws (``_pathwise_pairs``). The draws are
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
    # Loaded before the pin, so that scipy's OpenBLAS pool is pinned too.
    import scipy.linalg  # noqa: F401

    C = problem.candidate_grid
    cfg = cfg or MonteCarloConfig()
    cands = problem.candidates
    picked: list = []
    contours = []
    trace = []
    with one_thread():
        search = _search_prior(problem, cands, cfg)
        for _ in range(m):
            free = np.setdiff1d(np.arange(len(cands)), picked)
            values = _candidate_values(problem, search, picked, free, threads)[0]
            best = int(np.argmin(values))
            surface = np.full(len(cands), np.nan)
            surface[free] = values
            contours.append(surface.reshape(C, C))
            picked.append(int(free[best]))
            trace.append(float(values[best]))
    return DesignState(points=list(cands[picked])), contours, trace
