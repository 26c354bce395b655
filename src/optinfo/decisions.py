"""Loss functions, Bayes rules and Bayes risk.

The decision-theoretic layer: a loss pairs a latent state with an action,
a Bayes act minimises posterior expected loss, a Bayes rule selects a Bayes
act at every observation, and the Bayes risk is the prior expected loss of
a rule. For finite problems acts, rules and risk are exact contractions of
one posterior table. For linear-Gaussian problems the Bayes risk of a given
rule is a seeded Monte Carlo average, and ``verify_mean_is_bayes_act``
checks in one dimension that the Bayes act a* of the squared pushforward
loss ||phi(x) - phi(a)||^2 satisfies phi(a*) = E[phi(X)].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, IntegratorFailure, UnboundedObjective
from .gaussian import GaussianDensity, _psd_factor, derive_rng, linear_gaussian_update

EXACT_TIE_TOL = 1e-12


# ---------------------------------------------------------------------------
# Loss specifications
# ---------------------------------------------------------------------------


class WeightedQuadratic:
    """l(x, a) = (x - a)^T Lambda (x - a) with PSD Lambda."""

    def __init__(self, weight_matrix):
        self.weight_matrix = np.atleast_2d(np.asarray(weight_matrix, dtype=float))

    def __call__(self, x, a) -> float:
        diff = np.atleast_1d(np.asarray(x, dtype=float)) - np.atleast_1d(
            np.asarray(a, dtype=float)
        )
        return float(diff @ self.weight_matrix @ diff)

    def pairwise(self, X, A) -> np.ndarray:
        diff = np.atleast_2d(X) - np.atleast_2d(A)
        return np.einsum("ij,jk,ik->i", diff, self.weight_matrix, diff)


class PNormOnGrid:
    """Weighted l^p norm of x - a over a grid; p = inf is the grid maximum.

    With ``squared=True`` and p = 2 this is the squared weighted l2 norm,
    the loss family covered by the squared-norm equivalence result.
    """

    def __init__(self, p: float, weights, squared: bool = False):
        if not (p >= 1 or p == np.inf):
            raise ValueError("p must be >= 1 or inf")
        if squared and p != 2:
            raise ValueError("squared variant only defined for p = 2")
        self.p = p
        self.weights = np.atleast_1d(np.asarray(weights, dtype=float))
        self.squared = squared

    def __call__(self, x, a) -> float:
        return float(self.pairwise(np.atleast_2d(x), np.atleast_2d(a))[0])

    def pairwise(self, X, A) -> np.ndarray:
        diff = np.abs(np.atleast_2d(X) - np.atleast_2d(A))
        if self.p == np.inf:
            return np.max(diff, axis=1)
        vals = (diff**self.p) @ self.weights
        if self.squared:
            return vals
        return vals ** (1.0 / self.p)


class ZeroOne:
    """l(x, a) = 0 if ||x - a||_Lambda <= eps, else 1."""

    def __init__(self, eps: float, weight_matrix=None):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = float(eps)
        self.weight_matrix = (
            None if weight_matrix is None else np.atleast_2d(np.asarray(weight_matrix, dtype=float))
        )

    def __call__(self, x, a) -> float:
        diff = np.atleast_1d(np.asarray(x, dtype=float)) - np.atleast_1d(
            np.asarray(a, dtype=float)
        )
        if self.weight_matrix is None:
            sq = diff @ diff
        else:
            sq = diff @ self.weight_matrix @ diff
        return 0.0 if np.sqrt(sq) <= self.eps else 1.0


# ---------------------------------------------------------------------------
# Problem containers
# ---------------------------------------------------------------------------


class GaussianLinearProblem:
    """Gaussian prior, linear-Gaussian experiments and a shared loss.

    Each experiment is a pair (design_matrix, noise_cov); the posterior
    covariance is observation-independent, which the BPN pair reduction
    exploits.
    """

    def __init__(self, prior: GaussianDensity, experiments: dict, loss):
        self.prior = prior
        self.experiments = dict(experiments)
        self.loss = loss
        self._posterior_cache: dict = {}

    def experiment_ids(self):
        return list(self.experiments)

    def posterior(self, e, y) -> GaussianDensity:
        gain, base, _ = self._posterior_pieces(e)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (gain.shape[1],):
            raise DimensionMismatch(f"observation shape {y.shape} != ({gain.shape[1]},)")
        return GaussianDensity(base.mean + gain @ y, base.cov)

    def posterior_cov(self, e) -> np.ndarray:
        return self._posterior_pieces(e)[1].cov.copy()

    def sample_prior(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.standard_normal((n, self.prior.dim))
        return self.prior.mean[None, :] + z @ _psd_factor(self.prior.cov).T

    def _posterior_pieces(self, e):
        """Cached (gain, base, factor) from one ``linear_gaussian_update``:
        the posterior given y is N(base.mean + gain y, base.cov), base is
        the posterior at y = 0, and factor F has F F^T = base.cov."""
        if e not in self._posterior_cache:
            A, noise = self.experiments[e]
            A = np.atleast_2d(np.asarray(A, dtype=float))
            gain, cov = linear_gaussian_update(self.prior, A, noise)
            base = GaussianDensity(self.prior.mean - gain @ (A @ self.prior.mean), cov)
            self._posterior_cache[e] = (gain, base, _psd_factor(cov))
        return self._posterior_cache[e]

    def sample_nested(self, rng: np.random.Generator, e, n: int, n_inner: int):
        """Draw n prior states x, one observation y of each under e and
        n_inner posterior states x' given each y, in one batched pass.

        Returns (xs, ys, losses) with losses[i, k] = loss(xs[i], x'_ik),
        an (n, n_inner) array computed through ``loss.pairwise``. The
        random numbers come in the order of a per-draw loop: the prior
        block of ``sample_prior``, then one standard-normal block whose
        row i holds draw i's observation noise (no columns when the noise
        matrix is zero) followed by its n_inner posterior normals. The
        posterior mean is affine in y, so every draw reuses the cached
        gain and factor of ``_posterior_pieces``.
        """
        xs = self.sample_prior(rng, n)
        A, noise = self.experiments[e]
        A = np.atleast_2d(np.asarray(A, dtype=float))
        noise = np.atleast_2d(np.asarray(noise, dtype=float))
        n_noise = 0 if np.max(np.abs(noise)) == 0.0 else A.shape[0]
        d = self.prior.dim
        z = rng.standard_normal((n, n_noise + n_inner * d))
        # Stacked matmuls make one BLAS call per draw with that draw's shapes,
        # so each value equals a single draw's bit for bit; one large product
        # would sum in another order, and x - x' can cancel those last bits
        # when the posterior is nearly degenerate.
        ys = (A @ xs[:, :, None])[:, :, 0]
        if n_noise:
            ys = ys + (_psd_factor(noise) @ z[:, :n_noise, None])[:, :, 0]
        if n_inner == 0:
            return xs, ys, np.empty((n, 0))
        gain, base, factor = self._posterior_pieces(e)
        means = base.mean + (gain @ ys[:, :, None])[:, :, 0]
        x_primes = means[:, None, :] + z[:, n_noise:].reshape(n, n_inner, d) @ factor.T
        losses = self.loss.pairwise(np.repeat(xs, n_inner, axis=0), x_primes.reshape(-1, d))
        return xs, ys, losses.reshape(n, n_inner)


# ---------------------------------------------------------------------------
# Bayes rules and Bayes risk
# ---------------------------------------------------------------------------


def posterior_table(problem, e):
    """Joint, marginal and posterior of a finite experiment, one row per
    observation y: ``joint[y, x] = prior[x] * likelihood[x, y]``,
    ``marginal[y]`` its row sum and ``post[y] = joint[y] / marginal[y]``.
    Rows of observations with zero marginal probability stay zero in post.

    ``problem`` must expose ``prior`` and ``experiments[e]`` (state x
    observation likelihood). The rows are contiguous, so each marginal and
    posterior row equals ``(prior * likelihood[:, y]).sum()`` and the
    division by it bit for bit; the seeded posterior draws of
    ``DiscreteProblem.sample_nested`` depend on those last bits.
    """
    prior = np.asarray(problem.prior, dtype=float)
    likelihood = np.asarray(problem.experiments[e], dtype=float)
    joint = np.ascontiguousarray(likelihood.T) * prior
    marginal = joint.sum(axis=1)
    post = np.divide(joint, marginal[:, None], out=np.zeros_like(joint),
                     where=marginal[:, None] > 0.0)
    return joint, marginal, post


def _bayes_act_mask(problem, e):
    """(marginal, acts): acts[y, a] is True where action a's posterior
    expected loss at observation y is within EXACT_TIE_TOL of the least."""
    _, marginal, post = posterior_table(problem, e)
    expected = post @ np.asarray(problem.loss, dtype=float)
    return marginal, expected <= expected.min(axis=1, keepdims=True) + EXACT_TIE_TOL


def bayes_rule_discrete(problem, e):
    """Exact Bayes rule table for a finite problem.

    Returns a list mapping observation index -> action index; observations
    with zero marginal probability get action 0 by convention. Ties are
    broken by lowest action index. ``problem`` must expose ``prior``,
    ``experiments[e]`` (state x observation likelihood), ``actions`` and
    ``loss`` (state x action table).
    """
    marginal, acts = _bayes_act_mask(problem, e)
    return np.where(marginal > 0.0, acts.argmax(axis=1), 0).tolist()


def bayes_act_sets_discrete(problem, e):
    """Per-observation full Bayes-act index sets (exact, tie tol 1e-12);
    None where the observation never occurs (any action is a Bayes act)."""
    marginal, acts = _bayes_act_mask(problem, e)
    return [set(np.flatnonzero(row).tolist()) if m > 0.0 else None
            for m, row in zip(marginal, acts)]


def bayes_risk_discrete(problem, e, rule) -> float:
    """Exact Bayes risk of a rule table on a finite problem:
    sum over (y, x) of joint[y, x] * loss[x, rule[y]]."""
    joint, _, _ = posterior_table(problem, e)
    return float(np.sum(joint * np.asarray(problem.loss, dtype=float)[:, rule].T))


def bayes_risk(problem, e, rule, integrator="exact-enumeration",
               seed: int = 0, n: int = 10000) -> float:
    """Bayes risk BR(e, rule): prior expected loss of a decision rule.

    ``integrator`` is "exact-enumeration" (finite problems) or
    "monte-carlo" (any problem exposing ``sample_nested``). The Monte Carlo
    pairs (x, y) come from one batched ``sample_nested`` call with no inner
    draws. A callable loss (``GaussianLinearProblem``) is evaluated draw by
    draw with ``rule`` a callable y -> action. A loss table
    (``DiscreteProblem``, states x actions) is indexed at once over the
    draws; ``rule`` is then a table observation index -> action index, as
    for exact enumeration, or a callable returning an action index.
    """
    if integrator == "exact-enumeration":
        return bayes_risk_discrete(problem, e, rule)
    if integrator != "monte-carlo":
        raise ValueError(f"unknown integrator {integrator!r}")
    xs, ys, _ = problem.sample_nested(derive_rng(seed), e, n, 0)
    if callable(problem.loss):
        vals = np.array([problem.loss(x, rule(y)) for x, y in zip(xs, ys)], dtype=float)
    else:
        actions = [rule(y) for y in ys] if callable(rule) else np.asarray(rule)[ys]
        vals = np.asarray(problem.loss, dtype=float)[xs, actions]
    if not np.all(np.isfinite(vals)):
        raise IntegratorFailure("Monte Carlo loss values non-finite")
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# Pushforward Bayes-act verification
# ---------------------------------------------------------------------------


@dataclass
class BayesActReport:
    """Outcome of checking the stationarity condition for a found Bayes act.

    ``residual`` is the strong-form mismatch ||E[phi(X)] - phi(a*)||, which a
    Bayes act must satisfy exactly when the derivative of phi has full row
    rank. When phi maps into a higher-dimensional space than the action space
    the strong form is unattainable and only the first-order condition
    ||Dphi(a*)^T (E[phi(X)] - phi(a*))|| = 0 characterises the minimiser;
    ``stationarity_residual`` reports it and drives the pass/fail decision in
    that case.
    """

    minimizer: np.ndarray
    residual: float
    stationarity_residual: float
    expected_phi: np.ndarray
    passed: bool
    precondition_ok: bool
    full_row_rank: bool
    coercivity_note: str
    message: str = ""


def _gauss_hermite_nodes(posterior: GaussianDensity, order: int = 80):
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    sd = np.sqrt(posterior.cov[0, 0])
    return posterior.mean[0] + sd * nodes, weights / weights.sum()


def verify_mean_is_bayes_act(posterior: GaussianDensity, phi: Callable,
                             tol: float) -> BayesActReport:
    """Numerically locate the Bayes act for l(x,a) = ||phi(x) - phi(a)||^2
    on a 1-D Gaussian posterior and report the stationarity residual
    ||E[phi(X)] - phi(a*)||.

    The act is the best of 401 points over mean +- 8 sd, replaced by the
    result of one bounded scalar search over the two grid cells around it
    when that is strictly lower; the grid keeps a non-convex objective from
    stopping in the wrong basin. A rank-deficient derivative of phi at the
    found minimiser is reported as a precondition violation rather than a
    silent pass/fail.
    """
    # Imported on first use: scipy is slow to import and most runs never need it.
    from scipy.optimize import minimize_scalar

    if posterior.dim != 1:
        raise ValueError("verification implemented for 1-D posteriors")
    nodes, weights = _gauss_hermite_nodes(posterior)
    phi_vals = np.array([np.atleast_1d(np.asarray(phi(t), dtype=float)) for t in nodes])
    expected_phi = weights @ phi_vals

    def objective(a):
        pa = np.atleast_1d(np.asarray(phi(float(a)), dtype=float))
        return float(weights @ np.sum((phi_vals - pa[None, :]) ** 2, axis=1))

    sd = np.sqrt(posterior.cov[0, 0])
    grid = posterior.mean[0] + sd * np.linspace(-8.0, 8.0, 401)
    values = np.array([objective(a) for a in grid])
    if not np.all(np.isfinite(values)):
        raise UnboundedObjective("objective non-finite on the search grid")
    k = int(np.argmin(values))
    res = minimize_scalar(objective, bounds=(grid[max(k - 1, 0)], grid[min(k + 1, 400)]),
                          method="bounded", options={"xatol": min(tol, 1e-8) * 1e-2})
    a_star = float(res.x) if res.fun < values[k] else float(grid[k])

    fd_step = 1e-6
    deriv = (np.atleast_1d(np.asarray(phi(a_star + fd_step), dtype=float))
             - np.atleast_1d(np.asarray(phi(a_star - fd_step), dtype=float))) / (2 * fd_step)
    precondition_ok = bool(np.linalg.norm(deriv) > 1e-8)
    # Full row rank of the m x 1 derivative requires m == 1 (action is scalar).
    full_row_rank = precondition_ok and deriv.shape[0] == 1
    gap = expected_phi - np.atleast_1d(np.asarray(phi(a_star), dtype=float))
    residual = float(np.linalg.norm(gap))
    stationarity_residual = float(abs(deriv @ gap))
    note = ("coercivity not verified numerically; global optimality holds only "
            "if phi is coercive and the stationary point is unique")
    if not precondition_ok:
        message = ("derivative of phi is rank-deficient at the found minimiser; "
                   "the stationarity characterisation does not apply")
        passed = False
    elif full_row_rank:
        message = ""
        passed = residual < tol
    else:
        message = ("derivative of phi lacks full row rank (phi maps into a "
                   "higher dimension than the action space); only the "
                   "first-order condition is checked")
        passed = stationarity_residual < tol
    return BayesActReport(
        minimizer=np.array([a_star]),
        residual=residual,
        stationarity_residual=stationarity_residual,
        expected_phi=np.atleast_1d(expected_phi),
        passed=passed,
        precondition_ok=precondition_ok,
        full_row_rank=full_row_rank,
        coercivity_note=note,
        message=message,
    )
