"""Experiment-scoring criteria and optimal-set extraction.

Implements the alphabet criteria (A, c, E, D), expected KL information
gain, the decision-theoretic criterion (Bayes risk at the Bayes rule) and
the posterior-concentration criterion BPN, the latter both as a nested
Monte Carlo estimator and, for Gaussian posteriors with observation-
independent covariance, via the pair reduction Z ~ N(0, 2 Sigma_e).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decisions import (
    GaussianLinearProblem,
    WeightedQuadratic,
    bayes_risk_discrete,
    bayes_rule_discrete,
    posterior_table,
)
from .errors import AllValuesNonFinite, NonPSDInput, SamplerFailure
from .gaussian import _psd_factor, derive_rng


@dataclass(frozen=True)
class MonteCarloConfig:
    """Budget for the nested BPN estimator: outer draws of (x, y) and inner
    posterior draws per outer sample."""

    seed: int = 0
    n_outer: int = 10000
    n_inner: int = 4

    def __post_init__(self):
        if self.n_outer < 1 or self.n_inner < 1:
            raise ValueError("sample counts must be >= 1")


@dataclass
class CriterionReport:
    """Per-experiment values of one criterion plus the optimal set."""

    criterion: str
    values: dict
    optimal: list
    tie_tol: float
    stderrs: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "criterion": self.criterion,
            "values": {str(k): float(v) for k, v in self.values.items()},
            "optimal_set": [str(k) for k in self.optimal],
            "tie_tolerance": self.tie_tol,
        }
        if self.stderrs:
            out["standard_errors"] = {str(k): float(v) for k, v in self.stderrs.items()}
        return out


def _check_psd(mat, name) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    mat = 0.5 * (mat + mat.T)
    eigs = np.linalg.eigvalsh(mat)
    if eigs[0] < -1e-10 * max(eigs[-1], 1.0):
        raise NonPSDInput(f"{name} is not positive semi-definite")
    return mat


def alphabet(posterior_cov, weight_matrix, which: str, direction=None) -> float:
    """Alphabet criteria of a posterior covariance.

    A: tr(Lambda Sigma); c: c^T Sigma c; E: largest eigenvalue of
    Lambda^(1/2) Sigma Lambda^(1/2); D: its determinant.
    """
    cov = _check_psd(posterior_cov, "posterior covariance")
    lam = _check_psd(weight_matrix, "weight matrix")
    if cov.shape != lam.shape:
        raise NonPSDInput("covariance and weight matrix dimensions differ")
    if which == "A":
        return float(np.trace(lam @ cov))
    if which == "c":
        if direction is None:
            raise ValueError("c-optimality requires a direction vector")
        c = np.asarray(direction, dtype=float)
        return float(c @ cov @ c)
    w, v = np.linalg.eigh(lam)
    half = v * np.sqrt(np.clip(w, 0.0, None)) @ v.T
    weighted = half @ cov @ half
    if which == "E":
        return float(np.linalg.eigvalsh(weighted)[-1])
    if which == "D":
        return float(np.linalg.det(weighted))
    raise ValueError(f"unknown criterion {which!r}")


def kl_gain_discrete(problem, e) -> float:
    """Expected KL divergence from prior to posterior over observations:
    the sum over joint[y, x] > 0 of joint[y, x] * log(post[y, x] / prior[x])."""
    joint, _, post = posterior_table(problem, e)
    prior = np.asarray(problem.prior, dtype=float)
    ratio = np.divide(post, prior, out=np.ones_like(post), where=joint > 0.0)
    return max(float(np.sum(joint * np.log(ratio))), 0.0)


def bdt_criterion(problem, e) -> float:
    """BR(e, d*_e): Bayes risk at the Bayes rule.

    Exact for finite problems; closed form tr(Lambda Sigma_e) for Gaussian
    problems with weighted quadratic loss.
    """
    if isinstance(problem, GaussianLinearProblem):
        if not isinstance(problem.loss, WeightedQuadratic):
            raise TypeError(
                "closed-form BDT for Gaussian problems requires a weighted quadratic loss"
            )
        return float(np.trace(problem.loss.weight_matrix @ problem.posterior_cov(e)))
    rule = bayes_rule_discrete(problem, e)
    return bayes_risk_discrete(problem, e, rule)


def bpn_mc(problem, e, cfg: MonteCarloConfig):
    """Nested Monte Carlo estimator of the posterior-concentration criterion.

    Draws cfg.n_outer prior states x, one observation y of each under e and
    cfg.n_inner posterior states x' given each y, all in one batched pass
    (``problem.sample_nested``), and averages the pair losses l(x, x') over
    the inner draws. Returns (estimate, standard error), the latter from
    the outer-draw variance (0.0 for a single outer draw).

    Deterministic given cfg.seed. The batch takes the generator's numbers
    in the order of a per-draw loop (prior states, then each outer draw's
    observation followed by its inner draws), so it returns that loop's
    values: bit for bit on finite problems, to roundoff on Gaussian ones.
    """
    rng = derive_rng(cfg.seed)
    _, _, losses = problem.sample_nested(rng, e, cfg.n_outer, cfg.n_inner)
    inner_means = np.mean(losses, axis=1)
    if not np.all(np.isfinite(inner_means)):
        raise SamplerFailure("non-finite inner loss averages")
    estimate = float(np.mean(inner_means))
    stderr = float(np.std(inner_means, ddof=1) / np.sqrt(cfg.n_outer)) if cfg.n_outer > 1 else 0.0
    return estimate, stderr


def bpn_gaussian_pair_reduction(posterior_cov, loss, cfg: MonteCarloConfig):
    """BPN via the pair reduction for observation-independent Gaussian
    posteriors: X - X' ~ N(0, 2 Sigma_e), so the outer integral drops out.

    For the squared p=2 loss the expectation is analytic
    (E||Z||^2_w = 2 tr_w(Sigma_e)); otherwise seeded Monte Carlo over Z.
    Returns (estimate, standard error).
    """
    cov = _check_psd(posterior_cov, "posterior covariance")
    if getattr(loss, "squared", False) and loss.p == 2:
        return float(2.0 * np.sum(loss.weights * np.diag(cov))), 0.0
    factor = _psd_factor(2.0 * cov)
    rng = derive_rng(cfg.seed)
    z = rng.standard_normal((cfg.n_outer, cov.shape[0])) @ factor.T
    vals = loss.pairwise(z, np.zeros((1, cov.shape[0])))
    estimate = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(cfg.n_outer)) if cfg.n_outer > 1 else 0.0
    return estimate, stderr


def optimal_set(values: dict, tie_tol: float = 1e-9, stderrs: dict | None = None) -> list:
    """Experiment ids within tie_tol + 3 * stderr of the minimum value."""
    finite = {k: v for k, v in values.items() if np.isfinite(v)}
    if not finite:
        raise AllValuesNonFinite("no finite criterion values")
    vmin = min(finite.values())
    stderrs = stderrs or {}
    chosen = [
        k
        for k, v in finite.items()
        if v <= vmin + tie_tol + 3.0 * float(stderrs.get(k, 0.0))
    ]
    return sorted(chosen, key=str)


def make_report(criterion: str, values: dict, tie_tol: float = 1e-9,
                stderrs: dict | None = None) -> CriterionReport:
    return CriterionReport(
        criterion=criterion,
        values=dict(values),
        optimal=optimal_set(values, tie_tol, stderrs),
        tie_tol=tie_tol,
        stderrs=dict(stderrs or {}),
    )
