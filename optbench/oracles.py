"""Independent recomputations that the output checks compare against.

Nothing here calls optinfo's decision, criterion or regression code: the
discrete values come from plain enumeration over the problem's tables and
the regression values from a direct numpy recomputation of the posterior.
"""

from __future__ import annotations

import itertools

import numpy as np


def discrete_brute_force(problem) -> dict:
    """{experiment: (Bayes risk, BPN)} of a finite problem.

    The Bayes risk is the minimum over every rule table (one action per
    observation) of the prior expected loss; BPN is the triple sum over
    (x, y, x') of p(x, y) p(x' | y) state_loss(x, x').
    """
    prior = [float(v) for v in problem.prior]
    loss = np.asarray(problem.loss, dtype=float)
    state_loss = np.asarray(problem.state_loss, dtype=float)
    states = range(len(prior))
    out = {}
    for e, lik in problem.experiments.items():
        n_obs = lik.shape[1]
        risk = min(
            sum(prior[x] * lik[x, y] * loss[x, rule[y]] for x in states for y in range(n_obs))
            for rule in itertools.product(range(loss.shape[1]), repeat=n_obs)
        )
        bpn = 0.0
        for y in range(n_obs):
            marginal = sum(prior[x] * lik[x, y] for x in states)
            if marginal == 0.0:
                continue
            for x in states:
                for x2 in states:
                    bpn += prior[x] * lik[x, y] * prior[x2] * lik[x2, y] / marginal * state_loss[x, x2]
        out[e] = (float(risk), float(bpn))
    return out


def regression_values(config: dict) -> dict:
    """{criterion: {candidate: value}} for the regression subcommand's config,
    with unit observation noise: Sigma = (A^T A + P^-1)^-1."""
    prior_cov = np.asarray(config["prior_cov"], dtype=float)
    lam = np.asarray(config["lambda"], dtype=float)
    c = np.asarray(config["c"], dtype=float)
    out = {"A": {}, "E": {}, "D": {}, "c": {}}
    for cid, rows in config["candidates"].items():
        A = np.asarray(rows, dtype=float)
        cov = np.linalg.inv(A.T @ A + np.linalg.inv(prior_cov))
        out["A"][cid] = float(np.trace(lam @ cov))
        # Eigenvalues of Lambda^1/2 Sigma Lambda^1/2 are those of Sigma Lambda.
        out["E"][cid] = float(np.max(np.linalg.eigvals(cov @ lam).real))
        out["D"][cid] = float(np.linalg.det(lam) * np.linalg.det(cov))
        out["c"][cid] = float(c @ cov @ c)
    return out
