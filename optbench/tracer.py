"""In-memory span tracing at optinfo's public boundaries.

Only public class and module attributes are wrapped, so renaming or
removing a private helper never breaks the trace. Spans nest through a
stack: a span's self time is its duration minus the durations of the spans
it directly encloses, so the self times of one root span sum to its wall
time.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from optinfo import cli, criteria, discrete, gaussian, kernels, pde, quadrature

ROOT = "run.iteration"


def _mentries(args, kwargs, result):
    return result.size / 1e6


def _outer_draws(args, kwargs, result):
    return (kwargs["cfg"] if "cfg" in kwargs else args[2]).n_outer


# (layer name, owner, attribute, work counter name, counter).
LAYERS = [
    ("kernels.cross_cov", kernels.SquaredExponential, "cross_cov", "mentries", _mentries),
    ("kernels.condition", kernels.ConditionedPredictor, "__init__", None, None),
    ("kernels.cov_functionals", kernels.ConditionedPredictor, "cov_functionals", None, None),
    ("pde.greedy_design", pde, "greedy_design", None, None),
    ("pde.design_criterion", pde, "design_criterion", None, None),
    ("criteria.bpn_mc", criteria, "bpn_mc", "outer_draws", _outer_draws),
    ("criteria.bpn_gaussian_pair_reduction", criteria, "bpn_gaussian_pair_reduction", None, None),
    ("quadrature.bpn_monte_carlo", quadrature, "bpn_monte_carlo", None, None),
    ("gaussian.conjugate_posterior", gaussian, "conjugate_posterior", None, None),
    ("discrete.criteria_report", discrete, "criteria_report", None, None),
    ("cli.main", cli, "main", None, None),
]


class Tracer:
    """Collects (name, self time, work count) spans of wrapped calls."""

    def __init__(self):
        self._spans = []
        self._stack = []

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
            work = counter(args, kwargs, result) if counter else 0
            self._spans.append((name, duration - children[0], work))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer in LAYERS; restore the originals on exit."""
        originals = []
        try:
            for name, owner, attr, _, counter in LAYERS:
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, counter))
            yield
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def run(self, fn):
        """Call fn under the root span with every layer wrapped; return the
        per-layer metrics of that call."""
        with self.installed():
            self.wrap(ROOT, fn)()
        spans, self._spans = self._spans, []
        calls = defaultdict(int)
        self_s = defaultdict(float)
        work = defaultdict(float)
        for name, own, count in spans:
            calls[name] += 1
            self_s[name] += own
            work[name] += count
        out = {"run.unattributed_s": self_s[ROOT]}
        for name, _, _, counter_name, _ in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            if counter_name:
                out[f"{name}.{counter_name}"] = work[name]
        return out
