"""Shared pytest wiring.

The acceptance suite registers one summary line per criterion; they are
echoed in the terminal summary so every run ends with an explicit
pass/fail line for each criterion.
"""

import numpy as np
import pytest
import scipy.linalg

ACCEPTANCE_LINES: dict = {}


def record_acceptance(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:2d} [{name}]: {status}"
    if detail:
        line += f" -- {detail}"
    ACCEPTANCE_LINES[number] = line
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(ACCEPTANCE_LINES[number])


@pytest.fixture
def cho_factor_calls(monkeypatch):
    """List that grows by one entry per ``scipy.linalg.cho_factor`` call."""
    calls = []
    cho_factor = scipy.linalg.cho_factor

    def counting(*args, **kwargs):
        calls.append(1)
        return cho_factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counting)
    return calls


@pytest.fixture
def factored_shapes(monkeypatch):
    """List that grows by (function name, shape of the matrix passed) for
    every ``cholesky``, ``cho_factor`` and ``eigh`` call of numpy and scipy
    and every call of LAPACK's pivoted Cholesky ``dpstrf`` through
    ``scipy.linalg.lapack``."""
    shapes = []
    for module, name in [(np.linalg, "cholesky"), (np.linalg, "eigh"), (scipy.linalg, "cholesky"),
                         (scipy.linalg, "cho_factor"), (scipy.linalg, "eigh"),
                         (scipy.linalg.lapack, "dpstrf")]:
        def recording(mat, *args, _f=getattr(module, name), _name=name, **kwargs):
            shapes.append((_name, np.shape(mat)))
            return _f(mat, *args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    return shapes
