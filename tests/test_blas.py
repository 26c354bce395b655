"""BLAS thread pinning: library calls run every loaded OpenBLAS pool on one
thread and give the caller's thread counts back on every way out. And the
p = inf design does not depend on which OpenBLAS kernel set runs."""

import json
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg  # noqa: F401  loads scipy's pool, so both pools are pinned and read

import optinfo
from optinfo import _blas, pde
from optinfo.cli import EXIT_NUMERICAL, EXIT_OK, main
from optinfo.criteria import MonteCarloConfig
from optinfo.errors import SamplerFailure
from optinfo.pde import EllipticDesignProblem, design_criterion, greedy_design

SMALL = dict(eval_grid=6, candidate_grid=4, n_boundary=8)
CFG = MonteCarloConfig(seed=0, n_outer=4)
# Not 1, and not the default thread count of a pool, so a restored count
# is told apart from both.
CALLER_COUNT = 3


def counts():
    """Thread counts of the loaded pools, through the symbols the helper uses."""
    return [get() for _, get, _ in _blas._loaded_pools()]


@pytest.fixture
def caller_counts():
    """Every loaded pool at CALLER_COUNT threads for the test, then back."""
    pools = _blas._loaded_pools()
    before = [get() for _, get, _ in pools]
    for _, _, put in pools:
        put(CALLER_COUNT)
    yield [CALLER_COUNT] * len(pools)
    for (_, _, put), n in zip(pools, before):
        put(n)


@pytest.fixture
def counts_inside(monkeypatch):
    """Pool counts seen inside each search or fixed-design body, read when
    ``pde._predictor`` is called."""
    seen = []
    predictor = pde._predictor

    def recording(*args):
        seen.append(counts())
        return predictor(*args)

    monkeypatch.setattr(pde, "_predictor", recording)
    return seen


def test_both_wheel_pools_found():
    # numpy and scipy wheels each bundle one OpenBLAS; with another BLAS
    # build the helper finds none and pins nothing.
    names = [path for path, _, _ in _blas._loaded_pools()]
    assert len(names) == 2
    assert any("numpy.libs" in n for n in names) and any("scipy.libs" in n for n in names)


@pytest.mark.parametrize("p", [2.0, np.inf])
def test_greedy_design_pins_then_restores(p, caller_counts, counts_inside):
    greedy_design(EllipticDesignProblem(p=p, **SMALL), 2, CFG)
    assert counts_inside and all(c == [1, 1] for c in counts_inside)
    assert counts() == caller_counts


@pytest.mark.parametrize("p", [2.0, np.inf])
def test_design_criterion_pins_then_restores(p, caller_counts, counts_inside):
    design_criterion(EllipticDesignProblem(p=p, **SMALL), [[0.5, 0.5]], CFG)
    assert counts_inside == [[1, 1]]
    assert counts() == caller_counts


def test_restored_after_a_failure_in_the_search(caller_counts, monkeypatch):
    def failing(*args, **kwargs):
        assert counts() == [1, 1]
        raise SamplerFailure("injected")

    monkeypatch.setattr(pde, "_candidate_values", failing)
    with pytest.raises(SamplerFailure, match="injected"):
        greedy_design(EllipticDesignProblem(p=np.inf, **SMALL), 2, CFG)
    assert counts() == caller_counts


def test_restored_after_a_failure_in_the_fixed_design(caller_counts, monkeypatch):
    def failing(*args, **kwargs):
        assert counts() == [1, 1]
        raise SamplerFailure("injected")

    monkeypatch.setattr(pde, "_design_pairs", failing)
    with pytest.raises(SamplerFailure, match="injected"):
        design_criterion(EllipticDesignProblem(p=np.inf, **SMALL), [[0.5, 0.5]], CFG)
    assert counts() == caller_counts


def test_restored_after_the_cli_and_its_nested_search(caller_counts, counts_inside, tmp_path,
                                                      capsys):
    argv = ["pde-design", "--m", "2", "--eval-grid", "6", "--candidate-grid", "4",
            "--n-boundary", "8", "--outdir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert len(counts_inside) == 2 and all(c == [1, 1] for c in counts_inside)
    assert counts() == caller_counts


def test_cli_failure_restores(caller_counts, monkeypatch, tmp_path, capsys):
    def failing(*args, **kwargs):
        raise SamplerFailure("injected")

    monkeypatch.setattr(pde, "_candidate_values", failing)
    argv = ["pde-design", "--m", "1", "--eval-grid", "6", "--candidate-grid", "4",
            "--n-boundary", "8", "--outdir", str(tmp_path)]
    assert main(argv) == EXIT_NUMERICAL
    assert "injected" in capsys.readouterr().err
    assert counts() == caller_counts


def test_no_known_pool_is_a_no_op(caller_counts, monkeypatch):
    pools = _blas._loaded_pools()
    monkeypatch.setattr(_blas, "_loaded_pools", list)
    with _blas.one_thread():
        assert [get() for _, get, _ in pools] == caller_counts
    assert [get() for _, get, _ in pools] == caller_counts


def test_concurrent_calls_stay_pinned_and_restore(caller_counts):
    # The count is one setting of the whole process: while any call is
    # inside, every pool stays at 1, and the last call out restores it.
    errors = []

    def worker():
        try:
            for _ in range(50):
                with _blas.one_thread():
                    if counts() != [1, 1]:
                        errors.append(counts())
        except Exception as exc:  # reported below; a thread cannot raise into the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert counts() == caller_counts


def run_child(probe, *args):
    """The JSON that ``probe`` prints last, run in a fresh process that
    imports the package from this checkout."""
    src = str(Path(optinfo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_pool_lookups_are_kept_but_misses_are_retried():
    # A fresh process: numpy's pool alone, then scipy imported without its
    # BLAS (a lookup that misses), then scipy.linalg, whose pool the next
    # call must still find. Later calls glob nothing and return the handles
    # found first.
    probe = (
        "import glob, json, numpy\n"
        "from optinfo import _blas\n"
        "names = lambda pools: [path.split('/')[-2] for path, _, _ in pools]\n"
        "seen = [names(_blas._loaded_pools())]\n"
        "import scipy\n"
        "seen.append(names(_blas._loaded_pools()))\n"
        "import scipy.linalg\n"
        "first = _blas._loaded_pools()\n"
        "seen.append(names(first))\n"
        "globs = []\n"
        "glob.glob = lambda *args, **kwargs: globs.append(args) or []\n"
        "again = [_blas._loaded_pools() for _ in range(3)]\n"
        "same = all(a is b for pools in again for a, b in zip(pools, first))\n"
        "print(json.dumps([seen, names(again[-1]), len(globs), same]))\n"
    )
    seen, again, globs, same = run_child(probe)
    assert seen == [["numpy.libs"], ["numpy.libs"], ["numpy.libs", "scipy.libs"]]
    assert again == seen[-1]
    assert globs == 0 and same


def test_regression_pins_the_scipy_pool_it_loads(tmp_path):
    # scipy's pool is first loaded inside the command, after the CLI has
    # pinned numpy's; both must read 1 in the posterior's factorisations
    # and be back at the caller's counts afterwards. A fresh process, so
    # scipy is not loaded before the call; its pool's caller count is the
    # one it starts with, which this process's pool also started with.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"prior_cov": [[1.0, 0.2], [0.2, 1.0]],
                                  "candidates": {"a": [[1.0, 0.0]], "b": [[0.0, 1.0], [1.0, 1.0]]}}))
    probe = (
        "import contextlib, io, json, sys\n"
        "from optinfo import _blas, cli, gaussian\n"
        "counts = lambda: [get() for _, get, _ in _blas._loaded_pools()]\n"
        f"[put({CALLER_COUNT}) for _, _, put in _blas._loaded_pools()]\n"
        "seen, update = [], gaussian.linear_gaussian_update\n"
        "def recording(*args):\n"
        "    seen.append(counts())\n"
        "    return update(*args)\n"
        "gaussian.linear_gaussian_update = recording\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['regression', '--config', sys.argv[1]])\n"
        "print(json.dumps([code, seen, counts()]))\n"
    )
    code, seen, after = run_child(probe, str(config))
    assert code == EXIT_OK
    assert seen == [[1, 1], [1, 1]]
    assert after == [CALLER_COUNT, counts()[1]]


# OpenBLAS picks a kernel set for the CPU when it loads; OPENBLAS_CORETYPE
# forces another, which runs only on a CPU with these flags.
CORE_FLAGS = {"Haswell": {"avx2", "fma"}, "Sandybridge": {"avx"}}


def cpu_flags():
    """The CPU's feature flags from /proc/cpuinfo, empty where it is absent."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in lines
                 if line.startswith("flags")), set())


def test_pinf_design_does_not_depend_on_the_blas_kernel(tmp_path):
    # The same p = inf search in fresh processes on OpenBLAS's own kernel
    # choice and on each forced kernel set the CPU can run: the designs
    # are the same points. The traces differ in the fourth digit (1e-4
    # relative here), so only the points are compared. p = 2 is left out:
    # its exact mirror-image ties under the square's symmetries flip
    # across kernels.
    cores = [None] + [core for core, flags in CORE_FLAGS.items() if flags <= cpu_flags()]
    if len(cores) == 1:
        pytest.skip("the CPU runs none of the forced OpenBLAS kernel sets")
    src = str(Path(optinfo.__file__).resolve().parents[1])
    points = []
    for core in cores:
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("OPENBLAS_CORETYPE", None)
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        out = tmp_path / str(core)
        subprocess.run([sys.executable, "-c", "import sys; from optinfo.cli import main; "
                        "sys.exit(main(sys.argv[1:]))", "pde-design", "--m", "4", "--p", "inf",
                        "--eval-grid", "12", "--candidate-grid", "7", "--n-boundary", "16",
                        "--samples", "64", "--seed", "0", "--outdir", str(out)],
                       env=env, check=True, capture_output=True)
        points.append(json.loads((out / "design.json").read_text())["points"])
    assert all(p == points[0] for p in points[1:])


def test_library_not_in_the_process_has_no_pool(tmp_path):
    # RTLD_NOLOAD fails for a library the process has not loaded.
    assert _blas._pool(str(tmp_path / "libscipy_openblas-absent.so"), "") is None


def test_package_without_a_file_has_no_pool(monkeypatch):
    # A module with no __file__, such as a stub, names no directory to
    # look for a bundled library in, so only numpy's pool is found.
    monkeypatch.setitem(sys.modules, "scipy", types.ModuleType("scipy"))
    names = [path for path, _, _ in _blas._loaded_pools()]
    assert len(names) == 1 and "numpy.libs" in names[0]
