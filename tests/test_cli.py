"""CLI subcommands: exit codes, JSON/CSV outputs and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optinfo
from optinfo import cli, gaussian, pde
from optinfo.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, _contour_csvs, main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQuadratureCommand:
    def test_requires_nodes_or_optimize(self, capsys):
        code, _, err = run(["quadrature"], capsys)
        assert code == EXIT_USAGE
        assert "--nodes" in err or "--optimize" in err

    def test_optimize_uniform_four(self, capsys):
        code, out, _ = run(["quadrature", "--n", "4", "--optimize"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["nodes"] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        assert doc["bpn"] == pytest.approx(4 * 0.25**3 / 6.0)

    def test_explicit_single_node(self, capsys):
        code, out, _ = run(["quadrature", "--nodes", "0.1"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["bpn"] == pytest.approx((0.1**3 + 0.9**3) / 6.0)

    def test_nodes_and_optimize_conflict(self, capsys):
        code, _, _ = run(["quadrature", "--nodes", "0.5", "--optimize", "--n", "2"], capsys)
        assert code == EXIT_USAGE

    def test_mc_estimate_deterministic(self, capsys):
        argv = ["quadrature", "--n", "2", "--optimize", "--mc",
                "--seed", "3", "--n-outer", "2000"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2
        doc = json.loads(out1)
        mc = doc["bpn_monte_carlo"]
        assert abs(mc["estimate"] - doc["bpn"]) <= 3.0 * mc["stderr"]

    def test_n_without_optimize_exits_2(self, capsys):
        code, out, err = run(["quadrature", "--nodes", "0.3", "--n", "5"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--n requires --optimize" in err

    def test_optimize_without_n_exits_2(self, capsys):
        code, out, err = run(["quadrature", "--optimize"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--optimize requires --n" in err

    def test_nan_node_exits_2(self, capsys):
        code, out, err = run(["quadrature", "--nodes", "nan", "0.5"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite" in err

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(["quadrature", "--n", "2", "--optimize", "--output", str(target)], capsys)
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["nodes"] == [0.0, 0.5, 1.0]


class TestDiscreteCommand:
    def test_counterexample_report(self, capsys):
        code, out, err = run(["discrete", "--counterexample", "0.2", "0.3", "0.5"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["bpn"]["optimal_set"] == ["e1"]
        assert doc["bpn"]["values"] == {"e1": 0.0, "e2": pytest.approx(0.24)}
        assert "criterion" in err  # human-readable table on stderr

    def test_invalid_ordering_exits_2(self, capsys):
        code, _, err = run(["discrete", "--counterexample", "0.5", "0.3", "0.2"], capsys)
        assert code == EXIT_USAGE
        assert "p1 <= p2" in err

    def test_requires_exactly_one_source(self, capsys):
        assert run(["discrete"], capsys)[0] == EXIT_USAGE
        code, _, _ = run(
            ["discrete", "--problem", "x.json", "--counterexample", "0.2", "0.3", "0.5"], capsys
        )
        assert code == EXIT_USAGE

    def test_malformed_problem_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"states": "nope"}')
        code, _, err = run(["discrete", "--problem", str(bad)], capsys)
        assert code == EXIT_USAGE
        assert "$." in err

    def test_non_finite_prior_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps({
            "states": [{"name": "a", "prior": float("nan")}, {"name": "b", "prior": 0.5}],
            "experiments": {"e": [[1.0, 0.0], [0.0, 1.0]]},
            "actions": ["u", "v"],
            "loss": [[0.0, 1.0], [1.0, 0.0]],
        }))
        code, _, err = run(["discrete", "--problem", str(bad)], capsys)
        assert code == EXIT_USAGE
        assert "non-finite" in err

    def test_boolean_numbers_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps({
            "states": [{"name": "a", "prior": True}, {"name": "b", "prior": False}],
            "experiments": {"e": [[True, False], [False, True]]},
            "actions": ["u", "v"],
            "loss": [[0.0, 1.0], [1.0, 0.0]],
        }))
        code, _, err = run(["discrete", "--problem", str(bad)], capsys)
        assert code == EXIT_USAGE
        assert "$.states[0].prior" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(["discrete", "--problem", "/nonexistent/p.json"], capsys)
        assert code == EXIT_USAGE

    def test_problem_file_roundtrip(self, tmp_path, capsys):
        doc = {
            "states": [{"name": "a", "prior": 0.5}, {"name": "b", "prior": 0.5}],
            "experiments": {"e": [[1.0, 0.0], [0.0, 1.0]]},
            "actions": ["u", "v"],
            "loss": [[0.0, 1.0], [1.0, 0.0]],
            "state_loss": [[0.0, 1.0], [1.0, 0.0]],
        }
        src = tmp_path / "p.json"
        src.write_text(json.dumps(doc))
        code, out, _ = run(["discrete", "--problem", str(src)], capsys)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["bdt"]["values"]["e"] == pytest.approx(0.0)


class TestPdeDesignCommand:
    BASE = ["pde-design", "--m", "1", "--eval-grid", "8", "--candidate-grid", "5",
            "--n-boundary", "12", "--samples", "32", "--seed", "0"]

    def test_unsupported_p_exits_2(self, tmp_path, capsys):
        code, _, _ = run(self.BASE + ["--p", "3", "--outdir", str(tmp_path)], capsys)
        assert code == EXIT_USAGE

    def test_zero_threads_exits_2(self, tmp_path, capsys):
        code, _, err = run(self.BASE + ["--threads", "0", "--outdir", str(tmp_path)], capsys)
        assert code == EXIT_USAGE
        assert "threads" in err

    @pytest.mark.parametrize("flags, name", [
        (["--eval-grid", "0"], "eval_grid"),
        (["--eval-grid", "-3"], "eval_grid"),
        (["--candidate-grid", "0"], "candidate_grid"),
        (["--n-boundary", "-1"], "n_boundary"),
        (["--m", "26"], "candidate_grid"),
    ])
    def test_bad_sizes_exit_2(self, tmp_path, capsys, flags, name):
        code, _, err = run(self.BASE + flags + ["--outdir", str(tmp_path)], capsys)
        assert code == EXIT_USAGE
        assert name in err

    def test_failed_condition_gate_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(gaussian, "MAX_CONDITION", 1.0)
        code, _, err = run(self.BASE + ["--outdir", str(tmp_path)], capsys)
        assert code == EXIT_NUMERICAL
        assert "SingularSystem" in err

    def test_nan_in_pair_pool_exits_3(self, tmp_path, capsys, monkeypatch):
        # The Chebyshev max of the scoring kernel skips NaN, so a NaN draw
        # must stop the search rather than be scored.
        search_prior = pde._search_prior

        def poisoned(*args):
            search = search_prior(*args)
            search.pairs[5, 7] = np.nan
            return search

        monkeypatch.setattr(pde, "_search_prior", poisoned)
        out = tmp_path / "out"
        code, _, err = run(self.BASE + ["--p", "inf", "--outdir", str(out)], capsys)
        assert code == EXIT_NUMERICAL
        assert "SamplerFailure" in err
        assert not out.exists()

    def test_single_sample_pinf_runs(self, tmp_path, capsys):
        code, _, _ = run(self.BASE + ["--p", "inf", "--samples", "1",
                                      "--outdir", str(tmp_path)], capsys)
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "design.json").read_text())
        assert np.isfinite(doc["bpn_trace"][0])

    def test_m1_outputs(self, tmp_path, capsys):
        code, _, _ = run(self.BASE + ["--p", "2", "--outdir", str(tmp_path)], capsys)
        assert code == EXIT_OK
        csv = tmp_path / "step_1_p2.csv"
        assert csv.exists()
        lines = csv.read_text().splitlines()
        assert lines[0] == "x,y,bpn"
        assert len(lines) == 26  # header + 5x5 candidates
        for line in lines[1:]:
            assert len([float(cell) for cell in line.split(",")]) == 3
        doc = json.loads((tmp_path / "design.json").read_text())
        assert len(doc["points"]) == 1
        assert doc["config"]["p"] == "2"

    def test_contour_csv_matches_per_cell_format(self):
        # The per-cell writer it replaced is the oracle. NaN marks a picked
        # cell; -0.0, a subnormal and reprs with an exponent are included.
        cands = pde.EllipticDesignProblem().candidates
        grids = [np.random.default_rng(k).standard_normal((25, 25)) ** 9 for k in range(2)]
        grids[0].flat[:6] = [np.nan, -0.0, 5e-324, 7e-07, 1e300, np.nan]
        grids[1].flat[::7] = np.nan
        want = []
        for grid in grids:
            lines = ["x,y,bpn"]
            for (x, y), v in zip(cands, grid.ravel()):
                lines.append(f"{float(x)!r},{float(y)!r},{float(v)!r}")
            want.append("\n".join(lines) + "\n")
        assert list(_contour_csvs(cands, grids)) == want

    def test_rerun_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(self.BASE + ["--p", "inf", "--outdir", str(out1)], capsys)
        run(self.BASE + ["--p", "inf", "--outdir", str(out2)], capsys)
        assert (out1 / "step_1_pinf.csv").read_bytes() == (out2 / "step_1_pinf.csv").read_bytes()
        assert (out1 / "design.json").read_text() == (out2 / "design.json").read_text()

    def test_threads_do_not_change_outputs(self, tmp_path, capsys):
        out1, out4 = tmp_path / "t1", tmp_path / "t4"
        run(self.BASE + ["--p", "inf", "--outdir", str(out1), "--threads", "1"], capsys)
        run(self.BASE + ["--p", "inf", "--outdir", str(out4), "--threads", "4"], capsys)
        assert (out1 / "step_1_pinf.csv").read_bytes() == (out4 / "step_1_pinf.csv").read_bytes()
        doc1 = json.loads((out1 / "design.json").read_text())
        doc4 = json.loads((out4 / "design.json").read_text())
        assert doc1["points"] == doc4["points"]
        assert doc1["bpn_trace"] == doc4["bpn_trace"]


class TestRegressionCommand:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_superset_design_weakly_better(self, tmp_path, capsys):
        config = self.write_config(tmp_path, {
            "prior_cov": [[1.0, 0.0], [0.0, 1.0]],
            "candidates": {
                "small": [[1.0, 0.0]],
                "big": [[1.0, 0.0], [0.0, 1.0]],
            },
        })
        code, out, _ = run(["regression", "--config", config], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["A"]["values"]["big"] <= doc["A"]["values"]["small"] + 1e-12
        assert doc["A"]["optimal_set"] == ["big"]

    def test_rank_one_lambda_equals_c_value(self, tmp_path, capsys):
        c = [1.0, 2.0]
        lam = (np.outer(c, c)).tolist()
        config = self.write_config(tmp_path, {
            "prior_cov": [[2.0, 0.3], [0.3, 1.0]],
            "candidates": {"e": [[1.0, 1.0]]},
            "lambda": lam,
            "c": c,
        })
        code, out, _ = run(["regression", "--config", config], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["A"]["values"]["e"] == pytest.approx(doc["c"]["values"]["e"], rel=1e-10)

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"prior_cov": [[1.0]],\n "candidates": ')
        code, out, err = run(["regression", "--config", str(config)], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: $: invalid JSON at line 2: Expecting value\n"

    def test_missing_key_exits_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path, {"prior_cov": [[1.0]]})
        code, _, err = run(["regression", "--config", config], capsys)
        assert code == EXIT_USAGE
        assert "candidates" in err

    @pytest.mark.parametrize("doc, path", [
        ({"prior_cov": [[1.0]], "candidates": [[1.0]]}, "$.candidates"),
        ({"prior_cov": [[1.0]], "candidates": {}}, "$.candidates"),
        ({"prior_cov": [[1.0, 0.0], [0.0, 1.0]], "candidates": {"e": [[1.0, 0.0, 0.0]]}},
         "$.candidates.e"),
        ({"prior_cov": [[1.0, 0.0]], "candidates": {"e": [[1.0, 0.0]]}}, "$.prior_cov"),
    ], ids=["candidates-array", "candidates-empty", "width-mismatch", "prior-not-square"])
    def test_bad_shapes_exit_2(self, tmp_path, capsys, doc, path):
        code, _, err = run(["regression", "--config", self.write_config(tmp_path, doc)], capsys)
        assert code == EXIT_USAGE
        assert path in err

    def test_boolean_prior_exits_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path, {
            "prior_cov": [[True, False], [False, True]],
            "candidates": {"e": [[1.0, 0.0]]},
        })
        code, _, err = run(["regression", "--config", config], capsys)
        assert code == EXIT_USAGE
        assert "$.prior_cov" in err

    @pytest.mark.parametrize("doc, message", [
        ({"prior_cov": [["1", "0"], ["0", "1e0"]], "candidates": {"e": [[1.0, 0.0]]}},
         "$.prior_cov[0][0]: must be a number"),
        ({"prior_cov": [[1.0, 0.0], [0.0, 1.0]], "candidates": {"e": [[1.0, " 2 "]]}},
         "$.candidates.e[0][1]: must be a number"),
        ({"prior_cov": [[1.0, 0.0], [0.0, 10**400]], "candidates": {"e": [[1.0, 0.0]]}},
         "$.prior_cov[1][1]: non-finite or out-of-range number"),
    ], ids=["string-in-prior-cov", "string-in-candidate", "integer-beyond-float-range"])
    def test_entries_that_are_not_finite_numbers_exit_2(self, tmp_path, capsys, doc, message):
        code, out, err = run(["regression", "--config", self.write_config(tmp_path, doc)], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"

    def test_non_psd_prior_exits_3(self, tmp_path, capsys):
        config = self.write_config(tmp_path, {
            "prior_cov": [[1.0, 2.0], [2.0, 1.0]],
            "candidates": {"e": [[1.0, 0.0]]},
        })
        code, _, _ = run(["regression", "--config", config], capsys)
        assert code == EXIT_NUMERICAL


class TestSeedFallback:
    def test_env_seed_used_when_flag_absent(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPTINFO_SEED", "77")
        code, out, _ = run(["quadrature", "--n", "1", "--optimize"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["seed"] == 77

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("OPTINFO_SEED", "77")
        _, out, _ = run(["quadrature", "--n", "1", "--optimize", "--seed", "5"], capsys)
        assert json.loads(out)["seed"] == 5

    def test_garbage_env_falls_back_to_zero(self, capsys, monkeypatch):
        monkeypatch.setenv("OPTINFO_SEED", "not-a-number")
        _, out, _ = run(["quadrature", "--n", "1", "--optimize"], capsys)
        assert json.loads(out)["seed"] == 0

    def test_negative_env_falls_back_to_zero(self, capsys, monkeypatch):
        monkeypatch.setenv("OPTINFO_SEED", "-5")
        _, out, _ = run(["quadrature", "--n", "1", "--optimize"], capsys)
        assert json.loads(out)["seed"] == 0

    @pytest.mark.parametrize("argv", [
        ["quadrature", "--n", "2", "--optimize"],
        ["quadrature", "--n", "2", "--optimize", "--mc"],
    ])
    def test_negative_seed_flag_exits_2(self, capsys, argv):
        code, out, err = run(argv + ["--seed", "-1"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--seed" in err

    @pytest.mark.parametrize("p", ["2", "inf"])
    def test_negative_seed_flag_writes_nothing(self, tmp_path, capsys, p):
        outdir = tmp_path / "out"
        code, _, err = run(["pde-design", "--m", "1", "--eval-grid", "8", "--candidate-grid", "5",
                            "--n-boundary", "12", "--samples", "32", "--p", p, "--seed", "-1",
                            "--outdir", str(outdir)], capsys)
        assert code == EXIT_USAGE
        assert "--seed" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("flags, name", [
        (["--m", "0"], "m = 0"),
        (["--m", "99"], "m = 99"),
        (["--threads", "0"], "threads"),
        (["--samples", "0"], "samples"),
    ])
    def test_rejected_size_writes_nothing(self, tmp_path, capsys, flags, name):
        outdir = tmp_path / "out"
        code, _, err = run(["pde-design", "--m", "1", "--eval-grid", "8", "--candidate-grid", "5",
                            "--n-boundary", "12", "--samples", "32", *flags,
                            "--outdir", str(outdir)], capsys)
        assert code == EXIT_USAGE
        assert name in err
        assert not outdir.exists()


class TestArgparseBehaviour:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["regression", "--config", "{dir}"],
        ["discrete", "--problem", "{dir}"],
        ["quadrature", "--optimize", "--n", "2", "--output", "{dir}"],
        TestPdeDesignCommand.BASE + ["--outdir", "{file}"],
    ], ids=["regression-config-dir", "discrete-problem-dir", "quadrature-output-dir",
            "pde-design-outdir-file"])
    def test_os_error_exits_2(self, tmp_path, capsys, argv):
        # A directory where a file is read or written, or a file where the
        # output directory goes, is bad input: exit 2 with one error line.
        afile = tmp_path / "afile"
        afile.write_text("")
        code, _, err = run([a.format(dir=tmp_path, file=afile) for a in argv], capsys)
        assert code == EXIT_USAGE
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestCachedParser:
    QUADRATURE = ["quadrature", "--n", "2", "--optimize", "--mc", "--n-outer", "200"]

    def test_env_seed_read_on_each_call(self, capsys, monkeypatch):
        seeds = []
        for env in ("11", "12"):
            monkeypatch.setenv("OPTINFO_SEED", env)
            _, out, _ = run(self.QUADRATURE, capsys)
            seeds.append(json.loads(out)["seed"])
        assert seeds == [11, 12]

    def test_failed_parses_leave_no_state(self, capsys, monkeypatch):
        # Each rejected or --help argv sets a value that the valid call
        # leaves at its default.
        monkeypatch.delenv("OPTINFO_SEED", raising=False)
        cli.build_parser.cache_clear()
        alone = run(self.QUADRATURE, capsys)
        cli.build_parser.cache_clear()
        codes = [run(argv, capsys)[0] for argv in (
            ["quadrature", "--optimize", "--n", "3", "--n-outer", "x"],
            ["quadrature", "--nodes", "0.5", "--optimize", "--seed", "4"],
            ["quadrature", "--n-inner", "7", "--help"],
        )]
        assert codes == [EXIT_USAGE, EXIT_USAGE, EXIT_OK]
        assert run(self.QUADRATURE, capsys) == alone
        assert alone[0] == EXIT_OK and json.loads(alone[1])["seed"] == 0

    def test_parser_built_once_and_not_at_import(self):
        probe = (
            "import argparse, contextlib, io, json\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import optinfo.cli\n"
            "counts = [len(built)]\n"
            "argv = ['discrete', '--counterexample', '0.2', '0.3', '0.5']\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    for _ in range(4):\n"
            "        optinfo.cli.main(argv)\n"
            "        counts.append(len(built))\n"
            "print(json.dumps([counts, built.count('optinfo')]))\n"
        )
        src = str(Path(optinfo.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                             check=True, capture_output=True, text=True).stdout
        counts, top_level = json.loads(out)
        # The top-level parser and one per subcommand, all on the first call.
        assert counts[0] == 0 and counts[1] == counts[-1] == 5
        assert top_level == 1


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 0.3 s to import, and no subcommand needs it.
    src = str(Path(optinfo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, optinfo, optinfo.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def _scipy_after(*argvs):
    """Exit codes of ``main`` on each argv, run in turn in one fresh
    process, and the scipy modules loaded after the last of them."""
    probe = (
        "import contextlib, io, json, sys, optinfo, optinfo.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [optinfo.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    src = str(Path(optinfo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_numpy_only_subcommands_leave_scipy_unloaded():
    # Each call is a fresh process, and importing scipy.linalg would cost
    # more than these subcommands run.
    codes, loaded = _scipy_after(
        ["--help"],
        ["discrete", "--counterexample", "0.2", "0.3", "0.5"],
        ["quadrature", "--n", "4", "--optimize", "--mc", "--n-outer", "200"],
    )
    assert codes == [EXIT_OK] * 3
    assert loaded == []


def test_pde_design_loads_scipy_linalg(tmp_path):
    # Positive control for the probe above: GP conditioning needs scipy.linalg.
    codes, loaded = _scipy_after(["pde-design", "--eval-grid", "8", "--candidate-grid", "5",
                                  "--m", "1", "--outdir", str(tmp_path)])
    assert codes == [EXIT_OK]
    assert "scipy.linalg" in loaded


PDE_SMALL = ["pde-design", "--eval-grid", "8", "--candidate-grid", "5", "--m", "2",
             "--samples", "16"]


def test_other_subcommands_leave_scipy_spatial_unloaded(tmp_path):
    # scipy.spatial pulls in scipy.sparse and scipy.special; only the
    # p = inf scoring kernel needs it.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"prior_cov": [[1.0, 0.0], [0.0, 1.0]],
                                  "candidates": {"e": [[1.0, 0.0]]}}))
    codes, loaded = _scipy_after(
        PDE_SMALL + ["--p", "2", "--outdir", str(tmp_path / "p2")],
        ["regression", "--config", str(config)],
        ["discrete", "--counterexample", "0.2", "0.3", "0.5"],
        ["quadrature", "--n", "4", "--optimize", "--mc", "--n-outer", "200"],
    )
    assert codes == [EXIT_OK] * 4
    assert "scipy.linalg" in loaded
    assert "scipy.spatial" not in loaded


def test_pinf_search_loads_scipy_spatial(tmp_path):
    # Positive control for the probe above.
    codes, loaded = _scipy_after(PDE_SMALL + ["--p", "inf", "--outdir", str(tmp_path / "pinf")])
    assert codes == [EXIT_OK]
    assert "scipy.spatial" in loaded


def test_pde_design_bytes_do_not_depend_on_blas_threads(tmp_path):
    # The smallest sizes found whose bytes changed with OPENBLAS_NUM_THREADS
    # on 2 cores before the library pinned its BLAS pools: the p = 2 step 4
    # contour of the default grids, and the p = inf design at eval grid 12.
    runs = [
        ["pde-design", "--m", "4", "--p", "2"],
        ["pde-design", "--m", "1", "--p", "inf", "--eval-grid", "12", "--candidate-grid", "3",
         "--n-boundary", "8", "--samples", "2"],
    ]
    probe = ("import json, sys, optinfo.cli\n"
             "sys.exit(max(optinfo.cli.main(argv) for argv in json.loads(sys.argv[1])))\n")
    src = str(Path(optinfo.__file__).resolve().parents[1])
    outputs = []
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = src
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        outdir = tmp_path / str(threads)
        argvs = [argv + ["--outdir", str(outdir / f"p{argv[4]}")] for argv in runs]
        subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)], env=env, check=True,
                       capture_output=True)
        outputs.append({str(f.relative_to(outdir)): f.read_bytes()
                        for f in sorted(outdir.rglob("*")) if f.is_file()})
    assert len(outputs[0]) == 7  # 4 + 1 step CSVs and a design.json per run
    assert outputs[0] == outputs[1] == outputs[2]
