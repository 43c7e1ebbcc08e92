from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    OOM_TEXT,
    markdown_cells,
    nan_coefficient_problem,
    nan_load_problem,
    near_zero_coefficient_problem,
    no_exact_problem,
    noncoercive_problem,
    patch_problem,
    starve_assembly,
)

import cuspfem.assembly
import cuspfem.experiments
import cuspfem.mesh
import cuspfem.problem
from cuspfem import (
    ERROR_REPORT_COLUMNS,
    MeshDiagnostics,
    MeshParams,
    SweepConfig,
    Table,
    build_mesh,
    convergence_table,
    ratio_table,
    run_convergence,
    sample_solution,
)
from cuspfem.experiments import _CONFIG_KEYS, CONVERGENCE_COLUMNS, build_parser, main

QUICK = ["--lambda", "0.25", "--eps", "1e-6", "--n", "16", "--k", "1"]
QUICK_CONFIG = SweepConfig(lam=0.25, eps_list=(1e-6,), n_list=(16,), k_list=(1,))
SWEEP = ["--lambda", "0.25", "--eps", "1,1e-6", "--n", "16,32", "--k", "1,2"]
SWEEP_CONFIG = SweepConfig(lam=0.25, eps_list=(1.0, 1e-6), n_list=(16, 32), k_list=(1, 2))


def _eps_sweep_table(config: SweepConfig) -> Table:
    by_case = {(r.eps, r.order, r.n_half): r.sd for r in run_convergence(config)}
    columns = ("eps",) + tuple(f"k{k}_n{n}" for k in config.k_list for n in config.n_list)
    rows = tuple(
        (eps, *(by_case[(eps, k, n)] for k in config.k_list for n in config.n_list))
        for eps in config.eps_list
    )
    return Table(columns, rows)


def _assert_csv_equals(text: str, table: Table) -> None:
    lines = text.splitlines()
    assert lines[0] == ",".join(table.columns)
    assert len(lines) == 1 + len(table.rows)
    for line, row in zip(lines[1:], table.rows):
        cells = line.split(",")
        assert len(cells) == len(row)
        for cell, value in zip(cells, row):
            if value is None:
                assert cell == ""
            elif isinstance(value, (bool, str)):
                assert cell == str(value)
            elif isinstance(value, (int, np.integer)):
                assert int(cell) == value
            elif math.isnan(value):
                assert cell == "nan"
            else:
                assert float(cell) == value


class TestMeshVerb:
    def test_header_on_stdout(self, capsys):
        assert main(["mesh", "--eps", "1e-4", "--n", "64", "--k", "2", "--lambda", "0.25"]) == 0
        out = capsys.readouterr().out
        header = json.loads(out.splitlines()[0])
        assert header["K"] == 2
        assert header["sigma"] == pytest.approx(1.4678e-2, rel=1e-4)
        assert header["N"] == 64

    def test_out_writes_nodes_and_header(self, tmp_path, capsys):
        path = tmp_path / "mesh.csv"
        code = main(
            ["mesh", "--eps", "1e-4", "--n", "64", "--k", "2", "--lambda", "0.25", "--out", str(path)]
        )
        assert code == 0
        capsys.readouterr()
        nodes = np.array([float(s) for s in path.read_text().split()])
        mesh = build_mesh(MeshParams(1e-4, 64, 2, 0.25))
        assert np.array_equal(nodes, mesh.nodes)
        assert json.loads((tmp_path / "mesh.csv.json").read_text())["K"] == mesh.big_k

    @pytest.mark.parametrize("workers", ["0", "2"])
    def test_full_config_validated(self, workers, capsys):
        # cases run on the calling thread; --workers takes only 1
        with pytest.raises(SystemExit) as exc:
            main(["mesh", "--eps", "1e-4", "--n", "64", "--k", "2", "--workers", workers])
        assert exc.value.code == 1
        assert f"argument --workers: invalid choice: {workers}" in capsys.readouterr().err

    def test_too_coarse_exits_2(self, capsys):
        code = main(["mesh", "--eps", "1e-40", "--n", "4", "--k", "8", "--lambda", "0.005"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: mesh too coarse")

    def test_violation_exits_2_after_the_header(self, monkeypatch, capsys):
        planted = MeshDiagnostics(("planted violation",), 0.5)
        monkeypatch.setattr("cuspfem.experiments.validate_mesh", lambda mesh: planted)
        assert main(["mesh", "--eps", "1e-4", "--n", "64", "--k", "2"]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["N"] == 64
        assert err == "violation: planted violation\n"

    def test_out_of_memory_exits_2(self, monkeypatch, capsys):
        def starved(n_half, big_k):
            raise MemoryError(OOM_TEXT)

        monkeypatch.setattr(cuspfem.mesh, "_decade_parts", starved)
        assert main(["mesh", "--eps", "1e-4", "--n", "64", "--k", "2"]) == 2
        assert capsys.readouterr() == ("", f"error: out of memory in build_mesh: {OOM_TEXT}\n")


class TestSolveVerb:
    def test_csv_matches_library_run(self, capsys):
        assert main(["solve", *QUICK]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(ERROR_REPORT_COLUMNS)
        cells = lines[1].split(",")
        rows = run_convergence(SweepConfig(lam=0.25, eps_list=(1e-6,), n_list=(16,), k_list=(1,)))
        assert float(cells[6]) == rows[0].energy
        assert cells[3] == "uniform" and cells[4] == "none"

    def test_sdfem_policy_reported(self, capsys):
        assert main(["solve", *QUICK, "--method", "sdfem", "--delta-policy", "standard"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[4] == "standard"

    def test_multi_case_rejected(self, capsys):
        assert main(["solve", "--eps", "1e-6", "--n", "16,32", "--k", "1"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_markdown_format(self, capsys):
        assert main(["solve", *QUICK, "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| eps |")


@pytest.mark.parametrize(
    "argv, library",
    [
        (["converge", *SWEEP], lambda: convergence_table(run_convergence(SWEEP_CONFIG))),
        (["ratio", *SWEEP], lambda: ratio_table(run_convergence(SWEEP_CONFIG))),
        (
            ["eps-sweep", *SWEEP, "--method", "sdfem"],
            lambda: _eps_sweep_table(replace(SWEEP_CONFIG, method="sdfem")),
        ),
        (["sample", *QUICK, "--resolution", "11"], lambda: sample_solution(QUICK_CONFIG, 11)),
    ],
    ids=["converge", "ratio", "eps-sweep", "sample"],
)
def test_table_verbs_match_library(argv, library, capsys):
    assert main(argv) == 0
    _assert_csv_equals(capsys.readouterr().out, library())


class TestConvergeVerb:
    def test_basic_run(self, capsys):
        assert main(["converge", "--lambda", "0.25", "--eps", "1e-6", "--n", "16,32", "--k", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(CONVERGENCE_COLUMNS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[CONVERGENCE_COLUMNS.index("energy_rate")] != ""

    def test_failing_row_exits_2(self, capsys):
        code = main(["converge", "--lambda", "0.005", "--eps", "1e-30", "--n", "4,64", "--k", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "row failure" in err

    def test_failed_rows_parse_as_csv(self, monkeypatch, capsys):
        # the assembly error names an interval, "(x in [a, b])", so the cell holds a comma
        monkeypatch.setitem(cuspfem.problem._REGISTRY, "nan-load-probe", nan_load_problem)
        assert main(["converge", *SWEEP, "--problem", "nan-load-probe", "--eps", "1e-6"]) == 2
        header, *rows = csv.reader(capsys.readouterr().out.splitlines())
        assert header == list(CONVERGENCE_COLUMNS) and len(rows) == 4
        config = replace(SWEEP_CONFIG, problem="nan-load-probe", eps_list=(1e-6,))
        errors = [r.error for r in run_convergence(config)]
        assert all("," in e for e in errors)
        for row, error in zip(rows, errors):
            assert len(row) == len(CONVERGENCE_COLUMNS)
            assert row[CONVERGENCE_COLUMNS.index("error")] == error

    def test_failed_row_keeps_the_markdown_columns(self, monkeypatch, capsys):
        # a NaN residual at k = 2 fails the row with "max |Ax - b| = nan ..."
        residual = cuspfem.assembly._element_residual

        def nan_at_k2(system, coeffs):
            r = residual(system, coeffs)
            return np.full_like(r, np.nan) if system.order == 2 else r

        monkeypatch.setattr(cuspfem.assembly, "_element_residual", nan_at_k2)
        assert main(["converge", *SWEEP, "--eps", "1e-6", "--format", "markdown"]) == 2
        out, err = capsys.readouterr()
        message = "residual contract violated: max |Ax - b| = nan is not finite"
        assert err == f"row failure: {message}\n" * 2
        header, _, *rows = (markdown_cells(line) for line in out.splitlines())
        assert header == list(CONVERGENCE_COLUMNS) and len(rows) == 4
        for row in rows:
            assert len(row) == len(CONVERGENCE_COLUMNS)
        escaped = message.replace("|", r"\|")
        assert [row[header.index("error")] for row in rows] == ["", "", escaped, escaped]

    def test_out_of_memory_row_fails_and_the_others_print(self, monkeypatch, capsys):
        starve_assembly(monkeypatch, max_columns=33)  # N = 16 fits, N = 32 does not
        assert main(["converge", *SWEEP, "--eps", "1e-6", "--k", "1"]) == 2
        out, err = capsys.readouterr()
        message = f"out of memory in _assemble: {OOM_TEXT}"
        assert err == f"row failure: {message}\n"
        _, *rows = csv.reader(out.splitlines())
        fits, starved = (dict(zip(CONVERGENCE_COLUMNS, row)) for row in rows)
        assert fits["error"] == "" and fits["residual_ok"] == "True"
        assert starved["error"] == message and starved["energy"] == "nan"

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "conv.csv"
        code = main(
            ["converge", "--lambda", "0.25", "--eps", "1e-6", "--n", "16,32", "--k", "1",
             "--out", str(path)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert path.read_text().splitlines()[0] == ",".join(CONVERGENCE_COLUMNS)


class TestOtherVerbs:
    def test_ratio(self, capsys):
        assert main(["ratio", "--lambda", "0.25", "--eps", "1", "--n", "64,128", "--k", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "eps,N,K,k,energy,ratio,error"
        assert len(lines) == 3

    def test_ratio_of_sdfem_scales_the_sd_norm(self, capsys):
        # the paper's SDFEM bound is in the SD norm, which eps-sweep reports too
        argv = ["ratio", "--lambda", "0.25", "--eps", "1e-6", "--n", "64,128", "--k", "2",
                "--method", "sdfem"]
        assert main(argv) == 0
        config = SweepConfig(
            lam=0.25, eps_list=(1e-6,), n_list=(64, 128), k_list=(2,), method="sdfem"
        )
        rows = run_convergence(config)
        table = ratio_table(rows, "sd")
        assert table.columns == ("eps", "N", "K", "k", "sd", "ratio", "error")
        for r, row in zip(rows, table.rows):
            assert row[4] == r.sd and row[5] == r.sd * 100.0 * (r.n_half / (r.big_k + 1)) ** 2
        _assert_csv_equals(capsys.readouterr().out, table)

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_ratio_of_a_failed_row_is_nan(self, fmt, capsys):
        argv = ["ratio", "--lambda", "0.005", "--eps", "1e-30", "--n", "4,64", "--k", "2"]
        assert main([*argv, "--format", fmt]) == 2  # N = 4 is too coarse
        lines = capsys.readouterr().out.splitlines()
        if fmt == "csv":
            ratios = [row[5] for row in csv.reader(lines[1:])]
        else:
            ratios = [line.split(" | ")[5] for line in lines[2:]]
        config = SweepConfig(lam=0.005, eps_list=(1e-30,), n_list=(4, 64), k_list=(2,))
        ratio = ratio_table(run_convergence(config)).rows[1][5]
        assert ratios == ["nan", f"{ratio:.17g}" if fmt == "csv" else f"{ratio:.2f}"]

    def test_eps_sweep_wide_layout(self, capsys):
        code = main(["eps-sweep", "--lambda", "0.25", "--eps", "1,1e-4", "--n", "16,32", "--k", "1,2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "eps,k1_n16,k1_n32,k2_n16,k2_n32"
        assert len(lines) == 3

    @pytest.mark.parametrize("from_config", [False, True], ids=["flags", "config"])
    def test_eps_sweep_explicit_values_kept(self, from_config, tmp_path, capsys):
        # the values equal the converge defaults but must not be swapped for the sweep grid
        if from_config:
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps({"lambda": 0.25, "eps": 1e-10, "n": 128, "k": 1}))
            argv = ["eps-sweep", "--config", str(conf)]
        else:
            argv = ["eps-sweep", "--lambda", "0.25", "--eps", "1e-10", "--n", "128", "--k", "1"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "eps,k1_n128"
        assert len(lines) == 2 and float(lines[1].split(",")[0]) == 1e-10

    def test_eps_sweep_default_grid(self, capsys):
        assert main(["eps-sweep"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "eps," + ",".join(f"k{k}_n{n}" for k in (1, 2, 3, 4) for n in (512, 1024))
        eps = [float(line.split(",")[0]) for line in lines[1:]]
        assert eps == [1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14]

    def test_sample_resolution(self, capsys):
        assert main(["sample", *QUICK, "--resolution", "11"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,u_N,u,err"
        assert len(lines) >= 12

    def test_sample_too_coarse_exits_2(self, capsys):
        assert main(["sample", "--eps", "1e-40", "--n", "4", "--k", "8"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: mesh too coarse")

    def test_sample_out_of_memory_exits_2(self, monkeypatch, capsys):
        starve_assembly(monkeypatch)
        assert main(["sample", *QUICK]) == 2
        assert capsys.readouterr() == ("", f"error: out of memory in _assemble: {OOM_TEXT}\n")

    def test_sample_needs_an_exact_solution(self, monkeypatch, capsys):
        monkeypatch.setitem(cuspfem.problem._REGISTRY, "no-exact-probe", no_exact_problem)
        assert main(["sample", *QUICK, "--problem", "no-exact-probe"]) == 1
        err = "config error: sample_solution needs a problem with exact solution\n"
        assert capsys.readouterr() == ("", err)

    def test_family_alias(self, capsys):
        assert main(["solve", *QUICK, "--family", "lobatto"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[3] == "gauss-lobatto"


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"lambda": 0.25, "eps": [1e-6], "n": [16], "k": [1]}))
        assert main(["solve", "--config", str(conf)]) == 0
        base = capsys.readouterr().out
        assert main(["solve", "--config", str(conf), "--n", "32"]) == 0
        override = capsys.readouterr().out
        assert base.splitlines()[1].split(",")[1] == "16"
        assert override.splitlines()[1].split(",")[1] == "32"

    def test_scalar_values_match_list_form(self, tmp_path, capsys):
        outputs = []
        for eps, n, k in ((1e-6, 16, 1), ([1e-6], [16], [1])):
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps({"lambda": 0.25, "eps": eps, "n": n, "k": k}))
            assert main(["solve", "--config", str(conf)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[1].split(",")[1:3] == ["16", "1"]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"mesh_size": 3}))
        assert main(["solve", "--config", str(conf), *QUICK]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_array_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps([{"n": 16}]))
        assert main(["solve", "--config", str(conf), *QUICK]) == 1
        assert "expected a JSON object" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "none.json"), *QUICK]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad, flags",
        [
            ({"n": 16.7}, ["--n", "16.7"]),
            ({"workers": 2.5}, ["--workers", "2.5"]),
            ({"eps": True}, ["--eps", "True"]),
            ({"problem": "nope"}, ["--problem", "nope"]),
            ({"family": "chebyshev"}, ["--family", "chebyshev"]),
            (
                {"method": "sdfem", "delta_policy": "bogus"},
                ["--method", "sdfem", "--delta-policy", "bogus"],
            ),
        ],
        ids=["fractional-n", "fractional-workers", "bool-eps", "problem", "family", "delta-policy"],
    )
    def test_bad_value_rejected_as_flag_is(self, bad, flags, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"lambda": 0.25, "eps": [1e-6], "n": [16], "k": [1], **bad}))
        for argv in (["solve", *QUICK, *flags], ["solve", "--config", str(conf)]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
            assert "error: argument" in capsys.readouterr().err

    def test_out_is_a_file_name(self, tmp_path, monkeypatch, capfd):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "conf.json").write_text(json.dumps({"out": 1}))
        assert main(["solve", "--config", "conf.json", *QUICK]) == 0
        os.fstat(1)  # raises if the table write closed stdout
        assert capfd.readouterr().out == ""
        assert (tmp_path / "1").read_text().startswith(",".join(ERROR_REPORT_COLUMNS))

    def test_null_means_unset(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"c0": None, "delta_policy": None}))
        assert main(["solve", "--config", str(conf), *QUICK, "--method", "sdfem"]) == 0
        nulls = capsys.readouterr().out
        assert main(["solve", *QUICK, "--method", "sdfem"]) == 0
        assert nulls == capsys.readouterr().out

    def test_config_keys_are_the_sample_flags(self):
        # sample has every flag; a new flag without a config key fails here
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {
            name[2:].replace("-", "_")
            for action in sub.choices["sample"]._actions for name in action.option_strings
            if name.startswith("--")
        }
        assert _CONFIG_KEYS == flags - {"help", "config"}

    def test_every_key_matches_its_flag(self, tmp_path, capsys):
        conf = {
            "problem": "sun-stynes-example", "lambda": 0.5, "eps": [1e-6], "n": [16], "k": [2],
            "method": "sdfem", "family": "lobatto", "c0": 0.5, "delta_policy": "theorem-capped",
            "quad_assembly": 6, "quad_error_points": 4, "quad_error_panels": 2,
            "out": str(tmp_path / "conf.md"), "format": "markdown", "workers": 1, "resolution": 11,
        }
        (tmp_path / "conf.json").write_text(json.dumps(conf))
        assert main(["sample", "--config", str(tmp_path / "conf.json")]) == 0
        argv = []
        for key, v in {**conf, "out": str(tmp_path / "flags.md")}.items():
            text = ",".join(map(str, v)) if isinstance(v, list) else str(v)
            argv += ["--" + key.replace("_", "-"), text]
        assert main(["sample", *argv]) == 0
        assert capsys.readouterr().out == ""
        table = (tmp_path / "flags.md").read_text()
        assert table.startswith("| x | u_N | u | err |") and len(table.splitlines()) > 13
        assert (tmp_path / "conf.md").read_text() == table


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", *SWEEP, "--method", "sdfem", "--c0", "-1"],
        ["converge", *SWEEP, "--method", "sdfem", "--c0", "nan"],
        ["converge", *SWEEP, "--k", "2", "--quad-assembly", "1"],
        ["converge", *SWEEP, "--lambda", "-1"],
        ["sample", *QUICK, "--resolution", "1"],
    ],
    ids=["c0-negative", "c0-nan", "quad-assembly-below-k+1", "lambda-negative", "resolution-1"],
)
def test_invalid_setting_is_a_config_error(argv, capsys):
    # a value that no row can run with aborts the run instead of failing every row
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "row failure" not in err


@pytest.mark.parametrize(
    "lam, message",
    [
        ("nan", "lambda must lie in [0, k + 1] = [0, 2], got nan"),
        ("inf", "lambda must lie in [0, k + 1] = [0, 2], got inf"),
        ("-inf", "lambda must lie in [0, k + 1] = [0, 2], got -inf"),
        # inside the mesh's [0, k + 1], but the problem needs lambda > 0
        ("0", "not 0 < lam < inf: got lam = 0.0"),
    ],
    ids=["nan", "inf", "-inf", "0"],
)
def test_non_positive_or_non_finite_lambda_is_named(lam, message, capsys):
    # lambda = nan once passed make_test_problem and was reported as
    # "need c >= 0 on [-1, 1] and c(0) > 0", with a RuntimeWarning
    assert main(["converge", *SWEEP[2:], f"--lambda={lam}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: {message}\n"


def test_noncoercive_problem_fails_on_every_run(monkeypatch, capsys):
    # no Problem is kept between runs: the second run makes it, and fails, again
    monkeypatch.setitem(cuspfem.problem._REGISTRY, "noncoercive-probe", noncoercive_problem)
    argv = ["eps-sweep", "--problem", "noncoercive-probe", "--method", "sdfem",
            "--delta-policy", "theorem-capped", "--eps", "1e-4,1e-6", "--n", "16", "--k", "1,2"]
    for _ in range(2):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "coercivity" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--method", "fem"],
        ["solve", "--method", "sdfem"],
        ["sample", "--method", "fem"],
    ],
    ids=["galerkin", "standard-sdfem", "sample"],
)
def test_noncoercive_problem_is_a_config_error_for_every_method(argv, monkeypatch, capsys):
    # gamma > 0 is checked when the Problem is made, not only for theorem-capped deltas
    monkeypatch.setitem(cuspfem.problem._REGISTRY, "noncoercive-probe", noncoercive_problem)
    case = ["--problem", "noncoercive-probe", "--eps", "1e-4", "--n", "16", "--k", "2"]
    assert main([*argv, *case]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: coercivity condition violated")


def test_near_zero_coefficient_problem_solves_theorem_capped(monkeypatch, capsys):
    # with b = c = 1e-280, 2 ||c||^2 underflows to 0, and the delta cap once
    # divided by it: a ZeroDivisionError escaped main
    monkeypatch.setitem(cuspfem.problem._REGISTRY, "near-zero-probe", near_zero_coefficient_problem)
    argv = ["solve", "--problem", "near-zero-probe", "--eps", "1", "--lambda", "1", "--n", "16",
            "--k", "2", "--method", "sdfem", "--delta-policy", "theorem-capped"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[1].startswith("1,16,2,uniform,theorem-capped,")


@pytest.mark.parametrize("verb", ["converge", "eps-sweep", "ratio", "solve", "sample"])
def test_mesh_lambda_above_lambda_bar_is_a_config_error(verb, monkeypatch, capsys):
    # the patch problem ignores --lambda: b = c = 1, so lambda_bar = 1
    monkeypatch.setitem(cuspfem.problem._REGISTRY, "patch-probe", lambda eps, lam: patch_problem(eps))
    case = ["--problem", "patch-probe", "--eps", "1e-4", "--n", "16", "--k", "2"]
    assert main([verb, *case, "--lambda", "1.5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: mesh lambda 1.5 exceeds the problem's lambda_bar = c(0)/b(0) = 1.0\n"
    # lambda_bar itself, and a lambda within a few ulps above it, are fine
    for lam in ("1", repr(1.0 + 2 ** -52)):
        assert main([verb, *case, "--lambda", lam]) == 0
        assert capsys.readouterr().err == ""


def test_nan_coefficient_is_a_config_error(monkeypatch, capsys):
    # c = NaN at x = 0.5 once gave a NaN delta cap, and every row failed
    # in the banded LU with "array must not contain infs or NaNs"
    monkeypatch.setitem(cuspfem.problem._REGISTRY, "nan-c-probe", nan_coefficient_problem)
    argv = ["solve", "--problem", "nan-c-probe", "--eps", "1e-4", "--n", "16", "--k", "2",
            "--method", "sdfem", "--delta-policy", "theorem-capped"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "row failure" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--k", "1,9"], "polynomial order must be in 1..8, got 9"),
        (["--k", "0,1"], "polynomial order must be in 1..8, got 0"),
        (
            ["--eps", "1e-6", "--k", "4,1", "--lambda", "2.5"],
            "lambda must lie in [0, k + 1] = [0, 2], got 2.5",
        ),
    ],
    ids=["1,9", "0,1", "lambda-above-the-second-k"],
)
def test_order_outside_1_to_8_stops_before_any_case(argv, message, monkeypatch, capsys):
    # k = 9, and a lambda above k + 1 for the list's second k, were found
    # only when their first case built its mesh or basis, after every case
    # of the first k had been solved
    solved = []
    solve = cuspfem.experiments._solve
    monkeypatch.setattr(
        cuspfem.experiments, "_solve", lambda *args: solved.append(args) or solve(*args)
    )
    assert main(["converge", "--n", "64,128", *argv]) == 1
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert solved == []


@pytest.mark.parametrize("verb", ["solve", "ratio", "eps-sweep", "converge"])
def test_each_row_on_a_failing_mesh_is_named_on_stderr(verb, monkeypatch, capsys):
    # only converge's rows have a mesh_ok column; the others say it on
    # stderr, one line a row, and keep their exit status
    planted = MeshDiagnostics(("planted violation", "second violation"), 0.5)
    monkeypatch.setattr("cuspfem.experiments.validate_mesh", lambda mesh: planted)
    argv = QUICK if verb == "solve" else SWEEP
    assert main([verb, *argv]) == 0
    out, err = capsys.readouterr()
    if verb == "converge":
        assert err == "" and out.count(",False,") == 8
        return
    cases = [(1e-6, 16, 1)] if verb == "solve" else [
        (eps, n, k) for eps in (1.0, 1e-6) for k in (1, 2) for n in (16, 32)
    ]
    assert err == "".join(
        f"mesh violation: eps {eps!r}, N {n}, k {k}: planted violation\n" for eps, n, k in cases
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--eps", "1e-6", "--lambda", "2.5", "--k", "1", "--n", "16"],
        # sigma = 1 for any lambda at eps = 1, so only the lambda check stops this run
        ["converge", "--eps", "1", "--lambda", "5", "--k", "1", "--n", "16"],
    ],
    ids=["eps-1e-6", "eps-1"],
)
def test_lambda_above_k_plus_1_is_a_config_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: lambda must lie in [0, k + 1] = [0, 2], got ")
    assert "sigma" not in err


class TestArgErrors:
    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--epsilon", "1e-6"])
        assert exc.value.code == 1

    def test_unknown_verb_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["interpolate"])
        assert exc.value.code == 1

    def test_io_error_exits_1(self, tmp_path, capsys):
        code = main(["converge", *QUICK, "--out", str(tmp_path / "no" / "out.csv")])
        assert code == 1
        assert "io error" in capsys.readouterr().err


def test_console_script_entry_point():
    exe = shutil.which("cuspfem")
    if exe is not None:
        cmd, env = [exe], None
    else:
        # not installed: run the [project.scripts] target from this checkout
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            module, func = tomllib.load(fh)["project"]["scripts"]["cuspfem"].split(":")
        code = f"import sys; from {module} import {func}; sys.exit({func}())"
        cmd, env = [sys.executable, "-c", code], {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [*cmd, "mesh", "--eps", "1e-4", "--n", "64", "--k", "2", "--lambda", "0.25"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.splitlines()[0])["K"] == 2


def test_package_runs_as_module_without_warnings():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "cuspfem", "mesh", "--eps", "1e-4", "--n", "8", "--k", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout.splitlines()[0])["N"] == 8
