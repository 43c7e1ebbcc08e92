from __future__ import annotations

import csv
import io
import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from helpers import OOM_TEXT, markdown_cells, starve_assembly

import cuspfem.experiments
import cuspfem.problem
from cuspfem import (
    SweepConfig,
    Table,
    convergence_rate,
    convergence_table,
    emit,
    make_test_problem,
    ratio_table,
    register_problem,
    run_convergence,
    sample_solution,
)
from cuspfem.experiments import CONVERGENCE_COLUMNS

QUICK = dict(lam=0.25, eps_list=(1e-6,), n_list=(16, 32), k_list=(1,))


class TestConvergenceRate:
    def test_second_order_model(self):
        assert convergence_rate(128.0 ** -2, 256.0 ** -2) == pytest.approx(2.0, abs=1e-12)

    def test_first_order_model(self):
        assert convergence_rate(1e-3, 5e-4) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_inputs_give_nan(self):
        assert math.isnan(convergence_rate(0.0, 1e-4))
        assert math.isnan(convergence_rate(1e-4, math.inf))


class TestRunConvergence:
    def test_rates_live_on_coarser_row(self):
        rows = run_convergence(SweepConfig(**QUICK))
        assert len(rows) == 2
        first, last = rows
        assert first.energy_rate is not None
        assert last.energy_rate is None
        assert first.energy_rate == pytest.approx(
            convergence_rate(first.energy, last.energy), abs=1e-15
        )
        assert all(r.residual_ok and r.mesh_ok and r.error is None for r in rows)

    def test_non_doubled_steps_have_no_rate(self):
        rows = run_convergence(SweepConfig(lam=0.25, eps_list=(1e-6,), n_list=(16, 48), k_list=(1,)))
        assert rows[0].energy_rate is None

    def test_groups_do_not_leak_rates(self):
        rows = run_convergence(
            SweepConfig(lam=0.25, eps_list=(1e-4, 1e-8), n_list=(16, 32), k_list=(1,))
        )
        assert [r.energy_rate is not None for r in rows] == [True, False, True, False]

    def test_failed_case_isolated(self):
        # N = 4 with k = 2 sits below the K + 1 minimum; N = 64 must survive
        rows = run_convergence(
            SweepConfig(lam=0.005, eps_list=(1e-30,), n_list=(4, 64), k_list=(2,))
        )
        assert rows[0].error is not None
        assert math.isnan(rows[0].energy)
        assert rows[1].error is None and rows[1].residual_ok

    def test_case_out_of_memory_fails_only_its_row(self, monkeypatch):
        # the N = 32 case cannot allocate its system (2 N k + 1 = 65 columns)
        starve_assembly(monkeypatch, max_columns=33)
        first, second = run_convergence(SweepConfig(**QUICK))
        assert first.error is None and first.residual_ok and first.energy_rate is None
        assert second.error == f"out of memory in _assemble: {OOM_TEXT}"
        assert math.isnan(second.energy) and second.big_k is None

    def test_cases_run_on_the_calling_thread(self, monkeypatch):
        threads, run_case = [], cuspfem.experiments._run_case

        def recorded(*case):
            threads.append(threading.current_thread())
            return run_case(*case)

        monkeypatch.setattr(cuspfem.experiments, "_run_case", recorded)
        assert run_convergence(SweepConfig(**QUICK))[0].error is None
        assert threads == [threading.current_thread()] * 2

    def test_invalid_setting_raises_instead_of_failing_rows(self):
        config = SweepConfig(**QUICK, method="sdfem", c0=-1.0)
        with pytest.raises(ValueError, match="c0 must be positive"):
            run_convergence(config)

    def test_invalid_eps_raises_before_any_case_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cuspfem.experiments, "_run_case", lambda *case: calls.append(case))
        config = SweepConfig(**{**QUICK, "eps_list": (1e-4, 2.0)})
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
            run_convergence(config)
        assert calls == []

    def test_gamma_estimated_once_per_eps_per_run(self, monkeypatch):
        # one Problem per eps, made (and so its gamma estimated) before the
        # cases and shared by them
        calls, profiles = [], []
        estimate, deltas = cuspfem.problem.gamma_estimate, cuspfem.experiments.compute_deltas

        def counted(problem, *args, **kwargs):
            calls.append(problem.eps)
            return estimate(problem, *args, **kwargs)

        def recorded(mesh, eps, c0, policy, problem, k):
            stab = deltas(mesh, eps, c0, policy, problem, k)
            profiles.append((mesh, eps, k, stab))
            return stab

        monkeypatch.setattr(cuspfem.problem, "gamma_estimate", counted)
        monkeypatch.setattr(cuspfem.experiments, "compute_deltas", recorded)
        config = SweepConfig(
            lam=0.25, eps_list=(1.0, 1e-4, 1e-8), n_list=(16, 32), k_list=(1, 2),
            method="sdfem", delta_policy="theorem-capped",
        )
        run_convergence(config)
        assert sorted(calls) == sorted(config.eps_list)
        # nothing outlives the run: a second run estimates gamma again
        run_convergence(config)
        assert len(calls) == 6
        assert len(profiles) == 2 * 3 * 2 * 2
        for mesh, eps, k, stab in profiles:
            fresh = deltas(mesh, eps, 1.0, "theorem-capped", make_test_problem(eps, 0.25), k)
            assert np.array_equal(stab.deltas, fresh.deltas)
            assert np.array_equal(stab.caps_applied, fresh.caps_applied)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(n_list=(32, 16))
        with pytest.raises(ValueError):
            SweepConfig(method="collocation")
        with pytest.raises(ValueError, match="unknown format"):
            emit(Table(("a",), ()), "yaml")
        with pytest.raises(ValueError):
            SweepConfig(n_list=())


class TestConvergenceTable:
    def test_every_cell_is_its_row_field(self):
        # N = 4 fails (too coarse); SDFEM keeps sd apart from energy
        config = SweepConfig(lam=0.005, eps_list=(1e-30,), n_list=(4, 64, 128), k_list=(2,))
        rows = run_convergence(replace(config, method="sdfem"))
        assert rows[0].error is not None and rows[1].error is None
        table = convergence_table(rows)
        renamed = {"N": "n_half", "K": "big_k", "k": "order"}
        assert len(table.rows) == len(rows)
        for row, cells in zip(rows, table.rows):
            assert len(cells) == len(table.columns)
            for column, cell in zip(table.columns, cells):
                field = getattr(row, renamed.get(column, column))
                assert cell is field or cell == field or (math.isnan(cell) and math.isnan(field))


class TestRatioTable:
    def test_entries_follow_definition(self):
        table = ratio_table(
            run_convergence(SweepConfig(lam=0.25, eps_list=(1.0,), n_list=(64, 128), k_list=(2,)))
        )
        assert table.columns == ("eps", "N", "K", "k", "energy", "ratio", "error")
        for eps, n, big_k, k, energy, ratio, err in table.rows:
            assert err is None
            assert ratio == pytest.approx(energy * 100.0 * (n / (big_k + 1)) ** k, rel=1e-15)

    def test_smooth_regime_value(self):
        # eps = 1 entries sit near 3.9 once N is moderately large
        table = ratio_table(
            run_convergence(SweepConfig(lam=0.25, eps_list=(1.0,), n_list=(256,), k_list=(2,)))
        )
        ratio = table.rows[0][5]
        assert 3.7 <= ratio <= 4.1


class TestSampleSolution:
    def test_grid_includes_mesh_nodes_and_boundaries(self):
        table = sample_solution(SweepConfig(lam=0.25, eps_list=(1e-6,), n_list=(16,), k_list=(1,)), 11)
        assert table.columns == ("x", "u_N", "u", "err")
        xs = np.array([row[0] for row in table.rows])
        assert xs[0] == -1.0 and xs[-1] == 1.0
        from cuspfem import MeshParams, build_mesh

        mesh = build_mesh(MeshParams(1e-6, 16, 1, 0.25))
        assert np.isin(mesh.nodes, xs).all()
        assert np.isin(np.linspace(-1.0, 1.0, 11), xs).all()
        assert np.all(np.diff(xs) > 0)
        u_n = np.array([row[1] for row in table.rows])
        assert u_n[0] == 0.0 and u_n[-1] == 0.0

    def test_requires_single_case(self):
        with pytest.raises(ValueError):
            sample_solution(SweepConfig(**QUICK), 11)

    def test_in_space_solution_sampled_exactly(self):
        try:
            register_problem(
                "patch-sample", lambda eps, lam: __import__("helpers").patch_problem(eps, 2)
            )
        except ValueError:
            pass
        table = sample_solution(
            SweepConfig(problem="patch-sample", lam=1.0, eps_list=(1.0,), n_list=(8,), k_list=(2,)),
            21,
        )
        errs = np.array([row[3] for row in table.rows])
        assert np.max(np.abs(errs)) <= 1e-11


class TestEmit:
    def _tiny_table(self):
        return Table(("eps", "N", "energy"), ((1e-6, 16, 1.234567e-3),))

    def test_csv_layout(self):
        text = emit(self._tiny_table(), "csv")
        lines = text.splitlines()
        assert lines[0] == "eps,N,energy"
        assert len(lines) == 2
        assert float(lines[1].split(",")[2]) == 1.234567e-3

    def test_empty_table_is_header_only(self):
        text = emit(Table(("a", "b"), ()), "csv")
        assert text.splitlines() == ["a,b"]

    def test_markdown_formats_errors_to_three_significant_digits(self):
        table = Table(("eps", "N", "sd", "sd_rate"), ((1e-10, 512, 4.098928e-5, 1.0234),))
        text = emit(table, "markdown")
        assert "4.10e-05" in text
        assert "1.023" in text
        assert text.splitlines()[1].startswith("|")

    def test_markdown_escapes_pipes_and_joins_lines(self):
        message = "max |Ax - b| = nan is not finite\nsecond line"
        table = Table(("eps", "error", "N"), ((1e-6, message, 16), (1e-4, None, 32)))
        header, rule, *rows = emit(table, "markdown").splitlines()
        assert len(rows) == 2
        for line in (header, rule, *rows):
            assert len(markdown_cells(line)) == 3
        assert markdown_cells(rows[0])[1] == r"max \|Ax - b\| = nan is not finite second line"
        # CSV keeps the cell as it is, quoted for its newline
        assert list(csv.reader(io.StringIO(emit(table, "csv"))))[1][1] == message

    def test_deterministic_and_file_output(self, tmp_path):
        rows = run_convergence(SweepConfig(**QUICK))
        table = convergence_table(rows)
        assert table.columns == CONVERGENCE_COLUMNS
        a = emit(table, "csv")
        b = emit(table, "csv")
        assert a == b
        path = tmp_path / "out.csv"
        emit(table, "csv", path)
        assert path.read_text() == a

    def test_missing_directory_raises_with_path(self, tmp_path):
        with pytest.raises(OSError, match="nested"):
            emit(self._tiny_table(), "csv", tmp_path / "nested" / "out.csv")

    def test_full_precision_round_trip(self):
        rows = run_convergence(SweepConfig(**QUICK))
        text = emit(convergence_table(rows), "csv")
        cells = text.splitlines()[1].split(",")
        assert float(cells[5]) == rows[0].energy
