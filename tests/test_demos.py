"""
Each script under demos/ and the README's quick start run in a fresh
interpreter against this checkout's sources and exit 0, and the README's
command-line examples run through `experiments.main`, so a change to the
public API or a flag that breaks one fails here.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cuspfem.experiments import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()


def readme_block(heading: str, lang: str) -> str:
    section = README.split(f"## {heading}", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


# each `cuspfem VERB ...` line of the command-line section, its comment
# and the brackets around optional flags stripped
CLI_EXAMPLES = [
    line.split("#", 1)[0].replace("[", "").replace("]", "").split()[1:]
    for line in readme_block("Command line", "sh").splitlines()
    if line.startswith("cuspfem ")
]


def test_demos_found():
    assert len(DEMOS) == 5


def run_python(args: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    assert run_python([str(demo)]).strip()


def test_readme_quick_start_prints_its_stated_value():
    code = readme_block("Quick start", "python")
    stated = re.search(r"print\(report\.sd\)\s*# (\S+)", code).group(1)
    stated_value = re.search(r"print\(u_n\(0\.123\)\)\s*# (\S+)", code).group(1)
    assert (stated, stated_value) == ("4.0989e-05", "0.856152")
    sd, value = run_python(["-c", code]).splitlines()
    assert f"{float(sd):.4e}" == stated
    assert f"{float(value):.6f}" == stated_value


def test_readme_cli_examples_found():
    assert [argv[0] for argv in CLI_EXAMPLES] == [
        "mesh", "solve", "converge", "eps-sweep", "ratio", "sample"
    ]


@pytest.mark.parametrize("argv", CLI_EXAMPLES, ids=[argv[0] for argv in CLI_EXAMPLES])
def test_readme_cli_example_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err


def test_readme_config_example_runs(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(readme_block("Command line", "json"))
    assert main(["converge", "--config", str(config)]) == 0, capsys.readouterr().err
