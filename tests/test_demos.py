"""
Each script under demos/ and the README's quick start run in a fresh
interpreter against this checkout's sources and exit 0, so a change to the
public API that breaks one fails here.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    stated = re.search(r"print\(report\.sd\)\s*# (\S+)", code).group(1)
    assert stated == "4.0989e-05"
    sd, value = run_python(["-c", code]).splitlines()
    assert f"{float(sd):.4e}" == stated
    assert value.startswith("[0.")
