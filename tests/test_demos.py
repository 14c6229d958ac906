"""Smoke tests: the demo scripts and the README's library quick start run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", ["01_model_tour", "02_reflection_structure",
                                  "03_gaussian_domination", "04_infrared_chain",
                                  "05_charge_order_bound", "06_polaron_constants"])
def test_demo_runs(demo):
    out = _run_python([str(ROOT / "demos" / f"{demo}.py")])
    assert not [ln for ln in out.splitlines() if "[FAIL]" in ln], out


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block, = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    _run_python(["-c", block])
