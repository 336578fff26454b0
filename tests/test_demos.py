"""The demos run end to end in a fresh interpreter and print the pinned output."""

import functools
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import delver

REPO = Path(__file__).resolve().parent.parent
# SHA-256 of each demo's stdout, taken at commit 4ccb96f
DEMO_STDOUT = {
    "01_optimal_workflows.py": "d7af52e7aed9c54efdb5a65ae1d1d428b1f346c0f1d40c37c0f70239eab2c620",
    "02_quality_atlas.py": "82425597d480984732d0fecd523df47b40428afab80073da0ca2dd13ddd78e19",
    "03_interventions.py": "8760343bde61fc8dea1e37f78885568f0b3792f965a13540d9023ca3ccb6429a",
    "04_extensions.py": "c2373b5b99eeb7785eda3da86c56a6b1bd16d685afb419908b48c2f8dd8a0bf9",
    "05_calibration.py": "35221141c30741e148402e1ced57110cbb669ca1271156abc5dd79e7265f638f",
}


def test_every_demo_is_pinned():
    assert sorted(DEMO_STDOUT) == sorted(p.name for p in (REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMO_STDOUT)
def test_demo_output_is_unchanged(tmp_path, demo):
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(REPO / "demos" / demo)], capture_output=True,
                          cwd=tmp_path, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT[demo]


def test_readme_quick_start_runs(capsys):
    # the python block under the README's "Library quick start" heading
    readme = (REPO / "README.md").read_text()
    section = readme.split("## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[0] == "Regime.VERIFIED_DELEGATION"


def test_readme_calibration_example_runs():
    # the python block under the README's "Calibration data" heading
    readme = (REPO / "README.md").read_text()
    section = readme.split("## Calibration data\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert (len(names["records"]), len(names["kept"])) == (41, 38)


def _resolves(path):
    try:
        functools.reduce(getattr, path.split("."), delver)
    except AttributeError:
        return False
    return True


def test_readme_entry_points_resolve():
    # every name in the functions column of the README's "Main entry points"
    # table, without its arguments, is an attribute path from delver
    readme = (REPO / "README.md").read_text()
    table = readme.split("Main entry points, one per concern:\n\n", 1)[1].split("\n\n", 1)[0]
    names = [name.split("(", 1)[0] for row in table.splitlines()[2:]
             for name in re.findall(r"`([^`]+)`", row.split("|")[2])]
    assert "infer_ability" in names
    assert [name for name in names if not _resolves(name)] == []
