"""The demos run end to end in a fresh interpreter and print the pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
