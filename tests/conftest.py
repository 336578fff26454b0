import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import delver as dv
import delver.calibration as cal
from delver.model import INVERSE_EFFICIENCY, LINEAR_IN_EFFICIENCY
from delver.sampling import sample_params
from delver.solver import Regime

CLINICIAN_INSTITUTION = cal.InstitutionSpec(b_i=2787.6, l_i=1858.4, xi=0.5, tau=150.0)
# redo discounts away from the base model's 1: free, cheaper and dearer redo
KAPPAS = (0.0, 0.5, 2.5)


@pytest.fixture(scope="session")
def reference():
    return dv.reference_params()


@pytest.fixture(scope="session")
def clinician_records():
    records, report = cal.ingest_and_clean(cal.fixture_path())
    return records, report


@pytest.fixture(scope="session")
def clinician_worker(clinician_records):
    records, _ = clinician_records
    obs = cal.estimate_observables(records)
    return cal.infer_ability(obs, t_v_max=118.1, t_w_max=262.3)


@pytest.fixture(scope="session")
def clinician_classified(clinician_worker):
    return cal.classify_calibrated(clinician_worker, CLINICIAN_INSTITUTION)


def family_configs():
    """One sample_params draw per detection x verification x execution family triple."""
    configs = {}
    seed = 0
    while len(configs) < 8:
        rng = np.random.default_rng(seed)
        for kind in (LINEAR_IN_EFFICIENCY, INVERSE_EFFICIENCY):
            params = sample_params(rng, kind)
            triple = (params.detection.kind, params.verification_cost.kind, kind)
            configs.setdefault(triple, params)
        seed += 1
    return configs


def ability_grid(params, n=7):
    if params.execution_cost.kind == "linear_in_efficiency":
        betas = np.linspace(0.0, 1.0, n)
    else:
        betas = np.linspace(0.25, 2.5, n)
    alphas = np.linspace(0.0, 2.0, n)
    return [dv.Ability(float(a), float(b)) for a in alphas for b in betas]


def oracle_regime(action):
    """The regime of the grid oracle's action: manual at d = 0, else pure or verified by s."""
    if action.d == 0.0:
        return Regime.MANUAL
    if action.s == 0.0:
        return Regime.PURE_DELEGATION
    return Regime.VERIFIED_DELEGATION


def run_isolated(code: str, timeout: float = 60.0) -> str:
    """stdout of code run in a fresh interpreter, failing (not hanging) past timeout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=timeout, env=env, check=True)
    except subprocess.TimeoutExpired:
        pytest.fail(f"still running after {timeout} s")
    return proc.stdout
