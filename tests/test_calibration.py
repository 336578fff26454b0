"""Case-log ingestion, cleaning, and the inversion chain into model parameters."""

import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

import delver as dv
import delver.calibration as cal
from delver.model import Ability, Action, Detection, ExecutionCost, ModelParams, VerificationCost
from delver.solver import optimal_verification

from conftest import CLINICIAN_INSTITUTION


def make_record(i, worker=1, ai=0, assisted=0, wt=150.0, at=180.0, unchanged=0):
    return cal.CaseRecord(f"case_{i}", worker, ai, assisted, wt, at, unchanged)


class TestCleaning:
    def test_fixture_retention(self, clinician_records):
        records, report = clinician_records
        assert report.n_input == 41
        assert report.n_time_dropped == 1
        assert report.n_override_dropped == 2
        assert report.n_retained == 38
        assert len(records) == 38

    def test_override_fraction_reported(self, clinician_records):
        _, report = clinician_records
        assert report.override_fraction == pytest.approx(0.049, abs=0.001)

    def test_equal_times_drop_nothing(self):
        records = [make_record(i, wt=120.0) for i in range(10)]
        kept, report = cal.clean_cases(records)
        assert report.n_time_dropped == 0
        assert len(kept) == 10

    def test_cleaning_is_deterministic(self, clinician_records):
        records, report = clinician_records
        again_records, again_report = cal.ingest_and_clean(cal.fixture_path())
        assert again_records == records
        assert again_report == report

    def test_override_is_dropped(self):
        records = [make_record(0), make_record(1, worker=0, ai=1)]
        kept, report = cal.clean_cases(records)
        assert kept == records[:1]
        assert report.n_override_dropped == 1

    def test_malformed_rows_are_listed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "case_id,worker_correct,ai_correct,assisted_correct,worker_time,assisted_time,output_unchanged\n"
            "a,1,0,0,100.0,120.0,0\n"
            "b,2,0,0,100.0,120.0,0\n"
            "c,1,0,0,-5.0,120.0,0\n")
        with pytest.raises(cal.CalibrationError) as err:
            cal.read_cases(path)
        assert "row 3" in str(err.value)
        assert "row 4" in str(err.value)

    @pytest.mark.parametrize("raw", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("col", ["worker_time", "assisted_time"])
    def test_non_finite_time_is_a_malformed_row(self, tmp_path, col, raw):
        # float() reads all three; nan passed the old "> 0" test, and calibrate
        # then printed "alpha": NaN, which is not JSON
        times = {"worker_time": "100.0", "assisted_time": "120.0", col: raw}
        path = tmp_path / "bad.csv"
        path.write_text(",".join(cal.CASE_COLUMNS) + "\na,1,0,0,100.0,120.0,0\n"
                        f"b,1,0,0,{times['worker_time']},{times['assisted_time']},0\n")
        with pytest.raises(cal.CalibrationError) as err:
            cal.read_cases(path)
        assert str(err.value) == (f"malformed rows: row 3: {col} must be finite and positive, "
                                  f"got '{raw}'")

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("case_id,worker_correct\nx,1\n")
        with pytest.raises(cal.CalibrationError):
            cal.read_cases(path)

    def test_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(cal.CASE_COLUMNS + ["ai_correct"]) + "\na,1,0,0,100.0,120.0,0,1\n")
        with pytest.raises(cal.CalibrationError, match="column 'ai_correct' appears more than once"):
            cal.read_cases(path)

    # a row is one line, so a quoted field that spans lines ends its row on its first line
    @pytest.mark.parametrize("row", ["b,1,0,0,100.0,120.0,0,999", "b,1,0,0,100.0",
                                     '"b\nb",1,0,0,100.0,120.0,0'],
                             ids=["extra", "missing", "quoted-newline"])
    def test_row_with_the_wrong_field_count_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(cal.CASE_COLUMNS) + "\na,1,0,0,100.0,120.0,0\n" + row + "\n")
        with pytest.raises(cal.CalibrationError) as err:
            cal.read_cases(path)
        assert str(err.value) == "malformed rows: row 3: expected 7 fields"

    def test_rows_are_numbered_by_file_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# a comment\n" + ",".join(cal.CASE_COLUMNS) + "\na,1,0,0,100.0,120.0,0\n"
                        "# another comment\n\nb,1,0,0,100.0\nc,1,0,0,100.0,x,0\n")
        with pytest.raises(cal.CalibrationError) as err:
            cal.read_cases(path)
        assert str(err.value) == ("malformed rows: row 6: expected 7 fields; "
                                  "row 7: assisted_time is not a number: 'x'")

    def test_field_over_the_csv_limit_is_named_by_file_line(self, tmp_path):
        # csv.reader refuses a field over 131072 characters with its own csv.Error
        path = tmp_path / "big.csv"
        path.write_text("# a comment\n" + ",".join(cal.CASE_COLUMNS) + "\na,1,0,0,100.0,120.0,0\n"
                        + "b" * 200_000 + ",1,0,0,100.0,120.0,0\n")
        with pytest.raises(cal.CalibrationError) as err:
            cal.read_cases(path)
        assert str(err.value) == "line 4: field larger than field limit (131072)"

    def test_wrong_header_is_reported_before_a_later_csv_fault(self, tmp_path):
        # the header is checked before any later line is parsed
        path = tmp_path / "bad.csv"
        path.write_text("case_id,worker_correct\n" + "b" * 200_000 + ",1\n")
        with pytest.raises(cal.CalibrationError) as err:
            cal.read_cases(path)
        assert str(err.value) == (f"expected columns {cal.CASE_COLUMNS}, "
                                  "got ['case_id', 'worker_correct']")

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_endings_give_the_same_records(self, tmp_path, ending):
        text = cal.fixture_path().read_text()
        path = tmp_path / "cases.csv"
        path.write_bytes(text.replace("\n", ending).encode())
        assert cal.read_cases(path) == cal.read_cases(cal.fixture_path())

    def test_empty_log_cleans_to_an_all_zero_report(self):
        assert cal.clean_cases([]) == ([], cal.CleaningReport(0, 0, 0, 0))
        assert cal.CleaningReport(0, 0, 0, 0).override_fraction == 0.0


class TestObservables:
    def test_fixture_rates_and_times(self, clinician_records):
        records, _ = clinician_records
        obs = cal.estimate_observables(records)
        assert obs.n == 38
        assert obs.p_w == pytest.approx(0.447, abs=1e-3)
        assert obs.p_a == pytest.approx(0.368, abs=1e-3)
        assert obs.p_assisted == pytest.approx(0.395, abs=1e-3)
        assert obs.p_w == 17 / 38
        assert obs.p_a == 14 / 38
        assert obs.p_assisted == 15 / 38
        assert obs.c_w == pytest.approx(172.5, abs=1e-9)
        assert obs.cost_assisted == pytest.approx(116.8, abs=1e-9)
        assert obs.pr_unchanged == 0.5

    def test_single_record(self):
        obs = cal.estimate_observables([make_record(0, worker=1, ai=1, assisted=1,
                                                    wt=90.0, at=110.0, unchanged=1)])
        assert (obs.p_w, obs.p_a, obs.p_assisted) == (1.0, 1.0, 1.0)
        assert obs.c_w == 90.0
        assert obs.cost_assisted == pytest.approx(110.0 - 90.0)

    def test_empty_is_an_error(self):
        with pytest.raises(cal.CalibrationError):
            cal.estimate_observables([])

    def test_negative_decomposition_is_flagged(self):
        # the implied c_v is at most cost_assisted, so a negative one cannot be inverted
        obs = cal.estimate_observables([make_record(0, wt=200.0, at=50.0, unchanged=1)])
        assert obs.cost_assisted < 0.0
        with pytest.raises(cal.CalibrationError, match="implied verification cost is negative"):
            cal.infer_ability(obs, 118.1, 262.3)


# (stakes, p_a, p_w, alpha, beta) of each worker, and how many of them choose an
# interior, a full (s_dagger = 1) and no (s_dagger = 0) verification effort
ROUND_TRIP = {
    "one": ([(2500.0, 0.4, 0.6, 0.35, 0.45)], {"interior": 1, "full": 0, "none": 0}),
    "grid": ([(stakes, p_a, p_w, float(alpha), float(beta))
              for stakes in (800.0, 2500.0, 9000.0)
              for p_a, p_w in ((0.4, 0.6), (0.2, 0.9), (0.7, 0.5))
              for alpha in np.linspace(0.05, 3.0, 12) for beta in np.linspace(0.05, 0.95, 7)],
             {"interior": 244, "full": 328, "none": 184}),
}


class TestInversion:
    def test_fixture_chain_frozen_values(self, clinician_worker):
        w = clinician_worker
        assert w.phi_at_s_dagger == pytest.approx(38.0 / 408.0, rel=1e-12)
        assert w.c_v_at_s_dagger == pytest.approx(106.6529412, abs=1e-6)
        assert w.s_dagger == pytest.approx(0.9030732, abs=1e-6)
        assert w.beta == pytest.approx(0.3423561, abs=1e-6)
        assert w.alpha == pytest.approx(0.1082572, abs=1e-6)
        assert w.stakes == pytest.approx(4643.1268, abs=1e-3)
        assert not w.boundary

    def test_chain_consistency(self, clinician_worker, clinician_classified):
        # the assembled model must reproduce the observables at (1, s_dagger)
        w = clinician_worker
        params = clinician_classified.params
        ability = Ability(w.alpha, w.beta)
        action = Action(1.0, w.s_dagger)
        assert dv.task_success(params, ability, action) == pytest.approx(
            w.observables.p_assisted, abs=1e-9)
        assert dv.total_cost(params, ability, action) == pytest.approx(
            w.observables.cost_assisted, abs=1e-9)

    def test_solver_recovers_observed_effort(self, clinician_classified):
        w, params = clinician_classified.worker, clinician_classified.params
        assert optimal_verification(params, Ability(w.alpha, w.beta)) == pytest.approx(
            w.s_dagger, abs=1e-9)

    def test_worker_is_frozen_with_a_fixed_detection_scale(self, clinician_worker):
        with pytest.raises(FrozenInstanceError):
            clinician_worker.stakes = 1.0
        assert clinician_worker.detection_scale == 1.0
        assert {"detection_scale", "params", "report"}.isdisjoint(
            f.name for f in fields(cal.CalibratedWorker))

    def test_no_detectable_verification(self):
        obs = replace_obs(p_assisted=14 / 38)
        w = cal.infer_ability(obs, 118.1, 262.3)
        assert w.phi_at_s_dagger == 0.0
        assert w.alpha == 0.0
        assert w.stakes is None

    def test_full_detection_is_a_boundary(self):
        p_a, p_w = 14 / 38, 17 / 38
        obs = replace_obs(p_assisted=p_a + (1 - p_a) * p_w)
        w = cal.infer_ability(obs, 118.1, 262.3)
        assert w.boundary
        assert w.phi_at_s_dagger == pytest.approx(1.0)
        assert w.stakes is None
        with pytest.raises(cal.CalibrationError, match="stakes not identified"):
            cal.assemble_params(w, CLINICIAN_INSTITUTION)

    def test_assisted_below_ai_is_an_error(self):
        with pytest.raises(cal.CalibrationError):
            cal.infer_ability(replace_obs(p_assisted=0.2), 118.1, 262.3)

    @pytest.mark.parametrize("changes, t_v_max, message", [
        ({"p_a": 1.0, "p_assisted": 1.0}, 118.1, "undefined for p_a=1 or p_w=0"),
        ({"p_w": 0.0}, 118.1, "undefined for p_a=1 or p_w=0"),
        ({"p_assisted": 0.9}, 118.1, "implied detection probability 1.881 exceeds 1"),
        ({"cost_assisted": 1.0}, 118.1, "implied verification cost is negative: -9.147"),
        ({}, 100.0, "t_v_max must be at least the implied verification cost"),
        # no detection and no assisted cost: c_v = 0, which t_v_max = 0 used to divide
        ({"p_assisted": 14 / 38, "cost_assisted": 0.0}, 0.0, "^t_v_max must be positive, got 0.0$"),
    ], ids=["p_a-one", "p_w-zero", "phi-above-one", "negative-c_v", "t_v_max-below-c_v",
            "t_v_max-zero"])
    def test_uninvertible_observables_raise(self, changes, t_v_max, message):
        with pytest.raises(cal.CalibrationError, match=message):
            cal.infer_ability(replace_obs(**changes), t_v_max, 262.3)

    @pytest.mark.parametrize("s_dagger", [0.0, 1.0])
    def test_stakes_need_an_interior_effort(self, clinician_worker, s_dagger):
        # the bundled log with the assisted cost of an effort of exactly 0 or 1
        w, obs = clinician_worker, clinician_worker.observables
        caught = (1.0 - obs.p_a) * w.phi_at_s_dagger * obs.c_w
        at_effort = replace(obs, cost_assisted=s_dagger * w.t_v_max + caught)
        edge = cal.infer_ability(at_effort, w.t_v_max, w.t_w_max)
        assert edge.s_dagger == s_dagger
        assert edge.stakes is None

    @pytest.mark.parametrize("name", ["t_v_max", "t_w_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_budgets_raise(self, name, value):
        # nan fails every later comparison, and gave a worker with alpha nan or beta nan
        budgets = {"t_v_max": 118.1, "t_w_max": 262.3, name: value}
        with pytest.raises(cal.CalibrationError, match=f"^{name} must be finite, got {value}$"):
            cal.calibrate_file(cal.fixture_path(), **budgets)
        with pytest.raises(cal.CalibrationError, match=f"^{name} must be finite, got {value}$"):
            cal.infer_ability(replace_obs(p_w=0.0), **budgets)  # before the other checks

    def test_time_normalizers_must_cover_observations(self):
        with pytest.raises(cal.CalibrationError):
            cal.infer_ability(replace_obs(), 118.1, 100.0)

    def test_stakes_homogeneity(self, clinician_worker):
        # twice every time and both budgets: the same phi, effort and abilities
        w = clinician_worker
        obs = w.observables
        doubled = replace(obs, c_w=2 * obs.c_w, c_wa=2 * obs.c_wa,
                          cost_assisted=2 * obs.cost_assisted)
        again = cal.infer_ability(doubled, 2 * w.t_v_max, 2 * w.t_w_max)
        assert again.stakes == pytest.approx(2.0 * w.stakes, rel=1e-12)

    @pytest.mark.parametrize("workers, counts", ROUND_TRIP.values(), ids=ROUND_TRIP.keys())
    def test_round_trip_recovery(self, workers, counts):
        # observables the model makes at each worker's own effort, inverted
        t_v_max, t_w_max, share, pr_unchanged = 250.0, 300.0, 0.6, 0.37
        seen = {"interior": 0, "full": 0, "none": 0}
        for stakes, p_a, p_w, alpha, beta in workers:
            params = ModelParams(
                b_w=share * stakes, l_w=(1 - share) * stakes,
                b_i=1000.0, l_i=800.0, xi=0.4, tau=50.0,
                p_a=p_a, c_a=0.0, p_w=p_w,
                detection=Detection("exponential", 1.0),
                verification_cost=VerificationCost("linear", t_v_max),
                execution_cost=ExecutionCost("linear_in_efficiency", t_w_max),
            )
            ability = Ability(alpha, beta)
            s_dag = optimal_verification(params, ability)
            action = Action(1.0, s_dag)
            c_w = params.execution_cost.cost(beta)
            cost_assisted = dv.total_cost(params, ability, action)
            obs = cal.Observables(
                n=200, p_w=p_w, p_a=p_a, p_assisted=dv.task_success(params, ability, action),
                c_w=c_w, c_wa=cost_assisted + pr_unchanged * c_w,
                pr_unchanged=pr_unchanged, cost_assisted=cost_assisted)
            worker = (stakes, p_a, p_w, alpha, beta)
            recovered = cal.infer_ability(obs, t_v_max, t_w_max)
            if 0.0 < s_dag < 1.0:
                seen["interior"] += 1
                assert (recovered.alpha, recovered.beta, recovered.s_dagger, recovered.stakes) \
                    == pytest.approx((alpha, beta, s_dag, stakes), rel=1e-9), worker
            else:  # no first-order condition at an effort of 0 or 1
                seen["full" if s_dag == 1.0 else "none"] += 1
                assert recovered.stakes is None, worker
        assert seen == counts


class TestClassification:
    def test_clinician_sits_in_the_manual_regime(self, clinician_classified):
        res = clinician_classified
        assert res.action.regime == dv.Regime.MANUAL
        assert res.action.f_w_at_s_dagger == pytest.approx(-188.675, abs=1e-2)
        assert res.report.q == pytest.approx(133.8237, abs=1e-3)
        assert res.report.q0 == pytest.approx(133.8237, abs=1e-3)
        assert res.report.quality_label == dv.QualityLabel.UNCHANGED
        assert res.report.compliance_label == dv.ComplianceLabel.NEITHER
        assert res.warnings == []

    def test_lever_targets_frozen(self, clinician_classified):
        targets = clinician_classified.lever_targets
        assert targets["alpha"].value == pytest.approx(0.332327, abs=1e-4)
        assert targets["beta"].value == pytest.approx(0.4656982, abs=1e-4)
        assert targets["p_a"].value == pytest.approx(0.4322858, abs=1e-4)
        assert all(t.feasible for t in targets.values())

    def test_low_tau_means_no_movement(self, clinician_worker):
        institution = replace(CLINICIAN_INSTITUTION, tau=100.0)
        res = cal.classify_calibrated(clinician_worker, institution)
        assert res.lever_targets["alpha"].value == clinician_worker.alpha
        assert res.lever_targets["beta"].value == clinician_worker.beta
        assert res.lever_targets["p_a"].value == clinician_worker.observables.p_a

    def test_split_only_moves_worker_baseline(self, clinician_classified):
        res = clinician_classified
        stakes = res.worker.stakes
        other = replace(res.params, b_w=0.75 * stakes, l_w=0.25 * stakes)
        act, report = dv.evaluate_point(other, Ability(res.worker.alpha, res.worker.beta))
        assert other.tau == CLINICIAN_INSTITUTION.tau
        assert act.regime == res.action.regime
        assert report.q == pytest.approx(res.report.q, rel=1e-12)
        assert 0.0 < res.min_viable_benefit_share < 1.0

    def test_below_viable_share_warns(self, clinician_worker):
        # at these stakes the fixed 0.6 split leaves too little on the benefit side
        res = cal.classify_calibrated(replace(clinician_worker, stakes=1000.0),
                                      CLINICIAN_INSTITUTION)
        point = Ability(clinician_worker.alpha, clinician_worker.beta)
        assert res.warnings == [f"negative pre-AI worker utility at {point}: g_w=-125.132"]
        assert res.min_viable_benefit_share == pytest.approx(0.7251316, abs=1e-6)

    def test_assembly_needs_stakes(self, clinician_worker):
        with pytest.raises(cal.CalibrationError, match="stakes not identified"):
            cal.assemble_params(replace(clinician_worker, stakes=None), CLINICIAN_INSTITUTION)

    def test_failed_dominance_is_a_warning(self, clinician_worker):
        weak = replace(CLINICIAN_INSTITUTION, b_i=100.0, l_i=100.0)
        res = cal.classify_calibrated(clinician_worker, weak)
        assert not res.params.misalignment > 0.0
        assert res.warnings == ["dominance violated: b_i+l_i=200.0 <= "
                                f"xi*(b_w+l_w)={0.5 * res.params.worker_stakes}"]

    @pytest.mark.parametrize("stakes, institution", [
        (None, CLINICIAN_INSTITUTION),  # the bundled worker: no warning
        (1000.0, CLINICIAN_INSTITUTION),  # g_w < 0
        (100.0, CLINICIAN_INSTITUTION),  # g_w < 0 and k_w < 0
        (None, replace(CLINICIAN_INSTITUTION, b_i=100.0, l_i=100.0)),  # no dominance
    ], ids=["bundled", "low-stakes", "negative-k_w", "no-dominance"])
    def test_warnings_are_the_assumption_violations(self, clinician_worker, stakes, institution):
        worker = clinician_worker if stakes is None else replace(clinician_worker, stakes=stakes)
        res = cal.classify_calibrated(worker, institution)
        report = dv.check_assumptions(res.params, [Ability(worker.alpha, worker.beta)])
        assert res.warnings == report.violations
        assert bool(res.warnings) != report.all_ok

    def test_calibrate_file_runs_the_whole_chain(self):
        worker, cleaning, result = cal.calibrate_file(
            cal.fixture_path(), t_v_max=118.1, t_w_max=262.3,
            institution=CLINICIAN_INSTITUTION)
        assert cleaning.n_retained == 38
        assert result.params == cal.assemble_params(worker, CLINICIAN_INSTITUTION)
        assert result.action.regime == dv.Regime.MANUAL


def replace_obs(**changes):
    base = dict(n=38, p_w=17 / 38, p_a=14 / 38, p_assisted=15 / 38,
                c_w=172.5, c_wa=203.05, pr_unchanged=0.5,
                cost_assisted=116.8)
    base.update(changes)
    return cal.Observables(**base)
