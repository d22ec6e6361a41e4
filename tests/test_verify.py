"""Tests for repro.verify: invariant monitor, oracles, golden traces.

The acceptance-critical cases live here: a nominal run produces zero
violations, a deliberately perturbed board is caught by the monitor, and a
deliberately perturbed trace is caught by the golden comparator.
"""

import copy
import json
import math
import struct
import types

import numpy as np
import pytest

from repro.board import BIG, LITTLE, Board
from repro.board.specs import default_xu3_spec
from repro.verify import (
    GOLDEN_MATRIX,
    InvariantMonitor,
    activate_monitor,
    active_monitor,
    capture_trace,
    compare_traces,
    deactivate_monitor,
    load_golden,
    oracle_cache,
    oracle_fastpath,
    oracle_lqg_reference,
    oracle_parallel_matrix,
    power_ceiling,
    run_verify,
    temperature_ceiling,
    ulp_distance,
    verify_goldens,
    write_golden,
)
from repro.workloads import make_application


def _next_after(x):
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return struct.unpack("<d", struct.pack("<q", bits + 1))[0]


def _fresh_board(spec=None, seed=3, workload="blackscholes"):
    spec = spec if spec is not None else default_xu3_spec()
    return Board([make_application(workload)], spec=spec, seed=seed)


# ----------------------------------------------------------------------
# ULP distance
# ----------------------------------------------------------------------
class TestUlpDistance:
    def test_equal_is_zero(self):
        assert ulp_distance(1.0, 1.0) == 0
        assert ulp_distance(-3.5, -3.5) == 0

    def test_adjacent_is_one(self):
        assert ulp_distance(1.0, _next_after(1.0)) == 1
        assert ulp_distance(-1.0, -_next_after(1.0)) == 1

    def test_signed_zeros_are_equal(self):
        assert ulp_distance(0.0, -0.0) == 0

    def test_crosses_zero(self):
        tiny = struct.unpack("<d", struct.pack("<q", 1))[0]
        assert ulp_distance(tiny, -tiny) == 2

    def test_nan_conventions(self):
        nan = float("nan")
        assert ulp_distance(nan, nan) == 0
        assert math.isinf(ulp_distance(nan, 1.0))
        assert math.isinf(ulp_distance(1.0, nan))

    def test_symmetry_and_monotone(self):
        assert ulp_distance(1.0, 2.0) == ulp_distance(2.0, 1.0)
        assert ulp_distance(1.0, 4.0) > ulp_distance(1.0, 2.0)


# ----------------------------------------------------------------------
# Physical ceilings
# ----------------------------------------------------------------------
class TestCeilings:
    def test_power_ceiling_positive_and_generous(self):
        spec = default_xu3_spec()
        for name in (BIG, LITTLE):
            ceiling = power_ceiling(spec.cluster(name))
            assert ceiling > 0
            # The declared spec power limit must sit under the physical
            # ceiling, otherwise the ceiling check could never fire the
            # limit is meant to protect against.
            limit = getattr(spec, f"power_limit_{name}")
            assert ceiling > limit

    def test_temperature_ceiling_above_trip(self):
        spec = default_xu3_spec()
        t_max = temperature_ceiling(spec)
        assert t_max > spec.ambient_temp
        assert t_max > spec.emergency_temp_trip


# ----------------------------------------------------------------------
# Invariant monitor: nominal behavior
# ----------------------------------------------------------------------
class TestMonitorNominal:
    def test_fault_free_run_has_zero_violations(self, design_context):
        from repro.experiments import run_workload

        monitor = InvariantMonitor()
        run_workload("coordinated-heuristic", "blackscholes", design_context,
                     max_time=10.0, record=False, monitor=monitor)
        assert monitor.ok
        assert monitor.total_violations == 0
        assert monitor.periods_checked > 0
        assert "OK" in monitor.summary()

    def test_ssv_scheme_with_optimizers_clean(self, design_context):
        from repro.experiments import run_workload

        monitor = InvariantMonitor()
        run_workload("yukta-hwssv-osssv", "blackscholes", design_context,
                     max_time=10.0, record=False, monitor=monitor)
        assert monitor.ok, monitor.summary()

    def test_monolithic_lqg_loop_checked(self, design_context):
        from repro.experiments import run_workload

        monitor = InvariantMonitor()
        run_workload("monolithic-lqg", "blackscholes", design_context,
                     max_time=10.0, record=False, monitor=monitor)
        assert monitor.periods_checked > 0
        assert monitor.ok, monitor.summary()

    def test_process_wide_activation(self, design_context):
        from repro.experiments import run_workload

        monitor = InvariantMonitor()
        activate_monitor(monitor)
        try:
            assert active_monitor() is monitor
            run_workload("decoupled-heuristic", "blackscholes",
                         design_context, max_time=5.0, record=False)
        finally:
            deactivate_monitor()
        assert active_monitor() is None
        assert monitor.periods_checked > 0
        assert monitor.ok, monitor.summary()

    def test_check_board_standalone_on_fresh_board(self):
        board = _fresh_board()
        board.run_period(board.spec.period_steps())
        monitor = InvariantMonitor()
        violations = monitor.check_board(board)
        assert violations == []
        assert monitor.periods_checked == 1


# ----------------------------------------------------------------------
# Invariant monitor: deliberate perturbations must be caught
# ----------------------------------------------------------------------
class TestMonitorCatchesPerturbations:
    def test_off_grid_frequency(self):
        board = _fresh_board()
        board.run_period(board.spec.period_steps())
        board.clusters[BIG].frequency = 1.23456  # not a DVFS grid point
        monitor = InvariantMonitor()
        monitor.check_board(board)
        assert "actuation.freq-grid" in monitor.counts
        assert not monitor.ok

    def test_impossible_temperature(self):
        board = _fresh_board()
        board.run_period(board.spec.period_steps())
        board.thermal.temperature = temperature_ceiling(board.spec) + 40.0
        monitor = InvariantMonitor()
        monitor.check_board(board)
        assert "thermal.rc-ceiling" in monitor.counts
        # Way above the trip point without the TMU tripped is also flagged.
        assert "thermal.trip-consistency" in monitor.counts

    def test_subambient_temperature(self):
        board = _fresh_board()
        board.thermal.temperature = board.spec.ambient_temp - 5.0
        monitor = InvariantMonitor()
        monitor.check_board(board)
        assert "thermal.floor" in monitor.counts

    def test_core_count_off_grid(self):
        board = _fresh_board()
        board.clusters[LITTLE].cores_on = 99
        monitor = InvariantMonitor()
        monitor.check_board(board)
        assert "actuation.core-grid" in monitor.counts

    def test_negative_instant_power(self):
        board = _fresh_board()
        board.run_period(board.spec.period_steps())
        board._instant_power = dict(board._instant_power, **{BIG: -1.0})
        monitor = InvariantMonitor()
        monitor.check_board(board)
        assert "power.nonnegative" in monitor.counts

    def test_energy_regression(self):
        board = _fresh_board()
        board.run_period(board.spec.period_steps())
        monitor = InvariantMonitor()
        monitor.check_board(board)
        assert monitor.ok
        board.energy -= 1.0
        monitor.check_board(board)
        assert "board.energy-monotone" in monitor.counts

    def test_violation_event_structure(self):
        board = _fresh_board()
        board.clusters[BIG].frequency = 0.123456
        monitor = InvariantMonitor()
        (violation,) = [
            v for v in monitor.check_board(board)
            if v.check == "actuation.freq-grid"
        ]
        payload = violation.as_dict()
        assert payload["check"] == "actuation.freq-grid"
        assert payload["value"] == 0.123456
        assert "actuation.freq-grid" in str(violation)

    def test_max_violations_caps_storage_not_counts(self):
        board = _fresh_board()
        board.clusters[BIG].frequency = 0.123456
        monitor = InvariantMonitor(max_violations=3)
        for _ in range(10):
            monitor.check_board(board)
        assert len(monitor.violations) == 3
        assert monitor.counts["actuation.freq-grid"] == 10


class _FakeOptimizer:
    """Minimal ExD-optimizer stand-in (monitor keeps weak refs, so a real
    class rather than SimpleNamespace)."""

    def __init__(self, targets, moves=0, accepts=0, reverts=0):
        self.channels = [
            types.SimpleNamespace(name="power", role="free", low=0.0, high=8.0),
            types.SimpleNamespace(name="temp", role="fixed", low=0.0, high=80.0),
        ]
        self.targets = list(targets)
        self.moves = moves
        self.accepts = accepts
        self.reverts = reverts


class TestOptimizerChecks:
    @staticmethod
    def _fake_optimizer(targets, moves=0, accepts=0, reverts=0):
        return _FakeOptimizer(targets, moves, accepts, reverts)

    def test_in_envelope_clean(self):
        monitor = InvariantMonitor()
        opt = self._fake_optimizer([4.0, 999.0], moves=3, accepts=2, reverts=1)
        monitor.check_optimizer(opt)
        assert monitor.ok  # fixed channel exempt from the envelope

    def test_target_outside_envelope(self):
        monitor = InvariantMonitor()
        monitor.check_optimizer(self._fake_optimizer([9.5, 50.0]), layer="hw")
        assert "optimizer.hw.envelope" in monitor.counts

    def test_judgement_balance(self):
        monitor = InvariantMonitor()
        monitor.check_optimizer(
            self._fake_optimizer([4.0, 50.0], moves=5, accepts=1, reverts=1),
            layer="sw",
        )
        assert "optimizer.sw.judgement-balance" in monitor.counts

    def test_counter_regression(self):
        monitor = InvariantMonitor()
        opt = self._fake_optimizer([4.0, 50.0], moves=3, accepts=2, reverts=1)
        monitor.check_optimizer(opt)
        opt.moves, opt.accepts = 2, 2
        monitor.check_optimizer(opt)
        assert "optimizer.hw.counters-monotone" in monitor.counts

    def test_coordinator_shim_reaches_optimizers(self):
        board = _fresh_board()
        board.run_period(board.spec.period_steps())
        shim = types.SimpleNamespace(
            hw_optimizer=self._fake_optimizer([9.5, 50.0]), sw_optimizer=None
        )
        monitor = InvariantMonitor()
        monitor.check_period(board, coordinator=shim)
        assert "optimizer.hw.envelope" in monitor.counts


class TestMonitorTelemetry:
    def test_violations_counted_and_flight_dumped(self, tmp_path):
        from repro.telemetry import TelemetrySession

        session = TelemetrySession(tmp_path / "tel")
        monitor = InvariantMonitor(telemetry=session)
        board = _fresh_board()
        board.clusters[BIG].frequency = 0.123456
        monitor.check_board(board)
        monitor.check_board(board)
        value = session.registry.value(
            "invariant_violations_total", check="actuation.freq-grid"
        )
        assert value == 2
        # Exactly one flight dump per distinct check, not per violation.
        dumps = [p for p in (tmp_path / "tel").glob("flight-*.json")]
        assert len(dumps) == 1
        payload = json.loads(dumps[0].read_text())
        assert "actuation.freq-grid" in payload["reason"]
        session.close()


# ----------------------------------------------------------------------
# Differential oracles
# ----------------------------------------------------------------------
class TestOracles:
    def test_fastpath_bit_exact(self):
        result = oracle_fastpath(default_xu3_spec(), periods=12)
        assert result.agree, result.render()
        assert result.max_ulp == 0
        assert result.compared > 0

    def test_parallel_matrix_bit_exact(self, design_context):
        result = oracle_parallel_matrix(design_context, max_time=4.0, jobs=2)
        assert result.agree, result.render()
        assert result.max_ulp == 0

    def test_cache_round_trip_bit_exact(self, tmp_path):
        result = oracle_cache(tmp_path / "cache", samples=24)
        assert result.agree, result.render()
        assert result.max_ulp == 0

    def test_lqg_matches_textbook_reference(self):
        result = oracle_lqg_reference()
        assert result.agree, result.render()
        assert result.details["worst_rel_error"] < 1e-6
        assert "rtol" in result.render()

    def test_mu_batch_bit_exact(self, design_context):
        from repro.verify.oracles import oracle_mu_batch

        result = oracle_mu_batch(design_context, rack_boards=(1, 4))
        assert result.agree, result.render()
        assert result.max_ulp == 0
        assert set(result.details["dk_blocks"]) == {"hw", "sw"}

    def test_mu_batch_catches_a_one_ulp_kernel_drift(self, design_context,
                                                      monkeypatch):
        import repro.robust
        from repro.verify.oracles import oracle_mu_batch

        kernel = repro.robust.mu_upper_bounds

        def drifting(Ms, structure, iterations=60):
            bounds, scales = kernel(Ms, structure, iterations)
            return np.nextafter(bounds, np.inf), scales

        monkeypatch.setattr(repro.robust, "mu_upper_bounds", drifting)
        result = oracle_mu_batch(design_context, rack_boards=(1,))
        assert not result.agree
        assert result.max_ulp == 1
        assert result.divergence.signal == "bound"

    def test_divergence_reporting(self):
        # A disagreeing pair must produce a localized first-divergence
        # report (step, signal, ULP), not silent agreement.
        from repro.verify.oracles import _Comparator

        cmp = _Comparator(tolerance_ulp=0.0)
        cmp.check(0, "power", 1.0, 1.0)
        cmp.check(1, "temperature", 1.0, 2.0)
        cmp.check(2, "temperature", 1.0, 8.0)  # worse, but not first
        result = cmp.result("demo")
        assert not result.agree
        assert result.divergence.step == 1
        assert result.divergence.signal == "temperature"
        assert result.max_ulp == ulp_distance(1.0, 8.0)
        assert "FAIL" in result.render()
        assert "first divergence" in result.render()

    def test_reference_recursion_tracks_model_changes(self):
        # The textbook reference must be sensitive to the plant: a
        # perturbed A matrix moves the reference gains well past rtol,
        # so a production-synthesis bug cannot hide behind a reference
        # that ignores its inputs.
        from repro.verify.oracles import (_default_lqg_model,
                                          _reference_lqg_gains)

        model = _default_lqg_model()
        weights = ([1.0] * model.n_outputs, [1.0] * model.n_inputs)
        ref = _reference_lqg_gains(model, model.n_inputs, *weights)
        bad_model = model.__class__(model.A * 1.05, model.B, model.C,
                                    model.D, dt=model.dt)
        bad = _reference_lqg_gains(bad_model, model.n_inputs, *weights)
        assert not np.allclose(ref[0], bad[0], rtol=1e-6)


# ----------------------------------------------------------------------
# Golden traces
# ----------------------------------------------------------------------
class TestGoldenTraces:
    def test_goldens_checked_in(self):
        for scheme, workload in GOLDEN_MATRIX:
            golden = load_golden(scheme, workload)
            assert golden is not None, f"missing golden {scheme}/{workload}"
            assert golden["format"] == 1
            assert golden["meta"]["scheme"] == scheme
            assert golden["signals"]["times"], "empty trace"

    def test_fresh_replay_matches_goldens(self, design_context):
        results = verify_goldens(design_context)
        for cell, mismatches in results.items():
            assert mismatches == [], (
                f"{cell}: " + "; ".join(str(m) for m in mismatches[:3])
            )

    def test_capture_is_deterministic(self, design_context):
        a = capture_trace("coordinated-heuristic", "blackscholes",
                          design_context, max_time=5.0)
        b = capture_trace("coordinated-heuristic", "blackscholes",
                          design_context, max_time=5.0)
        assert compare_traces(a, b) == []

    def test_comparator_catches_signal_perturbation(self, design_context):
        golden = load_golden(*GOLDEN_MATRIX[0])
        perturbed = copy.deepcopy(golden)
        perturbed["signals"]["power_big"][3] += 1e-3
        mismatches = compare_traces(golden, perturbed)
        assert any(m.location == "signals.power_big[3]" for m in mismatches)

    def test_comparator_catches_summary_perturbation(self, design_context):
        golden = load_golden(*GOLDEN_MATRIX[0])
        perturbed = copy.deepcopy(golden)
        perturbed["summary"]["energy"] *= 1.0 + 1e-6
        mismatches = compare_traces(golden, perturbed)
        assert any(m.location == "summary.energy" for m in mismatches)

    def test_comparator_tolerates_last_bit_drift(self):
        golden = load_golden(*GOLDEN_MATRIX[0])
        drifted = copy.deepcopy(golden)
        drifted["signals"]["power_big"] = [
            _next_after(v) if v > 0 else v
            for v in drifted["signals"]["power_big"]
        ]
        assert compare_traces(golden, drifted) == []

    def test_comparator_length_mismatch(self):
        golden = load_golden(*GOLDEN_MATRIX[0])
        truncated = copy.deepcopy(golden)
        truncated["signals"]["times"] = truncated["signals"]["times"][:-1]
        mismatches = compare_traces(golden, truncated)
        assert any("signals.times.length" == m.location for m in mismatches)

    def test_comparator_missing_signal(self):
        golden = load_golden(*GOLDEN_MATRIX[0])
        dropped = copy.deepcopy(golden)
        del dropped["signals"]["temperature"]
        mismatches = compare_traces(golden, dropped)
        assert any("signals.temperature" in m.location for m in mismatches)

    def test_comparator_bool_and_nan(self):
        a = {"summary": {"completed": True, "x": float("nan")},
             "signals": {}}
        b = {"summary": {"completed": False, "x": float("nan")},
             "signals": {}}
        mismatches = compare_traces(a, b)
        # completed flips -> mismatch; NaN vs NaN -> equal.
        assert [m.location for m in mismatches] == ["summary.completed"]

    def test_missing_golden_file_fails_loudly(self, design_context, tmp_path):
        results = verify_goldens(design_context, golden_dir=tmp_path,
                                 matrix=(("coordinated-heuristic",
                                          "blackscholes"),))
        (mismatches,) = results.values()
        assert mismatches[0].location == "golden-file-missing"

    def test_write_and_reload_round_trip(self, design_context, tmp_path):
        trace = capture_trace("coordinated-heuristic", "blackscholes",
                              design_context, max_time=5.0)
        write_golden(trace, "coordinated-heuristic", "blackscholes",
                     golden_dir=tmp_path)
        reloaded = load_golden("coordinated-heuristic", "blackscholes",
                               golden_dir=tmp_path)
        assert compare_traces(trace, reloaded) == []


# ----------------------------------------------------------------------
# End-to-end runner
# ----------------------------------------------------------------------
class TestRunVerify:
    def test_cli_dispatch(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(["verify", "--quick", "--regen-golden",
                     "--golden-dir", str(tmp_path), "--samples", "32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "VERIFY: PASS" in out
        from repro.verify.golden import RACK_GOLDEN_MATRIX

        expected = len(GOLDEN_MATRIX) + len(RACK_GOLDEN_MATRIX)
        assert len(list(tmp_path.glob("*.json"))) == expected

    def test_quick_regen_then_verify(self, tmp_path):
        report = run_verify(quick=True, regen_golden=True,
                            golden_dir=tmp_path, samples=32)
        assert report.ok, report.render()
        from repro.verify.golden import RACK_GOLDEN_MATRIX

        assert len(report.regenerated) == (len(GOLDEN_MATRIX)
                                           + len(RACK_GOLDEN_MATRIX))
        rendered = report.render()
        assert "VERIFY: PASS" in rendered
        assert "invariants: OK" in rendered
        for path in report.regenerated:
            assert path.is_file()
