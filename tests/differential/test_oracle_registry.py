"""Unit tests for the oracle registry and the comparison machinery."""

import numpy as np
import pytest

from repro.errors import VerificationError
from repro.verify import (
    EXACT,
    Oracle,
    Tolerance,
    all_oracles,
    assert_equivalent,
    diff_values,
    format_repro_command,
    get_oracle,
    register,
)

EXPECTED_ORACLES = {
    "cpu.run",
    "leakage.expand",
    "segmentation.moving_average",
    "segmentation.windows",
    "ring.ntt",
    "ring.negacyclic_multiply",
    "attack.persistence",
    "attack.profile",
}


class TestRegistry:
    def test_every_fast_reference_pair_is_registered(self):
        assert {o.name for o in all_oracles()} >= EXPECTED_ORACLES

    def test_expensive_filter(self):
        names = {o.name for o in all_oracles(include_expensive=False)}
        assert "attack.profile" not in names
        assert "cpu.run" in names

    def test_unknown_oracle_raises(self):
        with pytest.raises(VerificationError, match="unknown oracle"):
            get_oracle("no.such.oracle")

    def test_duplicate_registration_raises(self):
        with pytest.raises(VerificationError, match="twice"):
            register(
                Oracle(
                    name="cpu.run",
                    description="dup",
                    sample=lambda rng: None,
                    fast=lambda case: None,
                    reference=lambda case: None,
                )
            )

    def test_repro_command_format(self):
        command = format_repro_command("cpu.run", 1234)
        assert command == (
            "PYTHONPATH=src python -m repro.verify replay cpu.run "
            "--case-seed 1234"
        )

    def test_check_seed_is_deterministic(self):
        oracle = get_oracle("leakage.expand")
        first = oracle.sample(np.random.default_rng(77))
        second = oracle.sample(np.random.default_rng(77))
        assert not diff_values(
            oracle.fast(first), oracle.fast(second), EXACT
        )

    def test_failing_report_carries_replay_command(self):
        oracle = Oracle(
            name="_test.broken",
            description="always diverges",
            sample=lambda rng: int(rng.integers(0, 100)),
            fast=lambda case: case,
            reference=lambda case: case + 1,
        )
        report = oracle.check_seed(5)
        assert not report.ok
        assert report.mismatches
        assert "replay _test.broken --case-seed 5" in report.repro_command()


class TestTolerance:
    def test_exact_by_default(self):
        assert EXACT.exact
        assert EXACT.floats_equal(1.0, 1.0)
        assert not EXACT.floats_equal(1.0, float(np.nextafter(1.0, 2.0)))

    def test_nan_equals_nan(self):
        assert EXACT.floats_equal(float("nan"), float("nan"))
        assert not EXACT.floats_equal(float("nan"), 0.0)

    def test_envelope(self):
        tolerance = Tolerance(rtol=1e-9, atol=0.0)
        assert tolerance.floats_equal(1.0, 1.0 + 1e-12)
        assert not tolerance.floats_equal(1.0, 1.0 + 1e-6)

    def test_path_overrides_widen_specific_leaves(self):
        tolerance = Tolerance(
            rtol=1e-9, overrides=(("class_precisions", Tolerance(rtol=1e-5)),)
        )
        loose = {"class_precisions": np.array([1.0]), "means": np.array([1.0])}
        drifted = {
            "class_precisions": np.array([1.0 + 1e-7]),
            "means": np.array([1.0 + 1e-7]),
        }
        mismatches = diff_values(loose, drifted, tolerance)
        assert len(mismatches) == 1
        assert "means" in mismatches[0]

    def test_callable_tolerance_resolves_per_case(self):
        oracle = Oracle(
            name="test.scaled",
            description="",
            sample=lambda rng: {"x": float(rng.uniform(10.0, 20.0))},
            fast=lambda case: case["x"] * (1.0 + 1e-8),
            reference=lambda case: case["x"],
            tolerance=lambda case: Tolerance(atol=abs(case["x"]) * 1e-6),
        )
        assert oracle.check_seed(0).ok
        assert oracle.tolerance_for({"x": 10.0}).atol == pytest.approx(1e-5)


class TestDiffValues:
    def test_equal_structures(self):
        value = {"a": np.arange(3), "b": [1.5, (2, 3)], "c": None}
        assert diff_values(value, {"a": np.arange(3), "b": [1.5, (2, 3)], "c": None}) == []

    def test_array_mismatch_reports_indices(self):
        a = np.zeros(5)
        b = np.zeros(5)
        b[3] = 1.0
        (line,) = diff_values(a, b)
        assert "[3]" in line

    def test_mismatch_cap(self):
        lines = diff_values(np.zeros(100), np.ones(100))
        assert len(lines) == 11  # MAX_MISMATCHES + "and N more"
        assert "90 more" in lines[-1]

    def test_shape_mismatch(self):
        (line,) = diff_values(np.zeros((2, 3)), np.zeros((3, 2)))
        assert "shape" in line

    def test_dict_key_mismatch(self):
        lines = diff_values({"a": 1, "x": 2}, {"a": 1, "y": 2})
        assert any("missing" in line for line in lines)
        assert any("unexpected" in line for line in lines)

    def test_nested_path_reporting(self):
        fast = {"t": {"means": [np.array([1.0, 2.0])]}}
        reference = {"t": {"means": [np.array([1.0, 2.5])]}}
        (line,) = diff_values(fast, reference)
        assert "['t']" in line and "['means']" in line

    def test_none_vs_value(self):
        (line,) = diff_values(None, 3)
        assert "NoneType" in line

    def test_nan_arrays_equal(self):
        a = np.array([1.0, np.nan])
        assert diff_values(a, a.copy()) == []

    def test_assert_equivalent_raises(self):
        with pytest.raises(VerificationError, match="divergence"):
            assert_equivalent([1], [2], context="unit")
        assert_equivalent([1], [1])
