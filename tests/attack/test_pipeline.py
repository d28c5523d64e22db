"""Integration tests for the full single-trace attack."""

import numpy as np
import pytest

from repro.attack.branch import NEGATIVE, POSITIVE, ZERO, sign_of
from repro.attack.metrics import ConfusionMatrix
from repro.attack.pipeline import SingleTraceAttack
from repro.errors import AttackError


class TestSignOf:
    @pytest.mark.parametrize("value,sign", [(3, 1), (-3, -1), (0, 0), (41, 1)])
    def test_mapping(self, value, sign):
        assert sign_of(value) == sign


class TestProfiling:
    def test_report_contents(self, profiled_attack):
        assert profiled_attack.templates is not None
        assert profiled_attack.branch_classifier is not None
        assert profiled_attack.refiner is not None

    def test_attack_before_profiling_raises(self, bench):
        attack = SingleTraceAttack(bench)
        with pytest.raises(AttackError):
            attack.attack_samples(np.zeros(1000))

    def test_unknown_poi_method_rejected(self, bench):
        with pytest.raises(AttackError):
            SingleTraceAttack(bench, poi_method="magic")


class TestSingleTraceAttack:
    def test_sign_recovery_is_near_perfect(self, bench, profiled_attack):
        """The paper's vulnerability 1: 100% branch identification."""
        correct = total = 0
        for seed in range(900, 925):
            cap = bench.capture(seed, 4)
            result = profiled_attack.attack(cap)
            for value, sign in zip(cap.values, result.signs):
                total += 1
                correct += sign_of(value) == sign
        assert correct / total >= 0.99

    def test_zero_coefficients_recovered_exactly(self, bench, profiled_attack):
        hits = total = 0
        for seed in range(950, 990):
            cap = bench.capture(seed, 4)
            result = profiled_attack.attack(cap)
            for value, estimate in zip(cap.values, result.estimates):
                if value == 0:
                    total += 1
                    hits += estimate == 0
        assert total > 10
        assert hits / total >= 0.95

    def test_negatives_sharper_than_positives(self, bench, profiled_attack):
        """The paper's vulnerability 3: negation disambiguates negatives."""
        cm = ConfusionMatrix()
        for seed in range(700, 760):
            cap = bench.capture(seed, 4)
            result = profiled_attack.attack(cap)
            cm.record_many(cap.values, result.estimates)
        neg = [cm.accuracy(v) for v in range(-5, 0) if cm.total(v) >= 5]
        pos = [cm.accuracy(v) for v in range(2, 6) if cm.total(v) >= 5]
        assert neg and pos
        assert np.mean(neg) > np.mean(pos) + 0.15

    def test_probability_tables_normalised(self, bench, profiled_attack):
        cap = bench.capture(42, 4)
        result = profiled_attack.attack(cap)
        assert len(result) == 4
        for table in result.probabilities:
            assert sum(table.values()) == pytest.approx(1.0)

    def test_probabilities_respect_sign(self, bench, profiled_attack):
        cap = bench.capture(43, 6)
        result = profiled_attack.attack(cap)
        for sign, table in zip(result.signs, result.probabilities):
            assert all(sign_of(v) == sign for v in table)

    def test_estimate_magnitudes_plausible(self, bench, profiled_attack):
        cap = bench.capture(44, 6)
        result = profiled_attack.attack(cap)
        assert all(-41 <= e <= 41 for e in result.estimates)


class TestNormaliseMatrix:
    """The vectorised ``_normalise_matrix`` equals per-row ``_normalise``."""

    @pytest.mark.parametrize("rows", [1, 7, 1024])
    def test_bit_identical_to_per_row(self, bench, rows):
        attack = SingleTraceAttack(bench, standardize=True)
        rng = np.random.default_rng(rows)
        matrix = rng.normal(size=(rows, 260)) * rng.uniform(0.0, 5.0, (rows, 1))
        matrix += rng.normal(0.0, 100.0, (rows, 1))
        matrix[0] = 3.25  # zero spread: centred, not divided
        expected = np.vstack([attack._normalise(row) for row in matrix])
        np.testing.assert_array_equal(attack._normalise_matrix(matrix), expected)
        np.testing.assert_array_equal(
            attack._normalise_matrix(np.asfortranarray(matrix)), expected
        )
        assert not attack._normalise_matrix(matrix)[0].any()

    def test_off_returns_the_slices(self, bench):
        matrix = np.arange(12.0).reshape(3, 4)
        attack = SingleTraceAttack(bench)
        assert attack._normalise_matrix(matrix) is matrix


class TestConfusionMatrix:
    def test_percentages(self):
        cm = ConfusionMatrix()
        cm.record_many([1, 1, 1, 2], [1, 1, 2, 2])
        assert cm.percentage(1, 1) == pytest.approx(100 * 2 / 3)
        assert cm.percentage(1, 2) == pytest.approx(100 / 3)
        assert cm.accuracy() == pytest.approx(0.75)
        assert cm.accuracy(2) == 1.0

    def test_sign_accuracy(self):
        cm = ConfusionMatrix()
        cm.record_many([-3, -2, 4], [-1, 2, 5])
        assert cm.sign_accuracy() == pytest.approx(2 / 3)

    def test_empty(self):
        cm = ConfusionMatrix()
        assert cm.accuracy() == 0.0
        assert cm.percentage(0, 0) == 0.0

    def test_format_table(self):
        cm = ConfusionMatrix()
        cm.record_many([0, 1], [0, 1])
        table = cm.format_table()
        assert "100.0" in table
        assert "pred" in table

    def test_matrix_shape(self):
        cm = ConfusionMatrix()
        cm.record_many([-1, 0, 1], [-1, 0, 1])
        assert cm.matrix().shape == (3, 3)
        assert np.trace(cm.matrix()) == pytest.approx(300.0)
