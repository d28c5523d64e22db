"""Parity of streaming sufficient statistics with the materialized path.

The streaming profiler must be a pure refactor: same POIs, same
templates (to 1e-9), same attack decisions as the capture-everything
reference, for any chunking of the input.
"""

import numpy as np
import pytest

from repro.attack.branch import BranchClassifier
from repro.attack.pipeline import SingleTraceAttack
from repro.attack.template import MomentAccumulator, RunningMoments, TemplateSet
from repro.power.capture import TraceAcquisition
from repro.power.scope import Oscilloscope
from repro.riscv.device import GaussianSamplerDevice

PAPER_Q = 132120577


def fresh_bench():
    return TraceAcquisition(
        GaussianSamplerDevice([PAPER_Q]), scope=Oscilloscope(noise_std=1.0), rng=0
    )


class TestRunningMoments:
    def test_matches_batch_statistics(self):
        rng = np.random.default_rng(1)
        data = rng.normal(2.0, 1.5, size=(57, 12))
        m = RunningMoments.from_matrix(data)
        assert m.count == 57
        np.testing.assert_allclose(m.mean, data.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(m.variances(), data.var(axis=0), atol=1e-12)
        centered = data - data.mean(axis=0)
        np.testing.assert_allclose(m.scatter, centered.T @ centered, atol=1e-9)

    def test_chunking_invariant(self):
        rng = np.random.default_rng(2)
        data = rng.normal(0, 1, size=(40, 6))
        whole = RunningMoments.from_matrix(data)
        pieces = RunningMoments(6)
        for chunk in np.array_split(data, 7):
            pieces.update(chunk)
        np.testing.assert_allclose(pieces.mean, whole.mean, atol=1e-12)
        np.testing.assert_allclose(pieces.scatter, whole.scatter, atol=1e-9)

    def test_merge_is_union(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(10, 4)), rng.normal(size=(15, 4))
        merged = RunningMoments.from_matrix(a).merge(RunningMoments.from_matrix(b))
        union = RunningMoments.from_matrix(np.vstack([a, b]))
        assert merged.count == union.count
        np.testing.assert_allclose(merged.mean, union.mean, atol=1e-12)
        np.testing.assert_allclose(merged.scatter, union.scatter, atol=1e-9)

    def test_block_merge_is_the_full_merge_on_the_block(self):
        rng = np.random.default_rng(4)
        parts = [RunningMoments.from_matrix(rng.normal(v, 1 + v, (9, 8))) for v in range(4)]
        before = [(p.mean.copy(), p.scatter.copy()) for p in parts]
        full, block = RunningMoments(8), RunningMoments(8)
        for part in parts:
            full.merge(part)
            block.merge(part, slice(3, 7))
        assert block.count == full.count
        assert block.mean.tobytes() == full.mean.tobytes()
        assert block.scatter[3:7, 3:7].tobytes() == full.scatter[3:7, 3:7].tobytes()
        for part, (mean, scatter) in zip(parts, before):  # arguments only read
            assert part.mean.tobytes() == mean.tobytes()
            assert part.scatter.tobytes() == scatter.tobytes()


class TestMomentAccumulator:
    def test_matches_per_label_grouping(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(-3, 4, size=200)
        data = rng.normal(labels[:, None], 1.0, size=(200, 9))
        acc = MomentAccumulator(9, chunk=16)
        for start in range(0, 200, 13):  # uneven feeding
            acc.add(data[start : start + 13], labels[start : start + 13])
        moments = acc.moments()
        assert acc.count == 200
        for value in np.unique(labels):
            group = data[labels == value]
            m = moments[int(value)]
            assert m.count == group.shape[0]
            np.testing.assert_allclose(m.mean, group.mean(axis=0), atol=1e-12)

    def test_label_count_mismatch_raises(self):
        from repro.errors import AttackError

        with pytest.raises(AttackError):
            MomentAccumulator(4).add(np.zeros((3, 4)), [1, 2])


class TestTemplateParity:
    @pytest.fixture(scope="class")
    def labelled(self):
        rng = np.random.default_rng(5)
        labels = list(range(-4, 5))
        return {l: rng.normal(l, 1.0, size=(30, 40)) for l in labels}

    @pytest.mark.parametrize("pooled", [True, False])
    def test_from_moments_matches_build(self, labelled, pooled):
        pois = [3, 7, 11, 19, 23, 31]
        built = TemplateSet.build(labelled, pois, pooled=pooled)
        moments = {l: RunningMoments.from_matrix(t) for l, t in labelled.items()}
        streamed = TemplateSet.from_moments(moments, pois, pooled=pooled)
        np.testing.assert_allclose(
            streamed.precision, built.precision, rtol=0, atol=1e-9
        )
        for label in built.labels:
            np.testing.assert_allclose(
                streamed.means[label], built.means[label], atol=1e-9
            )
            if not pooled:
                np.testing.assert_allclose(
                    streamed.class_precisions[label],
                    built.class_precisions[label],
                    rtol=1e-9,
                    atol=1e-9,
                )
                assert streamed.class_log_dets[label] == pytest.approx(
                    built.class_log_dets[label], abs=1e-9
                )

    def test_branch_from_moments_matches_build(self, labelled):
        by_sign_traces = {
            -1: np.vstack([t for l, t in labelled.items() if l < 0]),
            0: labelled[0],
            1: np.vstack([t for l, t in labelled.items() if l > 0]),
        }
        built = BranchClassifier.build(by_sign_traces, 5, 35)
        by_sign_moments = {
            s: RunningMoments.from_matrix(t) for s, t in by_sign_traces.items()
        }
        streamed = BranchClassifier.from_moments(by_sign_moments, 5, 35)
        assert streamed.templates.pois == built.templates.pois
        np.testing.assert_allclose(
            streamed.templates.precision, built.templates.precision, atol=1e-9
        )
        assert streamed.separation() == pytest.approx(built.separation(), abs=1e-9)


class TestProfileParity:
    """Streaming profile() == materialized profile_reference() end to end."""

    @pytest.fixture(scope="class")
    def pair(self):
        streaming = SingleTraceAttack(fresh_bench(), poi_count=24)
        streaming_report = streaming.profile(
            num_traces=80, coeffs_per_trace=6, first_seed=50_000
        )
        reference = SingleTraceAttack(fresh_bench(), poi_count=24)
        reference_report = reference.profile_reference(
            num_traces=80, coeffs_per_trace=6, first_seed=50_000
        )
        return streaming, streaming_report, reference, reference_report

    def test_same_classes_and_pois(self, pair):
        streaming, s_report, reference, r_report = pair
        assert s_report.slice_count == r_report.slice_count
        assert s_report.classes == r_report.classes
        assert s_report.pois == r_report.pois

    def test_templates_within_1e9(self, pair):
        streaming, _, reference, _ = pair
        np.testing.assert_allclose(
            streaming.templates.precision,
            reference.templates.precision,
            rtol=0,
            atol=1e-9,
        )
        for label in reference.templates.labels:
            np.testing.assert_allclose(
                streaming.templates.means[label],
                reference.templates.means[label],
                rtol=0,
                atol=1e-9,
            )
        np.testing.assert_allclose(
            streaming.branch_classifier.templates.precision,
            reference.branch_classifier.templates.precision,
            rtol=0,
            atol=1e-9,
        )

    def test_identical_attack_decisions(self, pair):
        streaming, _, reference, _ = pair
        bench = fresh_bench()
        for seed in (900, 901, 902):
            captured = bench.capture(seed, 5)
            a = streaming.attack(captured)
            b = reference.attack(captured)
            assert a.signs == b.signs
            assert a.estimates == b.estimates

    def test_timings_reported(self, pair):
        _, s_report, _, _ = pair
        assert set(s_report.timings) == {"capture", "segment", "build"}
        assert all(v >= 0 for v in s_report.timings.values())

    def test_profile_workers_matches_serial_batch_noise(self):
        """Pooled profiling (worker-side segmentation) equals the same
        profile run with workers on a single process — per-seed noise
        makes the accumulation order-independent."""
        one = SingleTraceAttack(fresh_bench(), poi_count=24)
        one.profile(num_traces=30, coeffs_per_trace=4, first_seed=50_000, workers=1)
        # workers=1 short-circuits to the serial segmented path; workers=2
        # exercises the process pool
        two = SingleTraceAttack(fresh_bench(), poi_count=24)
        two.profile(num_traces=30, coeffs_per_trace=4, first_seed=50_000, workers=2)
        assert one.templates.pois == two.templates.pois
        np.testing.assert_array_equal(
            one.templates.precision, two.templates.precision
        )
        for label in one.templates.labels:
            np.testing.assert_array_equal(
                one.templates.means[label], two.templates.means[label]
            )
