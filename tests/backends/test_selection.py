"""Unit tests for the compute-backend registry.

The differential suite (``tests/differential/test_backends.py``) and
the ``backend.*`` oracles prove kernel equivalence; this file pins the
registry's own contract — probing, validation, auto-selection, the
temporary :func:`use_backend` override, and graceful degradation when
a backend's dependency is absent.
"""

import pytest

from repro import backends
from repro.backends import (
    BACKEND_NAMES,
    available_backends,
    backend_id,
    get_backend,
    get_kernel,
    probe_backend,
    probe_error,
    reset_backend,
    use_backend,
)
from repro.errors import ParameterError

#: Compiled backends that actually probed on this host (the reference
#: backend always probes; it carries no kernels).
COMPILED = [b for b in available_backends() if b != "reference"]


@pytest.fixture(autouse=True)
def _clean_selection():
    """Each test starts from auto-selection."""
    reset_backend()
    yield
    reset_backend()


class TestResolve:
    def test_unknown_name_lists_options(self):
        with pytest.raises(ParameterError, match="unknown backend 'warp'"):
            probe_backend("warp")
        with pytest.raises(ParameterError, match=r"\(choose from reference, native\)"):
            with use_backend("warp"):
                pass


class TestProbe:
    def test_reference_always_available(self):
        backend = probe_backend("reference")
        assert backend is not None
        assert backend.name == "reference"
        assert backend.kernels == {}  # call sites keep inline numpy paths
        assert "reference" in available_backends()

    def test_missing_dependency_degrades_without_raising(self, monkeypatch):
        # On hosts without a C toolchain the probe must cache a reason
        # and return None — never propagate the build error.
        def no_toolchain():
            raise ImportError("no module named 'cffi'")

        monkeypatch.setitem(backends._FACTORIES, "native", no_toolchain)
        # Fresh probe tables: the failure must not outlive this test.
        monkeypatch.setattr(backends, "_PROBED", {})
        monkeypatch.setattr(backends, "_PROBE_ERRORS", {})
        assert probe_backend("native") is None
        assert "native" not in available_backends()
        assert probe_error("native")  # reason recorded
        # Selection still works end to end.
        assert get_backend().name in available_backends()

    def test_unavailable_backend_raises_only_on_explicit_request(
        self, monkeypatch
    ):
        monkeypatch.setitem(backends._PROBED, "native", None)
        monkeypatch.setitem(
            backends._PROBE_ERRORS, "native", "ImportError: no module"
        )
        with pytest.raises(ParameterError, match="unavailable"):
            with use_backend("native"):
                pass
        # Auto-selection degrades instead of raising.
        assert get_backend().name == "reference"


class TestSelection:
    def test_auto_selects_highest_priority_available(self):
        chosen = get_backend()
        assert chosen.name in available_backends()
        best = max(
            (probe_backend(n) for n in available_backends()),
            key=lambda b: b.priority,
        )
        assert chosen.priority == best.priority

    def test_use_backend_restores_prior_selection(self):
        before = get_backend().name
        with use_backend("reference") as backend:
            assert backend.name == "reference"
            assert get_backend().name == "reference"
        assert get_backend().name == before

    def test_backend_id_is_name_dash_version(self):
        name, _, version = backend_id().partition("-")
        assert name in BACKEND_NAMES
        assert version


@pytest.mark.skipif(not COMPILED, reason="no compiled backend on this host")
class TestKernelGating:
    def test_exact_kernels_armed_under_auto_probe(self):
        assert get_kernel("ntt_forward") is not None
        assert get_kernel("expand_events") is not None

    def test_reference_never_serves_kernels(self):
        with use_backend("reference"):
            assert get_kernel("ntt_forward") is None

    def test_unknown_kernel_name_is_none(self):
        assert get_kernel("no_such_kernel") is None


@pytest.mark.skipif(not COMPILED, reason="no compiled backend on this host")
class TestReportPlumbing:
    def test_campaign_report_defaults_and_records_backend(self):
        import dataclasses

        from repro.attack.campaign import CampaignReport

        # No stale defaults: the one constructor, aggregate_outcomes,
        # records the backend and the engine the campaign ran under.
        defaults = {f.name: f.default for f in dataclasses.fields(CampaignReport)}
        assert defaults["backend"] is dataclasses.MISSING
        assert defaults["engine"] is dataclasses.MISSING

    def test_profile_cache_key_ignores_backend(self):
        # Every kernel is bit-exact, so a profile or a checkpoint made
        # under one backend serves a run under any other.
        from repro.attack.campaign import profile_cache_key
        from repro.attack.checkpoint import campaign_fingerprint
        from repro.attack.pipeline import SingleTraceAttack
        from repro.power.capture import TraceAcquisition
        from repro.power.scope import Oscilloscope
        from repro.riscv.device import GaussianSamplerDevice

        bench = TraceAcquisition(
            GaussianSamplerDevice([132120577]),
            scope=Oscilloscope(noise_std=1.0),
            rng=0,
        )
        attack = SingleTraceAttack(bench, poi_count=4)
        args = (4, 2, 1, "sequential")
        fingerprint_args = (1, 24, 8, 0, [-1, 0, 1])
        with use_backend("reference"):
            reference_key = profile_cache_key(attack, *args)
            reference_fingerprint = campaign_fingerprint(*fingerprint_args)
        with use_backend(COMPILED[0]):
            assert profile_cache_key(attack, *args) == reference_key
            assert campaign_fingerprint(*fingerprint_args) == reference_fingerprint
