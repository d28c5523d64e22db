"""Differential tests for the compute backends, via the oracle registry.

One parametrized sweep: every kernel-group oracle of every backend that
probes available on this host (``backend.native.*`` wherever a C
compiler exists), each driven over a deterministic quick-tier seed range (deep
tier widens it).  The oracles themselves pin the comparison contract —
bit-exact for every kernel — so this file only has to drive them and
surface the replay command on failure.

Hosts with no compiled backend collect zero cases here; the registry's
fallback behaviour is covered by ``tests/backends/test_selection.py``.
"""

import pytest

from repro.verify.compare import EXACT
from repro.verify.oracles import all_oracles, get_oracle

from tests.conftest import DEEP

BACKEND_ORACLES = sorted(
    o.name for o in all_oracles() if o.name.startswith("backend.")
)

CASES_PER_ORACLE = 40 if DEEP else 8


@pytest.mark.parametrize("oracle_name", BACKEND_ORACLES)
def test_backend_kernel_matches_reference(oracle_name):
    oracle = get_oracle(oracle_name)
    for case_seed in range(CASES_PER_ORACLE):
        report = oracle.check_seed(case_seed)
        assert report.ok, (
            f"{oracle_name} diverged on case {case_seed} "
            f"({report.case_summary}):\n"
            + "\n".join(report.mismatches[:10])
            + f"\nreplay: {report.repro_command()}"
        )


def test_every_available_backend_has_full_oracle_coverage():
    from repro.backends import available_backends, probe_backend

    for backend in available_backends():
        if backend == "reference":
            continue
        declared = probe_backend(backend).kernels
        registered = {
            name.split(".", 2)[2]
            for name in BACKEND_ORACLES
            if name.split(".", 2)[1] == backend
        }
        expected = set()
        if {"ntt_forward", "ntt_inverse", "pointwise_mulmod"} <= set(declared):
            expected.add("ntt")
        if "expand_events" in declared:
            expected.add("expand")
        if "add_noise" in declared:
            expected.add("noise")
        assert registered == expected


def test_every_backend_oracle_is_bit_exact():
    for name in BACKEND_ORACLES:
        assert get_oracle(name).tolerance is EXACT, name
