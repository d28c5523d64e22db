"""Differential tests for the compute backends, via the oracle registry.

One parametrized sweep: every kernel-group oracle of every backend that
probes available on this host (``backend.native.*`` wherever a C
compiler exists), each driven over a deterministic quick-tier seed range (deep
tier widens it).  The oracles themselves pin the comparison contract —
bit-exact for the integer/mirrored-float kernels, declared tolerance
for the template quadratic form — so this file only has to drive them
and surface the replay command on failure.

Hosts with no compiled backend collect zero cases here; the registry's
fallback behaviour is covered by ``tests/backends/test_selection.py``.
"""

import pytest

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
    from repro.backends import available_backends, kernel_exactness

    for backend in available_backends():
        if backend == "reference":
            continue
        exactness = kernel_exactness(backend)
        registered = {
            name.split(".", 2)[2]
            for name in BACKEND_ORACLES
            if name.split(".", 2)[1] == backend
        }
        expected = set()
        if {"ntt_forward", "ntt_inverse", "pointwise_mulmod"} <= set(exactness):
            expected.add("ntt")
        if "expand_events" in exactness:
            expected.add("expand")
        if "template_quad" in exactness:
            expected.add("template")
        assert registered == expected
