"""Golden end-to-end fixtures: the Table 1/2 flow at toy scale.

The committed JSON pins the *entire* pipeline — firmware cycles,
leakage synthesis, segmentation, templates, campaign statistics,
posterior tables — bit-for-bit.  A legitimate behaviour change shows
up as a reviewable fixture diff::

    PYTHONPATH=src python -m pytest tests/golden -q --regen-goldens
"""

import json
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from repro.backends import use_backend
from repro.verify import goldens

FIXTURE = Path(__file__).parent / "campaign_small.json"


def test_campaign_golden_is_bit_exact(regen_goldens):
    payload = goldens.golden_payload()
    if regen_goldens:
        goldens.save_golden(goldens.canonical(payload), FIXTURE)
        return
    assert FIXTURE.exists(), (
        f"missing fixture {FIXTURE}; generate with --regen-goldens"
    )
    mismatches = goldens.compare_golden(payload, goldens.load_golden(FIXTURE))
    assert not mismatches, "\n".join(
        ["golden campaign fixture diverged:", *mismatches[:20],
         "if intentional, rerun with --regen-goldens and commit the diff"]
    )


def test_reference_backend_matches_fixture():
    # The fixture runs under the probed backend (native where it
    # builds); the numpy reference twin must land on the same bits.
    with use_backend("reference"):
        payload = goldens.golden_payload()
    mismatches = goldens.compare_golden(payload, goldens.load_golden(FIXTURE))
    assert not mismatches, "\n".join(
        ["reference backend diverged from the fixture:", *mismatches[:20]]
    )


def test_payload_is_worker_count_invariant():
    sequential = goldens.golden_payload(workers=1)
    threaded = goldens.golden_payload(workers=3)
    assert goldens.compare_golden(sequential, goldens.canonical(threaded)) == []


def test_fixture_sanity():
    payload = goldens.load_golden(FIXTURE)
    table1 = payload["table1"]
    # The paper's headline at toy scale: sign recovery is perfect.
    assert table1["sign_accuracy"] == 1.0
    assert table1["traces_failed"] == 0
    assert table1["coefficients_attacked"] == (
        goldens.GOLDEN_CAMPAIGN["trace_count"]
        * goldens.GOLDEN_CAMPAIGN["coeffs_per_trace"]
    )
    outcomes = payload["table2"]["outcomes"]
    assert len(outcomes) == table1["coefficients_attacked"]
    for entry in outcomes[: goldens.TABLES_COMMITTED]:
        total = sum(entry["table"].values())
        assert abs(total - 1.0) < 1e-9
        assert entry["variance"] >= 0.0


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_json_float_roundtrip_is_lossless(value):
    # The bit-exactness claim rests on JSON's shortest-repr floats.
    assert json.loads(json.dumps(value)) == value
