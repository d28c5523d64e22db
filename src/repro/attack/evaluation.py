"""Attack-campaign evaluation: from probability tables to hardness.

The paper turns its 25,000 attack traces into LWE-with-hints and
re-estimates SEAL-128's hardness.  These functions do that last step
for a campaign's per-coefficient probability tables;
:class:`~repro.attack.campaign.CampaignReport` exposes them as
``hint_statistics()`` and ``estimate_bikz()``.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import AttackError
from repro.hints.estimator import beta_for_dbdd
from repro.hints.hintgen import apply_hints, hints_from_probability_tables
from repro.hints.security import make_dbdd, seal_128_parameters


def hint_statistics(tables: List[Dict[int, float]]) -> Dict[str, float]:
    """Perfect-hint fraction and mean posterior variance."""
    hints = hints_from_probability_tables(tables)
    perfect = sum(1 for h in hints if h.is_perfect)
    variances = [h.variance for h in hints if not h.is_perfect]
    return {
        "perfect_fraction": perfect / max(len(hints), 1),
        "mean_approximate_variance": float(np.mean(variances)) if variances else 0.0,
    }


def estimate_bikz(tables: List[Dict[int, float]], params=None) -> float:
    """bikz of the SEAL-128 primal attack given these tables' hints.

    Tables are tiled/truncated to the instance's error dimension.
    """
    params = params if params is not None else seal_128_parameters()
    if not tables:
        raise AttackError("campaign produced no probability tables")
    tiled = list(tables)
    while len(tiled) < params.m:
        tiled.extend(tables)
    hints = hints_from_probability_tables(tiled[: params.m])
    instance = make_dbdd(params)
    apply_hints(instance, hints, params.n)
    return beta_for_dbdd(instance)
