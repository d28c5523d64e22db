"""The RevEAL single-trace attack pipeline (section III of the paper).

Stages, in order:

1. :mod:`repro.attack.segmentation` — locate each coefficient's
   sampling window inside the full encryption trace and align it on the
   value-computation anchor (the paper's "peaks", Fig. 3a);
2. :mod:`repro.attack.branch` — classify which of the three Fig. 2
   branches executed, recovering the coefficient's sign or that it is
   zero (vulnerability 1, Fig. 3b);
3. :mod:`repro.attack.poi` — select points of interest via SOSD (and
   SOST/DOM for ablation);
4. :mod:`repro.attack.template` — build/match multivariate-Gaussian
   templates on the POIs, combining the value-assignment leakage
   (vulnerability 2) with the negation leakage (vulnerability 3);
5. :mod:`repro.attack.pipeline` — the end-to-end single-trace attack;
6. :mod:`repro.attack.recovery` — algebraic message recovery from the
   recovered error polynomial (equations 2-3);
7. :mod:`repro.attack.metrics` — confusion matrices and success rates
   (Table I).

Supporting tools: :mod:`repro.attack.search` (best-first exploration of
the remaining space), :mod:`repro.attack.campaign` (the campaign entry
point :func:`run_campaign`, its one aggregation fold and a profile
cache), :func:`repro.attack.orchestrator.run_orchestrated` (the parallel
campaign executor: one future per grain of seeds on a forked process
pool, folded in the caller's thread, with checkpoint/resume through
:mod:`repro.attack.checkpoint`), :mod:`repro.attack.evaluation`
(hint statistics and bikz estimates from a campaign's probability
tables), :mod:`repro.attack.profile_store` (on-disk profile cache),
:mod:`repro.attack.cpa` (unprofiled correlation analysis) and
:mod:`repro.attack.persistence` (profile once, attack later).
"""

from repro.attack.branch import BranchClassifier
from repro.attack.campaign import (
    CampaignReport,
    aggregate_outcomes,
    profile_cache_key,
    profiled_attack_cached,
    run_campaign,
)
from repro.attack.checkpoint import CampaignCheckpoint, campaign_fingerprint
from repro.attack.orchestrator import run_orchestrated
from repro.attack.profile_store import ProfileStore
from repro.attack.cpa import correlation_trace, locate_value_leakage
from repro.attack.metrics import ConfusionMatrix
from repro.attack.persistence import load_attack, save_attack
from repro.attack.pipeline import AttackResult, SingleTraceAttack
from repro.attack.poi import select_pois_dom, select_pois_sosd, select_pois_sost
from repro.attack.recovery import (
    MessageRecovery,
    recover_message,
    recover_u,
    recovery_is_plausible,
)
from repro.attack.search import SearchResult, enumerate_candidates, search_message
from repro.attack.segmentation import Segmenter, SegmenterConfig
from repro.attack.template import MomentAccumulator, RunningMoments, TemplateSet

__all__ = [
    "AttackResult",
    "BranchClassifier",
    "CampaignCheckpoint",
    "CampaignReport",
    "ConfusionMatrix",
    "ProfileStore",
    "aggregate_outcomes",
    "campaign_fingerprint",
    "run_orchestrated",
    "MomentAccumulator",
    "RunningMoments",
    "profile_cache_key",
    "profiled_attack_cached",
    "correlation_trace",
    "load_attack",
    "locate_value_leakage",
    "run_campaign",
    "save_attack",
    "MessageRecovery",
    "SearchResult",
    "enumerate_candidates",
    "search_message",
    "Segmenter",
    "SegmenterConfig",
    "SingleTraceAttack",
    "TemplateSet",
    "recover_message",
    "recover_u",
    "recovery_is_plausible",
    "select_pois_dom",
    "select_pois_sosd",
    "select_pois_sost",
]
