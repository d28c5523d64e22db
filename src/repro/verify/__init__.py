"""Differential verification of every fast/reference pair in the repo.

Four layers:

- :mod:`repro.verify.compare` — structural diffing with tolerance
  envelopes (``diff_values``, ``assert_equivalent``);
- :mod:`repro.verify.conformance` — the cross-engine RV32IM harness:
  one-call engine execution capture (:class:`EngineRun`), first-retire
  divergence reporting, and the adversarial case generators behind the
  ``cpu.retire_log`` fuzz oracle;
- :mod:`repro.verify.oracles` — the :class:`Oracle` registry pairing
  each optimised path with its pinned reference, each with a seeded
  case sampler so failures replay from ``(oracle name, case seed)``;
- :mod:`repro.verify.goldens` — bit-exact end-to-end JSON fixtures for
  the Table 1/2 campaign flow.

Run ``python -m repro.verify --help`` for the CLI (list / run / fuzz /
replay / golden); the Hypothesis suites under ``tests/differential/``
drive the same oracles with shrinking strategies.
"""

from repro.verify.compare import (
    EXACT,
    Tolerance,
    assert_equivalent,
    diff_values,
)
from repro.verify.conformance import (
    ADVERSARIAL_KINDS,
    ENGINE_PAIRS,
    EngineRun,
    assert_engines_match,
    compare_runs,
    first_retire_divergence,
    random_adversarial_program,
    run_scalar_engine,
)
from repro.verify.oracles import (
    Oracle,
    OracleReport,
    all_oracles,
    format_repro_command,
    get_oracle,
    register,
    run_oracle,
    sample_retire_case,
)

__all__ = [
    "EXACT",
    "Tolerance",
    "assert_equivalent",
    "diff_values",
    "ADVERSARIAL_KINDS",
    "ENGINE_PAIRS",
    "EngineRun",
    "assert_engines_match",
    "compare_runs",
    "first_retire_divergence",
    "random_adversarial_program",
    "run_scalar_engine",
    "Oracle",
    "OracleReport",
    "all_oracles",
    "format_repro_command",
    "get_oracle",
    "register",
    "run_oracle",
    "sample_retire_case",
]
