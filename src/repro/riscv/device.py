"""The "device": a simulated PicoRV32 running the Gaussian sampler.

``GaussianSamplerDevice`` is the reproduction's stand-in for the
paper's SAKURA-G target.  One ``run`` is one execution of SEAL's
``set_poly_coeffs_normal`` for ``count`` coefficients; it yields both
the functional output (the sampled noise values / the RNS polynomial
buffer) and the microarchitectural events that the power model turns
into a trace.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ParameterError, SimulationError
from repro.riscv.assembler import assemble
from repro.riscv.cpu import Cpu, EventLog
from repro.riscv.memory import Memory
from repro.riscv.retire import RetireLog
from repro.riscv.programs.gaussian import gaussian_sampler_source

#: Fixed memory map: code | modulus table | output buffer.
_CODE_BASE = 0x0000
_MOD_TABLE = 0x4000
_OUT_BASE = 0x5000

#: Canonical engine names.  ``"interpreter"`` is accepted as a CLI-facing
#: alias for ``"reference"`` (the scalar seed interpreter).
ENGINES = ("threaded", "reference", "compiled")


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve an engine selection to its canonical name.

    ``None`` falls back to the ``REVEAL_ENGINE`` environment variable,
    then to ``"compiled"`` (:func:`effective_engine` degrades it to
    ``"threaded"`` without a C toolchain).  The CLI alias
    ``"interpreter"`` maps to ``"reference"``.  Anything else —
    including a bad ``REVEAL_ENGINE`` value — raises
    :class:`~repro.errors.ParameterError` listing the valid options at
    parse time, instead of surfacing later as a ``KeyError`` deep in
    dispatch.
    """
    source = "engine"
    if engine is None:
        engine = os.environ.get("REVEAL_ENGINE", "").strip() or "compiled"
        source = "REVEAL_ENGINE"
    if engine == "interpreter":
        engine = "reference"
    if engine not in ENGINES:
        raise ParameterError(
            f"unknown {source} {engine!r} (choose from interpreter, "
            f"{', '.join(ENGINES)})"
        )
    return engine


def effective_engine(engine: Optional[str] = None) -> str:
    """Resolve an engine and apply capability degradation.

    ``"compiled"`` runs its core in the native backend's module; where
    ``probe_backend("native")`` fails (no C toolchain) it degrades to
    ``"threaded"`` (bit-identical, slower), with the reason kept by
    :func:`repro.backends.probe_error`.  It reads the probe, not the
    :func:`~repro.backends.use_backend` selection, so pinning the
    reference backend does not switch engines.  Every other engine
    resolves unchanged.
    """
    engine = resolve_engine(engine)
    if engine == "compiled":
        from repro.backends import probe_backend

        if probe_backend("native") is None:
            return "threaded"
    return engine


@dataclass
class DeviceRun:
    """Result of one kernel execution."""

    values: List[int]  # the signed sampled coefficients (ground truth)
    residues: List[List[int]]  # output buffer content per limb
    events: EventLog  # columnar per-instruction log (sequence-compatible)
    cycle_count: int
    instruction_count: int
    #: RVFI-style retire records, only when the run asked for them
    #: (``record_retires=True``) — a conformance-testing aid, never part
    #: of the capture path.
    retires: Optional[RetireLog] = None


class GaussianSamplerDevice:
    """Executes the sampling kernel for a given modulus chain.

    Parameters
    ----------
    moduli:
        Values of the RNS coefficient moduli (``coeff_modulus`` in
        Fig. 2).
    max_deviation:
        The clipping bound (41 for the paper's configuration).
    """

    def __init__(
        self,
        moduli: Sequence[int],
        max_deviation: int = 41,
        program_source: Optional[str] = None,
    ) -> None:
        if not moduli:
            raise SimulationError("need at least one modulus")
        self.moduli = [int(m) for m in moduli]
        self.max_deviation = int(max_deviation)
        source = program_source if program_source is not None else gaussian_sampler_source()
        self.program = assemble(source, base_address=_CODE_BASE)
        if 4 * len(self.program.words) > _MOD_TABLE:
            raise SimulationError("kernel does not fit below the modulus table")
        # Warm translation state shared across runs: the program is
        # fixed for the device's lifetime, so translated blocks carry over
        # between the fresh per-run Cpu instances (see
        # :meth:`Cpu.adopt_translations`).
        self._block_cache: dict = {}
        self._code_words: set = set()
        # Most recent retire-recording run's log(s), kept for
        # interactive inspection (None unless a run asked for retires).
        self.last_retires: Optional[List[RetireLog]] = None
        # Largest events per coefficient of any run so far: later runs
        # reserve their event log once from it instead of doubling it
        # (each doubling holds the old and the new buffer at once).
        self._events_per_coeff = 0

    # -- pickling (translated blocks hold unpicklable generated code; the
    # caches, the event-log sizing and any retained retire logs are
    # per-process warm state) --
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_block_cache"] = {}
        state["_code_words"] = set()
        state["last_retires"] = None
        state["_events_per_coeff"] = 0
        return state

    # ------------------------------------------------------------------
    def run(
        self,
        seed: int,
        count: int,
        record_events: bool = True,
        max_instructions: Optional[int] = None,
        engine: Optional[str] = None,
        record_retires: bool = False,
    ) -> DeviceRun:
        """Sample ``count`` coefficients with PRNG seed ``seed``.

        ``record_events=False`` skips event collection for functional-only
        runs (about 2x faster).  ``engine`` selects the execution engine:
        ``"compiled"`` (the default: one fixed RV32IM interpreter core in
        C, built once per machine via cffi, the fastest engine where a
        toolchain exists, and a bit-identical fall-back to threaded where
        none does), ``"threaded"`` (the block-translating Python engine,
        reusing this device's warm translation cache across runs), or
        ``"reference"`` (the scalar interpreter, bit-identical but much
        slower — useful for differential testing).  ``None`` defers to
        the ``REVEAL_ENGINE`` environment variable, then to the default:
        compiled, threaded without a C toolchain.
        """
        if count < 1:
            raise SimulationError("count must be >= 1")
        engine = effective_engine(engine)
        k = len(self.moduli)
        memory = Memory(size_bytes=_next_pow2(_OUT_BASE + 4 * k * count + 4096))
        cpu = Cpu(memory, record_events=record_events, record_retires=record_retires)
        if record_events and self._events_per_coeff:
            # one exact-size buffer (EventLog.reserve would round it up
            # to a power-of-two multiple of its starting capacity)
            expected = self._events_per_coeff * count
            cpu.events = EventLog(expected + expected // 16)
        cpu.load_program(self.program.words, _CODE_BASE)
        if engine == "threaded":
            cpu.adopt_translations(self._block_cache, self._code_words)
        for j, m in enumerate(self.moduli):
            memory.store_word(_MOD_TABLE + 4 * j, m)
        cpu.write_register(10, _OUT_BASE)  # a0
        cpu.write_register(11, count)  # a1
        cpu.write_register(12, k)  # a2
        cpu.write_register(13, _MOD_TABLE)  # a3
        cpu.write_register(14, seed & 0xFFFFFFFF)  # a4
        cpu.write_register(15, self.max_deviation)  # a5
        budget = max_instructions if max_instructions else 4000 * count + 10_000
        if engine == "threaded":
            cpu.run(max_instructions=budget)
        elif engine == "compiled":
            from repro.riscv.compiled import run_compiled

            run_compiled(cpu, max_instructions=budget)
        else:
            cpu.run_reference(max_instructions=budget)

        residues = [
            memory.read_words(_OUT_BASE + 4 * j * count, count) for j in range(k)
        ]
        if record_events:
            self._events_per_coeff = max(
                self._events_per_coeff, -(-len(cpu.events) // count)
            )
        q0 = self.moduli[0]
        values = [r - q0 if r > q0 // 2 else r for r in residues[0]]
        retires = cpu.retires if record_retires else None
        if record_retires:
            self.last_retires = [retires]
        return DeviceRun(
            values=values,
            residues=residues,
            events=cpu.events,
            cycle_count=cpu.cycle_count,
            instruction_count=cpu.instruction_count,
            retires=retires,
        )


def _next_pow2(value: int) -> int:
    return 1 << (value - 1).bit_length()
