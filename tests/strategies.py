"""Shared Hypothesis strategies for the differential and property suites.

The strategies mirror the seeded samplers in ``repro.verify.oracles``
but are Hypothesis-native, so counterexamples *shrink*: a diverging
40-instruction program collapses toward the one opcode that matters, an
adversarial trace toward the shortest array that still trips the bug.
Structured cases that are too heavy to shrink field-by-field (profiled
attacks, full profiling runs) are instead driven through integer *case
seeds* — minimal shrinking, but every failure replays exactly via
``python -m repro.verify replay <oracle> --case-seed <seed>``.
"""

import numpy as np
from hypothesis import strategies as st

from repro.verify.oracles import SCRATCH_BASE

# ----------------------------------------------------------------------
# Scalars
# ----------------------------------------------------------------------
#: RV32IM corner operands: the div/rem/shift special cases.
CORNER_WORDS = (0, 1, 2, 0x7FFFFFFF, 0x80000000, 0xAAAAAAAA, 0xFFFFFFFF)

word32 = st.one_of(
    st.sampled_from(CORNER_WORDS), st.integers(0, 0xFFFFFFFF)
)

#: Case seeds for oracle-sampler-driven tests (replayable via the CLI).
case_seeds = st.integers(0, 2**31 - 1)


def adversarial_programs():
    """Seed-driven hostile cases from the conformance generators.

    Self-loops, guaranteed faults, self-modifying code, budget
    exhaustion and div/rem corners — the payload carries its case seed
    so failures replay through the ``cpu.retire_log`` fuzz driver even
    though shrinking is seed-granular.
    """
    from repro.verify.conformance import random_adversarial_program

    return case_seeds.map(
        lambda seed: {
            **random_adversarial_program(np.random.default_rng(seed)),
            "case_seed": seed,
        }
    )


# ----------------------------------------------------------------------
# RV32IM programs
# ----------------------------------------------------------------------
_ALU_RR = [
    "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
    "mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu",
]
_ALU_IMM = ["addi", "slti", "sltiu", "xori", "ori", "andi"]
_SHIFT_IMM = ["slli", "srli", "srai"]
_BRANCHES = ["beq", "bne", "blt", "bge", "bltu", "bgeu"]
_MEMORY = ["lw", "lh", "lhu", "lb", "lbu", "sw", "sh", "sb"]

_reg = st.integers(0, 15)
_rd = st.integers(1, 15)


@st.composite
def _instruction(draw):
    """One rendered instruction (or a short branch-plus-body block)."""
    kind = draw(st.integers(0, 6))
    if kind <= 1:
        return [
            f"{draw(st.sampled_from(_ALU_RR))} "
            f"x{draw(_rd)}, x{draw(_reg)}, x{draw(_reg)}"
        ]
    if kind == 2:
        return [
            f"{draw(st.sampled_from(_ALU_IMM))} "
            f"x{draw(_rd)}, x{draw(_reg)}, {draw(st.integers(-2048, 2047))}"
        ]
    if kind == 3:
        return [
            f"{draw(st.sampled_from(_SHIFT_IMM))} "
            f"x{draw(_rd)}, x{draw(_reg)}, {draw(st.integers(0, 31))}"
        ]
    if kind == 4:
        return [f"lui x{draw(_rd)}, {draw(st.integers(0, (1 << 20) - 1))}"]
    if kind == 5:
        mnemonic = draw(st.sampled_from(_MEMORY))
        offset = draw(st.integers(0, 63)) * 4
        # x5 holds the scratch pointer; a rare random base exercises
        # fault parity (both engines must report the same error).
        base = "x5" if draw(st.integers(0, 19)) else f"x{draw(_rd)}"
        return [f"{mnemonic} x{draw(_rd)}, {offset}({base})"]
    body = [
        f"{draw(st.sampled_from(_ALU_RR))} "
        f"x{draw(_rd)}, x{draw(_reg)}, x{draw(_reg)}"
        for _ in range(draw(st.integers(1, 3)))
    ]
    condition = draw(st.sampled_from(_BRANCHES))
    return [f"{condition} x{draw(_reg)}, x{draw(_reg)}, @skip", *body, "@skip:"]


@st.composite
def rv32im_programs(draw):
    """A case payload for the ``cpu.run`` oracle.

    Mostly-safe straight-line RV32IM with scratch-region memory ops,
    forward branches, corner-valued registers, and an occasional tiny
    instruction budget so exhaustion behaviour is covered too.
    """
    blocks = draw(st.lists(_instruction(), min_size=1, max_size=12))
    lines = [f"li x5, {SCRATCH_BASE}"]
    for index, block in enumerate(blocks):
        lines.extend(line.replace("@skip", f"skip_{index}") for line in block)
    lines.append("ebreak")
    registers = draw(
        st.dictionaries(st.integers(1, 15), word32, max_size=15)
    )
    budget = draw(
        st.one_of(st.just(10_000), st.integers(1, 30))
    )
    return {
        "source": "\n".join(lines),
        "registers": registers,
        "max_instructions": budget,
    }


# ----------------------------------------------------------------------
# Leakage / traces
# ----------------------------------------------------------------------
@st.composite
def event_lists(draw, max_events=40):
    """Synthetic :class:`ExecutionEvent` lists with adversarial fields."""
    from repro.riscv import cycles as cy
    from repro.riscv.cpu import ExecutionEvent

    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(cy.CYCLES) - 1),
                *([word32] * 7),
            ),
            max_size=max_events,
        )
    )
    return [ExecutionEvent(*row) for row in rows]


@st.composite
def leakage_cases(draw):
    from repro.power.leakage import LeakageModel

    if draw(st.booleans()):
        model = LeakageModel()
    else:
        weight = st.floats(0.0, 2.0, allow_nan=False)
        model = LeakageModel(
            weight_data=draw(weight),
            weight_transition=draw(weight),
            weight_fetch=draw(st.floats(0.0, 1.0, allow_nan=False)),
            weight_engine=draw(weight),
            engine_offset=draw(st.floats(0.0, 80.0, allow_nan=False)),
            baseline=draw(st.floats(0.0, 10.0, allow_nan=False)),
        )
    return {"model": model, "events": draw(event_lists())}


#: Finite float64 samples spanning many magnitudes — the adversarial
#: regime for cumulative-sum reassociation.
trace_samples = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, width=64
)


@st.composite
def moving_average_cases(draw):
    x = np.array(
        draw(st.lists(trace_samples, min_size=1, max_size=300)),
        dtype=np.float64,
    )
    window = draw(st.integers(1, 2 * len(x)))
    return {"x": x, "window": window}


# ----------------------------------------------------------------------
# Ring / RNS
# ----------------------------------------------------------------------
@st.composite
def ntt_cases(draw):
    """A (modulus, n, a, b) case for both ring oracles."""
    from repro.verify.oracles import _ntt_pairs

    modulus, n = draw(st.sampled_from(_ntt_pairs()))
    coeff = st.integers(0, modulus.value - 1)
    return {
        "modulus": modulus,
        "n": n,
        "a": np.array(
            draw(st.lists(coeff, min_size=n, max_size=n)), dtype=np.int64
        ),
        "b": np.array(
            draw(st.lists(coeff, min_size=n, max_size=n)), dtype=np.int64
        ),
    }


@st.composite
def rns_bases(draw):
    """Coprime NTT-prime bases for CRT compose/decompose sweeps."""
    from repro.ring.primes import generate_ntt_primes

    degree = draw(st.sampled_from([8, 16, 32]))
    bits = draw(st.sampled_from([17, 20, 23, 26]))
    count = draw(st.integers(1, 3))
    return generate_ntt_primes(bits, count, degree)
