"""Compiled C engine: cffi-generated block kernels for the RV32IM core.

The threaded engine (:mod:`repro.riscv.threaded`) already pays its
fetch/decode/dispatch cost once per *block*, but each retired
instruction still executes a line of interpreted Python.  This module
keeps the exact same translation units — superblocks across predicted
branches, loop unrolling, constant folding, the walk and truncation
rules of :func:`repro.riscv.threaded.translate` — and lowers each
:class:`~repro.riscv.threaded.TranslatedBlock` to a C function instead
of a Python one.  The block functions plus a dispatch driver are
compiled into one extension module per program through the same cffi
API-mode toolchain as :mod:`repro.backends.native` (``-O1
-ffp-contract=off``, disk-cached by the SHA of flags and source in
``$REVEAL_NATIVE_CACHE``), so a given program compiles once per
machine and every later run is a plain extension load.  A
:class:`~repro.riscv.threaded.TranslatedBlock` compiles its Python
functions only on their first call, so the blocks the C path runs
never pay bytecode compilation and set-up costs no more than the
threaded engine's.

Execution stays in C — registers, memory, cycle accounting and bulk
:class:`~repro.riscv.cpu.EventLog` row emission — and returns to Python
only at the boundaries the threaded engine already defines:

- **translation miss** (a pc with no compiled block): Python translates
  the block, runs it through the threaded engine's generated function,
  and re-enters C; the new block is queued for the *next* run's compile
  so a mid-run miss never pays gcc.
- **fault** (memory bounds / misalignment): the C side commits the
  retired prefix exactly like the threaded engine's unwind commit and
  reports the fault parameters; Python raises the byte-identical
  :class:`~repro.errors.SimulationError` string.
- **budget exhaustion**: block-granular in C, then
  :meth:`~repro.riscv.cpu.Cpu._run_budget_tail` single-steps the last
  few instructions so the raise lands on exactly the same instruction
  as every other engine.
- **SMC invalidation**: stores check a word-indexed code bitmap that
  covers every known block (compiled *and* pending); a hit retires the
  store, ends the block at ``store_pc + 4`` and drops the compiled
  module — the rest of the run interprets, and the next run recompiles.

Exact-semantics contract: registers, pc, ``cycle_count``,
``instruction_count``, the event log, retire rows and every
``SimulationError`` string are bit-for-bit identical to the reference
interpreter; the ``cpu.retire_log`` conformance fuzz sweeps this engine
against the other three (see :mod:`repro.verify.conformance`).

When no C toolchain (or cffi) is present the engine degrades
gracefully: :func:`compiled_available` records the reason and the
device layer falls back to the threaded engine
(:func:`repro.riscv.device.effective_engine`), matching the backend
registry's capability-probe contract.  ``REVEAL_DISABLE_COMPILED=1``
forces that path for testing.
"""

from __future__ import annotations

import hashlib
import os
import sysconfig
import time
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.riscv import cycles as cy
from repro.riscv.isa import branch_offset, decode, jal_offset
from repro.riscv.threaded import translate

_MASK32 = 0xFFFFFFFF

#: Block-discovery cap per compile: bounds one-time codegen/gcc cost.
MAX_COMPILED_BLOCKS = 512

#: gcc flags for the ``_reveal_cpu_*`` modules, part of the module
#: digest.  The engine is integer-only, so the optimisation level cannot
#: change a result; ``-O1`` builds the ~2 MB Gaussian-kernel module in
#: well under half the ``-O3`` time and runs it as fast (DESIGN.md 5l).
_CFLAGS = ("-O1", "-ffp-contract=off")

# ----------------------------------------------------------------------
# C <-> Python protocol
#
# One int64 state array carries everything across the boundary:
#   st[0] pc            st[1] cycle_count      st[2] instruction_count
#   st[3] executed      st[4] budget           st[5] event cursor (rows)
#   st[6] event capacity(rows)                 st[7] halted
#   st[8] fault kind (1=bounds, 2=misaligned)  st[9] fault address
#   st[10] fault width  st[11] memory size     st[12] C block dispatches
# ----------------------------------------------------------------------
STATUS_HALT = 1
STATUS_MISS = 2
STATUS_BUDGET = 3
STATUS_EVENTS = 4
STATUS_FAULT = 5
STATUS_SMC = 6

_ST_SLOTS = 16

_CDEF = (
    "int reveal_run(int64_t *st, uint32_t *regs, uint8_t *mem,"
    " int64_t *ev, const uint8_t *cw, int64_t cw_len);"
)

_HEADER = """\
#include <stdint.h>
#include <string.h>
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the compiled RV32IM engine requires a little-endian host"
#endif
"""

# ----------------------------------------------------------------------
# Translation-cache statistics (mirrors ring.ntt.ntt_cache_stats)
# ----------------------------------------------------------------------
_STATS: Dict[str, Any] = {
    "hits": 0,  # C block dispatches + Python-cache block hits
    "misses": 0,  # blocks translated on a dispatch miss
    "invalidations": 0,  # compiled modules dropped by SMC
    "compiles": 0,  # module (re)builds, including cache loads
    "compile_time_s": 0.0,  # codegen + gcc (or cache-load) seconds
}

#: In-memory module cache keyed by source digest: re-running a known
#: program (every fuzz replay, every warm device) never re-invokes gcc
#: and never re-reads the disk cache.
_MODULES: Dict[str, Any] = {}


def translation_cache_stats() -> Dict[str, Any]:
    """Hit/miss/invalidation counters plus loaded-module count."""
    stats = dict(_STATS)
    stats["size"] = len(_MODULES)
    stats["max_size"] = MAX_COMPILED_BLOCKS
    return stats


def clear_compiled_stats() -> None:
    """Zero the counters (tests/benchmarks); loaded modules are kept."""
    for key in _STATS:
        _STATS[key] = 0.0 if key == "compile_time_s" else 0


# ----------------------------------------------------------------------
# C code generation, mirroring threaded._emit_instruction case by case
# ----------------------------------------------------------------------
_C_ALU_RR = {
    "add": "a + b",
    "sub": "a - b",
    "and": "a & b",
    "or": "a | b",
    "xor": "a ^ b",
    "sll": "a << (b & 31u)",
    "srl": "a >> (b & 31u)",
    "sra": "(uint32_t)((int32_t)a >> (b & 31u))",
    "slt": "((int32_t)a < (int32_t)b) ? 1u : 0u",
    "sltu": "(a < b) ? 1u : 0u",
    "mul": "a * b",
    "mulh": "(uint32_t)(((int64_t)(int32_t)a * (int64_t)(int32_t)b) >> 32)",
    "mulhsu": "(uint32_t)(((int64_t)(int32_t)a * (int64_t)b) >> 32)",
    "mulhu": "(uint32_t)(((uint64_t)a * (uint64_t)b) >> 32)",
}

_C_BRANCH = {
    "beq": "a == b",
    "bne": "a != b",
    "blt": "(int32_t)a < (int32_t)b",
    "bge": "(int32_t)a >= (int32_t)b",
    "bltu": "a < b",
    "bgeu": "a >= b",
}

_C_BRANCH_INV = {
    "beq": "a != b",
    "bne": "a == b",
    "blt": "(int32_t)a >= (int32_t)b",
    "bge": "(int32_t)a < (int32_t)b",
    "bltu": "a >= b",
    "bgeu": "a < b",
}

_LOAD_WIDTHS = {"lw": 4, "lh": 2, "lhu": 2, "lb": 1, "lbu": 1}
_STORE_WIDTHS = {"sw": 4, "sh": 2, "sb": 1}
_BRANCH_MNEMONICS = frozenset(_C_BRANCH)


def _u(value: int) -> str:
    return f"{value & _MASK32:#x}u"


class _CBlock:
    """Accumulates one block function's C source."""

    def __init__(self, start_pc: int) -> None:
        self.name = f"bb_{start_pc:08x}"
        self.lines: List[str] = []
        self.cycles: List[int] = []

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def prefix(self, count: int) -> int:
        return sum(self.cycles[:count])

    def event(
        self,
        indent: str,
        op: str,
        word: int,
        rs1: str,
        rs2: str,
        result: str,
        old: str,
        address: str,
        pc: int,
    ) -> None:
        """One EventLog row, all 8 fields written explicitly."""
        self.emit(f"{indent}if (ev) {{")
        self.emit(f"{indent}    int64_t *e = ev + el * 8;")
        self.emit(
            f"{indent}    e[0] = {op}; e[1] = {word}; e[2] = {rs1};"
            f" e[3] = {rs2};"
        )
        self.emit(
            f"{indent}    e[4] = {result}; e[5] = {old};"
            f" e[6] = {address}; e[7] = {pc};"
        )
        self.emit(f"{indent}    el++;")
        self.emit(f"{indent}}}")

    def commit(
        self,
        indent: str,
        count: int,
        pc_expr: str,
        cycles_expr: str,
        status: int,
        halt: bool = False,
    ) -> None:
        """Commit ``count`` retirements and leave the block."""
        self.emit(f"{indent}st[0] = {pc_expr};")
        if cycles_expr not in ("0", ""):
            self.emit(f"{indent}st[1] += {cycles_expr};")
        if count:
            self.emit(f"{indent}st[2] += {count}; st[3] += {count};")
        if halt:
            self.emit(f"{indent}st[7] = 1;")
        self.emit(f"{indent}if (ev) st[5] = el;")
        self.emit(f"{indent}return {status};")

    def fault(
        self, indent: str, i: int, pc: int, kind: int, width: int
    ) -> None:
        """Fault unwind: instruction ``i`` did not retire (no event)."""
        self.emit(f"{indent}st[0] = {_u(pc)};")
        prefix = self.prefix(i)
        if prefix:
            self.emit(f"{indent}st[1] += {prefix};")
        if i:
            self.emit(f"{indent}st[2] += {i}; st[3] += {i};")
        self.emit(f"{indent}if (ev) st[5] = el;")
        self.emit(
            f"{indent}st[8] = {kind}; st[9] = (int64_t)d;"
            f" st[10] = {width};"
        )
        self.emit(f"{indent}return {STATUS_FAULT};")


def _emit_mem_checks(src: _CBlock, i: int, pc: int, width: int) -> None:
    src.emit(f"        if ((uint64_t)d + {width}u > (uint64_t)msz) {{")
    src.fault("            ", i, pc, 1, width)
    src.emit("        }")
    if width > 1:
        src.emit(f"        if (d & {width - 1}u) {{")
        src.fault("            ", i, pc, 2, width)
        src.emit("        }")


def _emit_c_instruction(
    src: _CBlock,
    i: int,
    ins,
    pc: int,
    continuation: Optional[int],
    length: int,
    fallthrough: int,
) -> None:
    """Append one instruction's C to the block (mirrors threaded's
    ``_emit_instruction`` handler kinds, including the commit shapes)."""
    m = ins.mnemonic
    rd, rs1, rs2, imm, word = ins.rd, ins.rs1, ins.rs2, ins.imm, ins.word
    last = i == length - 1
    src.emit(f"    {{ /* {i}: {pc:#06x} {m} (word {word:#010x}) */")

    if m in _C_ALU_RR:
        op_class = cy.OP_MUL if m.startswith("mul") else cy.OP_ALU
        src.cycles.append(cy.CYCLES[op_class])
        src.emit(f"        const uint32_t a = R[{rs1}], b = R[{rs2}];")
        src.emit(f"        const uint32_t res = {_C_ALU_RR[m]};")
        src.event("        ", str(op_class), word, "a", "b", "res",
                  f"R[{rd}]", "0", pc)
        if rd:
            src.emit(f"        R[{rd}] = res;")
    elif m in ("div", "divu", "rem", "remu"):
        src.cycles.append(cy.CYCLES[cy.OP_DIV])
        src.emit(f"        const uint32_t a = R[{rs1}], b = R[{rs2}];")
        src.emit("        uint32_t res;")
        if m in ("div", "rem"):
            src.emit("        const int32_t sa = (int32_t)a, sb = (int32_t)b;")
            if m == "div":
                src.emit("        if (sb == 0) res = 0xFFFFFFFFu;")
                src.emit(
                    "        else if (a == 0x80000000u && sb == -1)"
                    " res = 0x80000000u;"
                )
                src.emit("        else res = (uint32_t)(sa / sb);")
            else:
                src.emit("        if (sb == 0) res = a;")
                src.emit(
                    "        else if (a == 0x80000000u && sb == -1) res = 0u;"
                )
                src.emit("        else res = (uint32_t)(sa % sb);")
        elif m == "divu":
            src.emit("        res = (b == 0u) ? 0xFFFFFFFFu : (a / b);")
        else:  # remu
            src.emit("        res = (b == 0u) ? a : (a % b);")
        src.event("        ", str(cy.OP_DIV), word, "a", "b", "res",
                  f"R[{rd}]", "0", pc)
        if rd:
            src.emit(f"        R[{rd}] = res;")
    elif m in (
        "addi", "andi", "ori", "xori", "slli", "srli", "srai",
        "slti", "sltiu",
    ):
        src.cycles.append(cy.CYCLES[cy.OP_ALU])
        src.emit(f"        const uint32_t a = R[{rs1}];")
        if m == "addi":
            expr = f"a + {_u(imm)}"
        elif m == "andi":
            expr = f"a & {_u(imm)}"
        elif m == "ori":
            expr = f"a | {_u(imm)}"
        elif m == "xori":
            expr = f"a ^ {_u(imm)}"
        elif m == "slli":
            expr = f"a << {imm}"
        elif m == "srli":
            expr = f"a >> {imm}"
        elif m == "srai":
            expr = f"(uint32_t)((int32_t)a >> {imm})"
        elif m == "slti":
            expr = f"((int32_t)a < {imm}) ? 1u : 0u"
        else:  # sltiu
            expr = f"(a < {_u(imm)}) ? 1u : 0u"
        src.emit(f"        const uint32_t res = {expr};")
        src.event("        ", str(cy.OP_ALU), word, "a", "R[0]", "res",
                  f"R[{rd}]", "0", pc)
        if rd:
            src.emit(f"        R[{rd}] = res;")
    elif m in _LOAD_WIDTHS:
        width = _LOAD_WIDTHS[m]
        src.cycles.append(cy.CYCLES[cy.OP_LOAD])
        src.emit(f"        const uint32_t a = R[{rs1}];")
        src.emit(f"        const uint32_t d = a + {_u(imm)};")
        _emit_mem_checks(src, i, pc, width)
        if m == "lw":
            src.emit("        uint32_t v; memcpy(&v, mem + d, 4);")
            src.emit("        const uint32_t res = v;")
        elif m == "lhu":
            src.emit("        uint16_t v; memcpy(&v, mem + d, 2);")
            src.emit("        const uint32_t res = v;")
        elif m == "lh":
            src.emit("        int16_t v; memcpy(&v, mem + d, 2);")
            src.emit("        const uint32_t res = (uint32_t)(int32_t)v;")
        elif m == "lbu":
            src.emit("        const uint32_t res = mem[d];")
        else:  # lb
            src.emit(
                "        const uint32_t res ="
                " (uint32_t)(int32_t)(int8_t)mem[d];"
            )
        src.event("        ", str(cy.OP_LOAD), word, "a", "R[0]", "res",
                  f"R[{rd}]", "(int64_t)d", pc)
        if rd:
            src.emit(f"        R[{rd}] = res;")
    elif m in _STORE_WIDTHS:
        width = _STORE_WIDTHS[m]
        src.cycles.append(cy.CYCLES[cy.OP_STORE])
        src.emit(f"        const uint32_t a = R[{rs1}], b = R[{rs2}];")
        src.emit(f"        const uint32_t d = a + {_u(imm)};")
        _emit_mem_checks(src, i, pc, width)
        if m == "sw":
            src.emit("        memcpy(mem + d, &b, 4);")
            src.emit("        const uint32_t res = b;")
        elif m == "sh":
            src.emit("        const uint16_t h = (uint16_t)b;")
            src.emit("        memcpy(mem + d, &h, 2);")
            src.emit("        const uint32_t res = b & 0xFFFFu;")
        else:  # sb
            src.emit("        mem[d] = (uint8_t)b;")
            src.emit("        const uint32_t res = b & 0xFFu;")
        src.event("        ", str(cy.OP_STORE), word, "a", "b", "res",
                  "R[0]", "(int64_t)d", pc)
        # Self-modifying-code guard: the bitmap covers every pc of every
        # known block (compiled or pending), a superset of the threaded
        # engine's live _code_words — extra early block-ends are
        # architecturally invisible; missed invalidations are impossible.
        src.emit("        {")
        src.emit("            const uint32_t wa = d >> 2;")
        src.emit("            if ((int64_t)wa < cwn && cw[wa]) {")
        src.commit(
            "                ", i + 1, _u(pc + 4), str(src.prefix(i + 1)),
            STATUS_SMC,
        )
        src.emit("            }")
        src.emit("        }")
    elif m in _BRANCH_MNEMONICS:
        taken = (pc + imm) & _MASK32
        base = src.prefix(i)
        src.emit(f"        const uint32_t a = R[{rs1}], b = R[{rs2}];")
        if continuation is None:
            # Block terminator: both directions leave the block.
            src.cycles.append(0)  # accounted in the arms below
            src.emit(f"        if ({_C_BRANCH[m]}) {{")
            src.event("            ", str(cy.OP_BRANCH_TAKEN), word, "a",
                      "b", _u(taken), "R[0]", "0", pc)
            src.commit(
                "            ", length, _u(taken),
                str(base + cy.CYCLES[cy.OP_BRANCH_TAKEN]), 0,
            )
            src.emit("        } else {")
            src.event("            ", str(cy.OP_BRANCH_NOT_TAKEN), word,
                      "a", "b", _u(pc + 4), "R[0]", "0", pc)
            src.commit(
                "            ", length, _u(pc + 4),
                str(base + cy.CYCLES[cy.OP_BRANCH_NOT_TAKEN]), 0,
            )
            src.emit("        }")
            src.emit("    }")
            return
        # Superblock interior: side-exit the unpredicted direction.
        if continuation == taken:
            exit_cond, exit_class, exit_pc = (
                _C_BRANCH_INV[m], cy.OP_BRANCH_NOT_TAKEN, pc + 4,
            )
            cont_class = cy.OP_BRANCH_TAKEN
        else:
            exit_cond, exit_class, exit_pc = (
                _C_BRANCH[m], cy.OP_BRANCH_TAKEN, taken,
            )
            cont_class = cy.OP_BRANCH_NOT_TAKEN
        src.emit(f"        if ({exit_cond}) {{")
        src.event("            ", str(exit_class), word, "a", "b",
                  _u(exit_pc), "R[0]", "0", pc)
        src.commit(
            "            ", i + 1, _u(exit_pc),
            str(base + cy.CYCLES[exit_class]), 0,
        )
        src.emit("        }")
        src.event("        ", str(cont_class), word, "a", "b",
                  _u(continuation), "R[0]", "0", pc)
        src.cycles.append(cy.CYCLES[cont_class])
    elif m == "jal":
        src.cycles.append(cy.CYCLES[cy.OP_JUMP])
        src.emit(f"        const uint32_t res = {_u(pc + 4)};")
        src.event("        ", str(cy.OP_JUMP), word, "R[0]", "R[0]",
                  "res", f"R[{rd}]", "0", pc)
        if rd:
            src.emit(f"        R[{rd}] = res;")
    elif m == "jalr":
        src.cycles.append(cy.CYCLES[cy.OP_JUMP])
        src.emit(f"        const uint32_t a = R[{rs1}];")
        src.emit(f"        const uint32_t res = {_u(pc + 4)};")
        src.event("        ", str(cy.OP_JUMP), word, "a", "R[0]", "res",
                  f"R[{rd}]", "0", pc)
        if rd:
            src.emit(f"        R[{rd}] = res;")
        src.emit(
            f"        const uint32_t npc = (a + {_u(imm)}) & 0xFFFFFFFEu;"
        )
        src.commit("        ", length, "npc", str(src.prefix(length)), 0)
    elif m in ("lui", "auipc"):
        src.cycles.append(cy.CYCLES[cy.OP_ALU])
        if m == "lui":
            result = (imm << 12) & _MASK32
        else:
            result = (pc + (imm << 12)) & _MASK32
        src.emit(f"        const uint32_t res = {_u(result)};")
        # op class stays 0 (OP_ALU), like the reference engine.
        src.event("        ", "0", word, "R[0]", "R[0]", "res",
                  f"R[{rd}]", "0", pc)
        if rd:
            src.emit(f"        R[{rd}] = res;")
    elif m in ("ebreak", "ecall"):
        src.cycles.append(cy.CYCLES[cy.OP_SYSTEM])
        src.event("        ", str(cy.OP_SYSTEM), word, "R[0]", "R[0]",
                  "0", "R[0]", "0", pc)
        src.commit(
            "        ", length, _u(pc + 4), str(src.prefix(length)),
            STATUS_HALT, halt=True,
        )
    else:  # pragma: no cover - decode() covers every mnemonic above
        raise SimulationError(f"no compiled handler for {m}")
    src.emit("    }")

    if last and m not in _BRANCH_MNEMONICS and m not in (
        "jalr", "ebreak", "ecall",
    ):
        # Straight-line block end (cap, truncation, or a followed jal
        # whose target broke the walk): resume at the fallthrough pc.
        src.commit("    ", length, _u(fallthrough), str(src.prefix(length)), 0)


def _block_fallthrough(block) -> int:
    """Resume pc after a block whose last instruction falls through.

    ``TranslatedBlock`` stores only pcs/words, but the fallthrough is
    derivable: a trailing (followed) ``jal`` resumes at its target,
    anything else at ``pc + 4``.  Blocks ending in a branch / ``jalr`` /
    system op never consult this (their next pc is dynamic).
    """
    pc, word = block.pcs[-1], block.words[-1]
    if word & 0x7F == 0x6F:
        return (pc + jal_offset(word)) & _MASK32
    return pc + 4


def _block_source(start_pc: int, block) -> Optional[str]:
    """Lower one TranslatedBlock to a C function, or None if undecodable."""
    src = _CBlock(start_pc)
    try:
        instrs = [decode(word) for word in block.words]
    except SimulationError:  # pragma: no cover - translate() pre-truncates
        return None
    src.emit(
        f"static int {src.name}(int64_t *st, uint32_t *R, uint8_t *mem,"
        " int64_t *ev, const uint8_t *cw, int64_t cwn)"
    )
    src.emit("{")
    src.emit("    int64_t el = ev ? st[5] : 0;")
    src.emit("    const uint32_t msz = (uint32_t)st[11];")
    src.emit("    (void)mem; (void)msz; (void)cw; (void)cwn; (void)el;")
    length = len(instrs)
    fallthrough = _block_fallthrough(block)
    for i, (pc, ins) in enumerate(zip(block.pcs, instrs)):
        continuation = block.pcs[i + 1] if i < length - 1 else None
        _emit_c_instruction(
            src, i, ins, pc, continuation, length, fallthrough
        )
    src.emit("}")
    return "\n".join(src.lines)


def _generate_source(blocks: Dict[int, Any]) -> str:
    """The full module source: block functions, tables, and the driver."""
    parts = [_HEADER]
    ordered = sorted(blocks.items())
    names: List[str] = []
    lengths: List[int] = []
    table_ids: List[Tuple[int, int]] = []
    for start_pc, block in ordered:
        body = _block_source(start_pc, block)
        if body is None:  # pragma: no cover - translate() pre-truncates
            continue
        parts.append(body)
        table_ids.append((start_pc >> 2, len(names) + 1))
        names.append(f"bb_{start_pc:08x}")
        lengths.append(block.length)
    table_len = max(idx for idx, _ in table_ids) + 1
    parts.append(
        "typedef int (*reveal_bb)(int64_t *, uint32_t *, uint8_t *,"
        " int64_t *, const uint8_t *, int64_t);"
    )
    parts.append(
        f"static const reveal_bb reveal_fns[{len(names)}] = {{"
        + ", ".join(names) + "};"
    )
    parts.append(
        f"static const int32_t reveal_len[{len(lengths)}] = {{"
        + ", ".join(str(n) for n in lengths) + "};"
    )
    entries = ", ".join(f"[{idx}] = {bid}" for idx, bid in table_ids)
    parts.append(
        f"static const int32_t reveal_table[{table_len}] = {{{entries}}};"
    )
    parts.append(f"""\
int reveal_run(int64_t *st, uint32_t *regs, uint8_t *mem, int64_t *ev,
               const uint8_t *cw, int64_t cw_len)
{{
    for (;;) {{
        if (st[7]) return {STATUS_HALT};
        const uint32_t pc = (uint32_t)st[0];
        if (pc & 3u) return {STATUS_MISS};
        const uint32_t idx = pc >> 2;
        const int32_t id = (idx < {table_len}u) ? reveal_table[idx] : 0;
        if (!id) return {STATUS_MISS};
        const int32_t b = id - 1;
        if (st[3] + reveal_len[b] > st[4]) return {STATUS_BUDGET};
        if (ev && st[5] + reveal_len[b] > st[6]) return {STATUS_EVENTS};
        st[12] += 1;
        const int r = reveal_fns[b](st, regs, mem, ev, cw, cw_len);
        if (r) return r;
    }}
}}
""")
    return "\n\n".join(parts)


# ----------------------------------------------------------------------
# Module compilation (the repro.backends.native cffi toolchain)
# ----------------------------------------------------------------------
def _compile_module(source: str):
    """Build (or reuse) the extension for ``source``; returns the module.

    Same digest-keyed disk cache and atomic publish as
    ``repro.backends.native._compile_and_load``, under its own
    ``_reveal_cpu_<digest>`` namespace so the two backends never collide.
    """
    from repro.backends.native import _cache_dir, _load_extension

    digest = hashlib.sha256(
        (" ".join(_CFLAGS) + _CDEF + source).encode()
    ).hexdigest()[:12]
    module = _MODULES.get(digest)
    if module is not None:
        return module
    modname = f"_reveal_cpu_{digest}"
    cache_dir = _cache_dir()
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    target = os.path.join(cache_dir, modname + suffix)
    if os.path.exists(target):
        module = _load_extension(modname, target)
    else:
        import shutil
        import tempfile

        import cffi  # capability probe: missing cffi -> fall back

        os.makedirs(cache_dir, exist_ok=True)
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        ffi.set_source(
            modname, source,
            extra_compile_args=list(_CFLAGS),
        )
        build_dir = tempfile.mkdtemp(prefix="build-", dir=cache_dir)
        try:
            built = ffi.compile(tmpdir=build_dir)
            os.replace(built, target)
        finally:
            shutil.rmtree(build_dir, ignore_errors=True)
        module = _load_extension(modname, target)
    _MODULES[digest] = module
    return module


class CompiledProgram:
    """Per-program compiled state: blocks, module, and the code bitmap.

    A device keeps one of these per program (like the threaded engine's
    warm ``_block_cache``); the conformance harness builds a fresh one
    per case — the digest-keyed module cache makes that cheap.  The
    ``blocks`` dict and ``code_words`` set are shared *in place* with
    each run's :class:`~repro.riscv.cpu.Cpu` via
    :meth:`~repro.riscv.cpu.Cpu.adopt_translations`, so the generated
    Python blocks' own SMC guard clears them for us.
    """

    def __init__(self) -> None:
        self.blocks: Dict[int, Any] = {}
        self.code_words: Set[int] = set()
        self.module = None
        self.bitmap = np.zeros(1, dtype=np.uint8)
        self.pending = True  # blocks translated since the last compile
        self.compile_error: Optional[str] = None

    # -- lifecycle -----------------------------------------------------
    def attach(self, cpu) -> None:
        """Adopt the shared caches and (re)compile if blocks changed.

        Compilation happens only at run start — an SMC invalidation or a
        mid-run miss defers to the *next* run, so one run never pays gcc
        more than once.
        """
        cpu.adopt_translations(self.blocks, self.code_words)
        if self.module is None or self.pending:
            self._prepare(cpu)

    def _prepare(self, cpu) -> None:
        start = time.perf_counter()
        self._discover(cpu)
        self._rebuild_bitmap()
        self.pending = False
        if not self.blocks:
            self.module = None
            return
        try:
            self.module = _compile_module(_generate_source(self.blocks))
            self.compile_error = None
        except Exception as exc:  # no toolchain/cffi: interpret instead
            self.module = None
            self.compile_error = f"{type(exc).__name__}: {exc}"
        _STATS["compiles"] += 1
        _STATS["compile_time_s"] += time.perf_counter() - start

    def _discover(self, cpu) -> None:
        """Translate every statically reachable block from ``cpu.pc``.

        Follows both directions of conditional branches (terminator or
        superblock side exit) and straight-line fallthroughs; ``jalr``
        targets are dynamic and surface as run-time misses instead.
        Blocks whose first word does not decode are skipped — execution
        reaching them faults live through the Python dispatch path.
        """
        memory = cpu.memory
        frontier = [cpu.pc]
        visited: Set[int] = set()
        while frontier and len(self.blocks) < MAX_COMPILED_BLOCKS:
            pc = frontier.pop()
            if pc in visited or pc & 3:
                continue
            visited.add(pc)
            block = self.blocks.get(pc)
            if block is None:
                try:
                    block = translate(memory, pc)
                except SimulationError:
                    continue
                self.blocks[pc] = block
                self.code_words.update(block.pcs)
            for successor in self._successors(block):
                if successor not in visited:
                    frontier.append(successor)

    @staticmethod
    def _successors(block) -> List[int]:
        succ: List[int] = []
        for pc, word in zip(block.pcs, block.words):
            if word & 0x7F == 0x63:
                succ.append((pc + branch_offset(word)) & _MASK32)
                succ.append((pc + 4) & _MASK32)
        if block.words[-1] & 0x7F not in (0x63, 0x67, 0x73):
            succ.append(_block_fallthrough(block))
        return succ

    # -- code bitmap (the C-side SMC guard) ----------------------------
    def _rebuild_bitmap(self) -> None:
        top = 0
        for block in self.blocks.values():
            top = max(top, max(block.pcs))
        bitmap = np.zeros((top >> 2) + 1, dtype=np.uint8)
        for block in self.blocks.values():
            for pc in block.pcs:
                bitmap[pc >> 2] = 1
        self.bitmap = bitmap

    def note_new_block(self, block) -> None:
        """A run-time miss translated a new block: mark it, defer compile."""
        self.pending = True
        top = max(block.pcs)
        if (top >> 2) >= self.bitmap.shape[0]:
            grown = np.zeros((top >> 2) + 1, dtype=np.uint8)
            grown[: self.bitmap.shape[0]] = self.bitmap
            self.bitmap = grown
        for pc in block.pcs:
            self.bitmap[pc >> 2] = 1

    def drop_compiled(self) -> None:
        """SMC invalidation: drop the module and the (now stale) bitmap."""
        if self.module is not None:
            _STATS["invalidations"] += 1
        self.module = None
        self.pending = True
        self.bitmap = np.zeros(1, dtype=np.uint8)


# ----------------------------------------------------------------------
# The mixed C / Python run loop
# ----------------------------------------------------------------------
def _fault_message(kind: int, address: int, width: int, memory) -> str:
    """Reconstruct Memory._check's exact SimulationError string."""
    if kind == 1:
        return (
            f"memory access at {address:#x} (+{width})"
            f" outside [0, {memory.size:#x})"
        )
    return f"misaligned {width}-byte access at {address:#x}"


def _enter_native(cpu, program, executed: int, max_instructions: int):
    """Marshal state into C, run until a boundary, marshal back."""
    module = program.module
    ffi, lib = module.ffi, module.lib
    recording = cpu._record_events
    log = cpu.events
    if recording:
        log._flush()
    st = np.zeros(_ST_SLOTS, dtype=np.int64)
    st[0] = cpu.pc
    st[1] = cpu.cycle_count
    st[2] = cpu.instruction_count
    st[3] = executed
    st[4] = max_instructions
    st[11] = cpu.memory.size
    regs32 = np.array(cpu.registers, dtype=np.uint32)
    if recording:
        st[5] = log._length
        st[6] = log._data.shape[0]
        ev = ffi.cast("int64_t *", ffi.from_buffer(log._data))
    else:
        ev = ffi.NULL
    bitmap = program.bitmap
    status = lib.reveal_run(
        ffi.cast("int64_t *", ffi.from_buffer(st)),
        ffi.cast("uint32_t *", ffi.from_buffer(regs32)),
        ffi.cast("uint8_t *", ffi.from_buffer(cpu.memory._data)),
        ev,
        ffi.cast("uint8_t *", ffi.from_buffer(bitmap)),
        bitmap.shape[0],
    )
    cpu.registers[:] = [int(v) for v in regs32]
    cpu.pc = int(st[0])
    cpu.cycle_count = int(st[1])
    cpu.instruction_count = int(st[2])
    cpu.halted = bool(st[7])
    if recording:
        log._length = int(st[5])
    _STATS["hits"] += int(st[12])
    return int(status), int(st[3]), st


def _run_loop(cpu, max_instructions: int, program: CompiledProgram) -> int:
    program.attach(cpu)
    executed = 0
    memory = cpu.memory
    regs = cpu.registers
    cache = cpu._block_cache  # is program.blocks after attach()
    recording = cpu._record_events
    log = cpu.events
    while not cpu.halted:
        if program.module is not None:
            status, executed, st = _enter_native(
                cpu, program, executed, max_instructions
            )
            if status == STATUS_HALT:
                break
            if status == STATUS_EVENTS:
                log.reserve(max(64, log._data.shape[0]))
                continue
            if status == STATUS_BUDGET:
                return cpu._run_budget_tail(executed, max_instructions)
            if status == STATUS_FAULT:
                raise SimulationError(
                    _fault_message(int(st[8]), int(st[9]), int(st[10]), memory)
                )
            if status == STATUS_SMC:
                cpu._invalidate_blocks()
                program.drop_compiled()
                continue
            # STATUS_MISS: interpret one block below, then re-enter C.
        block = cache.get(cpu.pc)
        if block is None:
            if executed >= max_instructions:
                raise SimulationError(
                    f"instruction budget {max_instructions} exhausted"
                    f" at pc={cpu.pc:#x}"
                )
            block = translate(memory, cpu.pc)
            cache[cpu.pc] = block
            cpu._code_words.update(block.pcs)
            program.note_new_block(block)
            _STATS["misses"] += 1
        else:
            _STATS["hits"] += 1
        if executed + block.length > max_instructions:
            return cpu._run_budget_tail(executed, max_instructions)
        words_before = len(cpu._code_words)
        if recording:
            executed += block.run_recording(
                cpu, regs, memory,
                log._pending_dyn.extend, log._pending_meta.append,
            )
        else:
            executed += block.run_fast(cpu, regs, memory)
        if len(cpu._code_words) < words_before:
            # The block's own SMC guard invalidated the shared caches.
            program.drop_compiled()
    return executed


def run_compiled(
    cpu,
    max_instructions: int = 10_000_000,
    program: Optional[CompiledProgram] = None,
) -> int:
    """Execute on the compiled engine until ``ebreak`` or budget.

    Drop-in equivalent of :meth:`~repro.riscv.cpu.Cpu.run` — same
    return value, same exceptions, bit-identical machine state — with
    block bodies running as generated C wherever a module compiled
    (and as threaded-engine Python everywhere else, so a missing
    toolchain degrades to correct-but-slower, never to wrong).
    ``program`` carries the warm compiled state across runs; ``None``
    builds a fresh one (single-shot callers, the conformance harness).
    """
    if program is None:
        program = CompiledProgram()
    if not cpu._record_retires:
        return _run_loop(cpu, max_instructions, program)
    # Retire projection mirrors Cpu._run_retiring: park live emission,
    # then project the whole new-event segment in one pass at run end.
    cpu._record_retires = False
    try:
        executed = _run_loop(cpu, max_instructions, program)
    except SimulationError as error:
        cpu._record_retires = True
        cpu._finalize_retires([], str(error))
        raise
    cpu._record_retires = True
    cpu._finalize_retires([], None)
    return executed


# ----------------------------------------------------------------------
# Capability probe (the backend-registry degradation contract)
# ----------------------------------------------------------------------
_PROBE: Dict[str, Any] = {"checked": False, "available": False, "error": None}


def compiled_available() -> bool:
    """True when the compiled engine actually runs generated C here."""
    _probe()
    return bool(_PROBE["available"])


def probe_error() -> Optional[str]:
    """Why the compiled engine is unavailable (None when it is)."""
    _probe()
    return _PROBE["error"]


def reset_probe() -> None:
    """Forget the probe result (tests toggling the environment)."""
    _PROBE.update(checked=False, available=False, error=None)


def _probe() -> None:
    if _PROBE["checked"]:
        return
    _PROBE["checked"] = True
    if os.environ.get("REVEAL_DISABLE_COMPILED", "").strip():
        _PROBE["available"] = False
        _PROBE["error"] = "disabled by REVEAL_DISABLE_COMPILED"
        return
    try:
        # A real end-to-end run: one ebreak must execute *in C* (the
        # module must have compiled), not just interpret correctly.
        from repro.riscv.cpu import Cpu
        from repro.riscv.memory import Memory

        cpu = Cpu(Memory(64), record_events=True)
        cpu.load_program([0x00100073], 0)
        probe_program = CompiledProgram()
        executed = run_compiled(cpu, max_instructions=16, program=probe_program)
        if probe_program.module is None:
            raise SimulationError(
                probe_program.compile_error or "module did not compile"
            )
        if not (cpu.halted and executed == 1):
            raise SimulationError("probe program did not halt after 1 insn")
        _PROBE["available"] = True
        _PROBE["error"] = None
    except Exception as exc:
        _PROBE["available"] = False
        _PROBE["error"] = f"{type(exc).__name__}: {exc}"
