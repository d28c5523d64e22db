"""Threaded-code translation of RV32IM basic blocks.

The seed interpreter walked a ~40-arm mnemonic string chain and paid a
per-instruction columnar store for every retired instruction.  This
module replaces that dispatch with a small template JIT:

- :func:`translate` decodes a **basic block** — a straight-line run of
  instructions ending at a branch/``jalr``/system op (unconditional
  ``jal`` jumps are followed, so a block may span jumps) — and
  generates a specialized Python function for it, ``exec``'d on its
  first call (see :class:`TranslatedBlock`).  Each instruction's
  handler template (indexed by the dense :data:`~repro.riscv.isa
  .OPCODE_IDS` opcode id) is specialized with its immediates, register
  indices, op class and pc pre-bound as literals, then the handlers are
  concatenated into one straight-line function body, so the
  fetch/decode/dispatch overhead is paid once per block instead of once
  per retirement.
- Within a block the generator performs local value propagation: a
  register written earlier in the block is read back as the writing
  instruction's local (no ``regs[]`` round-trip), and constant results
  (immediates folded at translation time) become literals.
- Compiled blocks are cached process-wide keyed on ``(start_pc,
  words)`` — the decoded content, not the memory object — so repeated
  device runs of the same kernel never recompile.  The block-extent
  walk peeks only at major opcodes, so a cache hit never runs
  ``decode()`` at all.
- Event recording splits into a *static* plan (op class, instruction
  word, pc, constant operands — known at translation time) and a small
  deduplicated *dynamic* tail: each distinct runtime value is streamed
  once per block execution (one ``array('q').extend``) and a cached
  gather map fans it out to every event cell that carries it.  The
  :class:`~repro.riscv.cpu.EventLog` materialises both in bulk via
  :meth:`TranslatedBlock.flush_template`.

Exact-semantics contract: registers, pc, ``cycle_count``,
``instruction_count``, the event log, and every ``SimulationError``
(illegal instruction, memory fault, budget exhaustion) are bit-for-bit
identical to the scalar reference interpreter
(:meth:`~repro.riscv.cpu.Cpu.step_reference`); ``tests/riscv/
test_threaded_engine.py`` asserts this per mnemonic and on the full
sampling kernels.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.riscv import cycles as cy
from repro.riscv.isa import NUM_OPCODES, OPCODE_IDS, branch_offset, decode, jal_offset
from repro.riscv.retire import plan_columns

_MASK32 = 0xFFFFFFFF

#: Maximum instructions per translated block (straight-line runs longer
#: than this split into chained blocks).
MAX_BLOCK_INSTRUCTIONS = 64

#: EventLog row indices (must match ``ExecutionEvent._fields`` order).
_ROW_OP = 0
_ROW_WORD = 1
_ROW_RS1 = 2
_ROW_RS2 = 3
_ROW_RESULT = 4
_ROW_OLD = 5
_ROW_ADDR = 6
_ROW_PC = 7

_TERMINATORS = frozenset(
    ["beq", "bne", "blt", "bge", "bltu", "bgeu", "jalr", "ebreak", "ecall"]
)

#: Major opcodes that always end a block (jalr / system).  Conditional
#: branches (0x63) only end one when the predicted direction cannot be
#: followed (backward edge already in the block, degenerate target).
_TERMINATOR_OPCODES = frozenset([0x67, 0x73])

_BRANCH_CONDS = {
    "beq": ("{a} == {b}", False, False),
    "bne": ("{a} != {b}", False, False),
    "blt": ("{sa} < {sb}", True, True),
    "bge": ("{sa} >= {sb}", True, True),
    "bltu": ("{a} < {b}", False, False),
    "bgeu": ("{a} >= {b}", False, False),
}

#: Negated conditions, for superblock side exits guarding the
#: *unpredicted* branch direction.
_BRANCH_INV = {
    "beq": "{a} != {b}",
    "bne": "{a} == {b}",
    "blt": "{sa} >= {sb}",
    "bge": "{sa} < {sb}",
    "bltu": "{a} >= {b}",
    "bgeu": "{a} < {b}",
}

# ----------------------------------------------------------------------
# Handler templates, indexed by dense opcode id.
#
# Each entry is (kind, payload...); the payload of the ALU kinds is the
# result expression with {a}/{b} (unsigned operands) and {sa}/{sb}
# (sign-converted operands) placeholders.
# ----------------------------------------------------------------------
_ALU_RR = {
    "add": "({a} + {b}) & 4294967295",
    "sub": "({a} - {b}) & 4294967295",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "sll": "({a} << ({b} & 31)) & 4294967295",
    "srl": "{a} >> ({b} & 31)",
    "sra": "({sa} >> ({b} & 31)) & 4294967295",
    "slt": "1 if {sa} < {sb} else 0",
    "sltu": "1 if {a} < {b} else 0",
    "mul": "({a} * {b}) & 4294967295",
    "mulh": "(({sa} * {sb}) >> 32) & 4294967295",
    "mulhsu": "(({sa} * {b}) >> 32) & 4294967295",
    "mulhu": "(({a} * {b}) >> 32) & 4294967295",
}

#: I-type ALU: (expression, imm_transform) where the transform renders
#: the decoded immediate into the {b} literal.
_ALU_RI = {
    "addi": ("({a} + {b}) & 4294967295", "raw"),
    "andi": ("{a} & {b}", "mask"),
    "ori": ("{a} | {b}", "mask"),
    "xori": ("{a} ^ {b}", "mask"),
    "slli": ("({a} << {b}) & 4294967295", "raw"),
    "srli": ("{a} >> {b}", "raw"),
    "srai": ("({sa} >> {b}) & 4294967295", "raw"),
    "slti": ("1 if {sa} < {b} else 0", "raw"),
    "sltiu": ("1 if {a} < {b} else 0", "mask"),
}

_LOADS = {
    "lw": ("load_word", None),
    "lbu": ("load_byte", None),
    "lhu": ("load_half", None),
    "lb": ("load_byte", (128, 256)),
    "lh": ("load_half", (32768, 65536)),
}

_STORES = {
    "sw": ("store_word", None),
    "sh": ("store_half", 65535),
    "sb": ("store_byte", 255),
}


def _build_templates() -> List[Optional[Tuple]]:
    table: List[Optional[Tuple]] = [None] * NUM_OPCODES
    for m, expr in _ALU_RR.items():
        cls = cy.OP_MUL if m.startswith("mul") else cy.OP_ALU
        table[OPCODE_IDS[m]] = ("alu_rr", expr, cls)
    for m, (expr, transform) in _ALU_RI.items():
        table[OPCODE_IDS[m]] = ("alu_ri", expr, transform)
    for m in ("div", "divu", "rem", "remu"):
        table[OPCODE_IDS[m]] = ("divrem", m)
    for m, (method, sign) in _LOADS.items():
        table[OPCODE_IDS[m]] = ("load", method, sign)
    for m, (method, result_mask) in _STORES.items():
        table[OPCODE_IDS[m]] = ("store", method, result_mask)
    for m, (cond, sa, sb) in _BRANCH_CONDS.items():
        table[OPCODE_IDS[m]] = ("branch", cond, sa, sb)
    table[OPCODE_IDS["jal"]] = ("jal",)
    table[OPCODE_IDS["jalr"]] = ("jalr",)
    table[OPCODE_IDS["lui"]] = ("lui",)
    table[OPCODE_IDS["auipc"]] = ("auipc",)
    table[OPCODE_IDS["ebreak"]] = ("system",)
    table[OPCODE_IDS["ecall"]] = ("system",)
    return table


_HANDLER_TEMPLATES = _build_templates()

_BRANCH_IDS = frozenset(OPCODE_IDS[m] for m in _BRANCH_CONDS)


class TranslatedBlock:
    """One compiled basic block plus its event-flush metadata."""

    __slots__ = (
        "length",
        "pcs",
        "words",
        "run_recording",
        "run_fast",
        "uniq_prefix",
        "_statics",
        "_dyn_entries",
        "_plans",
        "_templates",
        "_retire_plans",
        "_code",
    )

    def __init__(
        self,
        pcs: Tuple[int, ...],
        words: Tuple[int, ...],
        statics: Tuple[Tuple[Tuple[int, int], ...], ...],
        dyn_entries: Tuple[Tuple[Tuple[int, int], ...], ...],
        uniq_prefix: Tuple[int, ...],
        code: Dict[str, str],
    ) -> None:
        self.length = len(pcs)
        self.pcs = pcs
        self.words = words
        self._statics = statics
        self._dyn_entries = dyn_entries
        #: uniq_prefix[count] = number of distinct dynamic values the
        #: block streams for its first ``count`` retired instructions.
        self.uniq_prefix = uniq_prefix
        self._plans: Dict[int, Tuple] = {}
        self._templates: Dict[int, Tuple] = {}
        self._retire_plans: Dict[int, np.ndarray] = {}
        #: Generated source per entry-point slot, until its first call.
        self._code = code
        self.run_recording = self._lazy_recording
        self.run_fast = self._lazy_fast

    # -- lazy bytecode compilation -------------------------------------
    # ``_generate`` only writes the two functions' source; each is
    # ``exec``'d on its first call, which rebinds the slot to the real
    # function, so later calls pay no indirection.  A run records events
    # or it does not, so one of the two is usually never compiled.
    def _lazy_recording(self, cpu, regs, mem, ex, mb):
        return self._materialise("run_recording")(cpu, regs, mem, ex, mb)

    def _lazy_fast(self, cpu, regs, mem):
        return self._materialise("run_fast")(cpu, regs, mem)

    def _materialise(self, slot: str):
        started = time.perf_counter()
        namespace = {"SimulationError": SimulationError, "B": self}
        exec(self._code[slot], namespace)  # noqa: S102 - template JIT
        function = namespace["_bb"]
        setattr(self, slot, function)
        self._code.pop(slot, None)
        _CACHE_STATS["compile_time_s"] += time.perf_counter() - started
        return function

    def flush_plan(self, count: int):
        """Scatter plan for the first ``count`` retired instructions.

        Returns ``(static_offsets, static_values, dyn_cells, gather,
        n_uniq)``: offsets/cells index the event log's flat event-major
        buffer relative to the instance's first event (event ``i``
        occupies flat cells ``[8 * i, 8 * i + 8)``).  ``gather`` maps
        each dynamic cell to its position in the streamed value slice
        (``None`` when that mapping is the identity), and ``n_uniq`` is
        the number of streamed values consumed.
        """
        plan = self._plans.get(count)
        if plan is None:
            static_off: List[int] = []
            static_vals: List[int] = []
            cells: List[int] = []
            gather: List[int] = []
            for i in range(count):
                base = 8 * i
                for row, value in self._statics[i]:
                    static_off.append(base + row)
                    static_vals.append(value)
                for row, uidx in self._dyn_entries[i]:
                    cells.append(base + row)
                    gather.append(uidx)
            n_uniq = self.uniq_prefix[count]
            identity = n_uniq == len(gather) and gather == list(range(n_uniq))
            plan = (
                np.asarray(static_off, dtype=np.intp),
                np.asarray(static_vals, dtype=np.int64),
                np.asarray(cells, dtype=np.intp),
                None if identity else np.asarray(gather, dtype=np.intp),
                n_uniq,
            )
            self._plans[count] = plan
        return plan

    def retire_plan(self, count: int) -> np.ndarray:
        """Static retire columns for the first ``count`` retirements.

        The ``(5, count)`` matrix of ``(rs1_addr, rs2_addr, rd_addr,
        mem_rmask, mem_wmask)`` — the retire-record fields fixed at
        translation time — that :func:`repro.riscv.retire
        .retires_from_events` pairs with the block's recorded event
        rows.  Cached per prefix length like :meth:`flush_plan`.
        """
        plan = self._retire_plans.get(count)
        if plan is None:
            plan = plan_columns(np.asarray(self.words[:count], dtype=np.int64))
            self._retire_plans[count] = plan
        return plan

    def flush_template(self, count: int):
        """Bulk-write recipe for the first ``count`` retired instructions.

        Returns ``(template, dyn_cells, gather, n_uniq)``: ``template``
        is the ``(count * 8,)`` int64 slab with every static field
        pre-filled (zeros elsewhere), so the event log materialises a
        block instance with one contiguous copy plus one fancy-index
        scatter of the streamed dynamic values.
        """
        template = self._templates.get(count)
        if template is None:
            static_off, static_vals, cells, gather, n_uniq = self.flush_plan(count)
            slab = np.zeros(count * 8, dtype=np.int64)
            slab[static_off] = static_vals
            template = (slab, cells, gather, n_uniq)
            self._templates[count] = template
        return template

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TranslatedBlock(pc={self.pcs[0]:#x}, length={self.length})"


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
def _is_const(expr: str) -> bool:
    return expr.lstrip("-").isdigit()


def _to_signed(value: int) -> int:
    return value - (1 << 32) if value & 0x80000000 else value


class _BlockSource:
    """Accumulates the generated source of both engine variants."""

    def __init__(self) -> None:
        self.rec: List[str] = []
        self.fast: List[str] = []
        self.statics: List[List[Tuple[int, int]]] = []
        self.dyn_entries: List[List[Tuple[int, int]]] = []
        self.uniq_names: List[str] = []
        self._name_uidx: Dict[str, int] = {}
        self.uniq_counts: List[int] = []  # per completed instruction
        self.cycles: List[int] = []
        # Local value propagation: register index -> local variable name
        # (str) or translation-time constant (int) holding its value.
        self.reg_local: Dict[int, Union[str, int]] = {}

    def emit(self, line: str, rec: bool = True, fast: bool = True) -> None:
        if rec:
            self.rec.append(line)
        if fast:
            self.fast.append(line)

    def begin_instruction(self, word: int, pc: int, op_class: int) -> None:
        statics = [(_ROW_WORD, word)]
        if pc:
            statics.append((_ROW_PC, pc))
        if op_class:
            statics.append((_ROW_OP, op_class))
        self.statics.append(statics)
        self.dyn_entries.append([])

    def end_instruction(self) -> None:
        self.uniq_counts.append(len(self.uniq_names))

    def static(self, row: int, value: int) -> None:
        if value:  # the log's buffer is zeroed, so zeros need no write
            self.statics[-1].append((row, value))

    def dyn(self, row: int, name: str) -> None:
        uidx = self._name_uidx.get(name)
        if uidx is None:
            uidx = len(self.uniq_names)
            self.uniq_names.append(name)
            self._name_uidx[name] = uidx
        self.dyn_entries[-1].append((row, uidx))

    def cycle_prefix(self, count: int) -> int:
        return sum(self.cycles[:count])


def _operand(src: _BlockSource, i: int, which: str, reg_index: int, row: int) -> str:
    """Bind an operand: block-local alias, constant, or a fresh read."""
    if reg_index == 0:
        return "0"
    known = src.reg_local.get(reg_index)
    if known is None:
        name = f"{which}{i}"
        src.emit(f"    {name} = regs[{reg_index}]")
        src.reg_local[reg_index] = name
        src.dyn(row, name)
        return name
    if isinstance(known, int):
        src.static(row, known)
        return str(known)
    src.dyn(row, known)
    return known


def _signed_expr(src: _BlockSource, i: int, which: str, operand: str) -> str:
    """Sign-convert ``operand``; constants fold at translation time."""
    if _is_const(operand):
        return str(_to_signed(int(operand)))
    name = f"s{which}{i}"
    src.emit(
        f"    {name} = {operand} - 4294967296 if {operand} & 2147483648 else {operand}"
    )
    return name


def _old_rd(src: _BlockSource, i: int, rd: int) -> None:
    if rd == 0:
        return
    known = src.reg_local.get(rd)
    if known is None:
        src.emit(f"    o{i} = regs[{rd}]", fast=False)
        src.dyn(_ROW_OLD, f"o{i}")
    elif isinstance(known, int):
        src.static(_ROW_OLD, known)
    else:
        src.dyn(_ROW_OLD, known)


def _write_result(src: _BlockSource, i: int, rd: int, result: Union[str, int]) -> None:
    """Record the result event field and commit the register write."""
    if isinstance(result, int):
        src.static(_ROW_RESULT, result)
    else:
        src.dyn(_ROW_RESULT, result)
    _old_rd(src, i, rd)
    if rd:
        src.emit(f"    regs[{rd}] = {result}")
        src.reg_local[rd] = result


def _commit_lines(
    src: _BlockSource,
    count: int,
    pc: int,
    indent: str,
    early_return: bool,
    uniq_count: int,
    cycles: Optional[int] = None,
) -> List[Tuple[str, bool]]:
    """Lines committing the first ``count`` retired instructions.

    Returns (line, rec_only) pairs; ``early_return`` distinguishes a
    side exit (instruction ``count - 1`` retired, resume at ``pc``) from
    a fault unwind (instruction ``count`` did not retire, ``raise``
    follows).  ``cycles`` overrides the static prefix sum when the exit
    path's last instruction costs differently than the straight-line
    one (superblock branch side exits).
    """
    lines: List[Tuple[str, bool]] = []
    names = src.uniq_names[:uniq_count]
    if names:
        lines.append((f"{indent}ex(({', '.join(names)},))", True))
    if count or early_return:
        lines.append((f"{indent}mb((B, {count}))", True))
    lines.append((f"{indent}cpu.pc = {pc}", False))
    if cycles is None:
        cycles = src.cycle_prefix(count)
    if cycles:
        lines.append((f"{indent}cpu.cycle_count += {cycles}", False))
    if count:
        lines.append((f"{indent}cpu.instruction_count += {count}", False))
    if early_return:
        lines.append((f"{indent}return {count}", False))
    else:
        lines.append((f"{indent}raise", False))
    return lines


def _emit_commit(src, count, pc, indent, early_return, uniq_count, cycles=None):
    for line, rec_only in _commit_lines(
        src, count, pc, indent, early_return, uniq_count, cycles
    ):
        src.emit(line, fast=not rec_only)


def _emit_memory_try(src: _BlockSource, i: int, pc: int, call: str) -> None:
    """Wrap a memory access so a fault commits the retired prefix."""
    uniq_count = src.uniq_counts[i - 1] if i else 0
    src.emit("    try:")
    src.emit(f"        {call}")
    src.emit("    except SimulationError:")
    _emit_commit(src, i, pc, "        ", False, uniq_count)


def _fold_or_emit(src: _BlockSource, i: int, expr: str) -> Union[str, int]:
    """Evaluate an all-literal expression now, else bind it to a local."""
    stripped = expr.replace(" ", "")
    if all(c in "0123456789+-*&|^<>()" or c == "%" for c in stripped):
        # Every operand folded to a literal: the result is a constant.
        return eval(expr)  # noqa: S307 - literals produced by this module
    src.emit(f"    t{i} = {expr}")
    return f"t{i}"


def _address_operand(
    src: _BlockSource, i: int, a: str, imm: int, row: int
) -> Tuple[str, bool]:
    """The effective address; returns (expression, is_constant)."""
    if _is_const(a):
        value = (int(a) + imm) & _MASK32
        src.static(row, value)
        return str(value), True
    src.emit(f"    d{i} = ({a} + {imm}) & 4294967295")
    src.dyn(row, f"d{i}")
    return f"d{i}", False


def _emit_instruction(
    src: _BlockSource, i: int, ins, pc: int, continuation: Optional[int] = None
) -> None:
    """Append one instruction's specialized handler to the block body.

    ``continuation`` is the next translated pc when the instruction is
    not the block's last one; for a conditional branch it names the
    direction the superblock walk predicted (and followed), turning the
    other direction into a side-exit commit.
    """
    template = _HANDLER_TEMPLATES[ins.op_id]
    kind = template[0]
    rd, rs1, rs2, imm, word = ins.rd, ins.rs1, ins.rs2, ins.imm, ins.word

    if kind == "alu_rr" or kind == "alu_ri":
        if kind == "alu_rr":
            expr, op_class = template[1], template[2]
        else:
            expr, transform = template[1], template[2]
            op_class = cy.OP_ALU
        src.begin_instruction(word, pc, op_class)
        src.cycles.append(cy.CYCLES[op_class])
        a = _operand(src, i, "a", rs1, _ROW_RS1)
        if kind == "alu_rr":
            b = _operand(src, i, "b", rs2, _ROW_RS2)
        else:
            b = str(imm & _MASK32 if transform == "mask" else imm)
        sa = _signed_expr(src, i, "a", a) if "{sa}" in expr else "0"
        sb = _signed_expr(src, i, "b", b) if "{sb}" in expr else "0"
        result = _fold_or_emit(src, i, expr.format(a=a, b=b, sa=sa, sb=sb))
        _write_result(src, i, rd, result)
        return

    if kind == "divrem":
        mnemonic = template[1]
        src.begin_instruction(word, pc, cy.OP_DIV)
        src.cycles.append(cy.CYCLES[cy.OP_DIV])
        a = _operand(src, i, "a", rs1, _ROW_RS1)
        b = _operand(src, i, "b", rs2, _ROW_RS2)
        if mnemonic == "divu":
            src.emit(
                f"    t{i} = 4294967295 if {b} == 0 else ({a} // {b}) & 4294967295"
            )
        elif mnemonic == "remu":
            src.emit(f"    t{i} = {a} if {b} == 0 else ({a} % {b}) & 4294967295")
        else:
            sa = _signed_expr(src, i, "a", a)
            sb = _signed_expr(src, i, "b", b)
            if mnemonic == "div":
                src.emit(f"    if {sb} == 0:")
                src.emit(f"        t{i} = 4294967295")
                src.emit(f"    elif {sa} == -2147483648 and {sb} == -1:")
                src.emit(f"        t{i} = 2147483648")
                src.emit("    else:")
                src.emit(f"        t{i} = abs({sa}) // abs({sb})")
                src.emit(f"        if ({sa} < 0) != ({sb} < 0):")
                src.emit(f"            t{i} = -t{i}")
                src.emit(f"        t{i} = t{i} & 4294967295")
            else:  # rem
                src.emit(f"    if {sb} == 0:")
                src.emit(f"        t{i} = {a}")
                src.emit(f"    elif {sa} == -2147483648 and {sb} == -1:")
                src.emit(f"        t{i} = 0")
                src.emit("    else:")
                src.emit(f"        t{i} = abs({sa}) % abs({sb})")
                src.emit(f"        if {sa} < 0:")
                src.emit(f"            t{i} = -t{i}")
                src.emit(f"        t{i} = t{i} & 4294967295")
        _write_result(src, i, rd, f"t{i}")
        return

    if kind == "load":
        method, sign = template[1], template[2]
        src.begin_instruction(word, pc, cy.OP_LOAD)
        src.cycles.append(cy.CYCLES[cy.OP_LOAD])
        a = _operand(src, i, "a", rs1, _ROW_RS1)
        address, _ = _address_operand(src, i, a, imm, _ROW_ADDR)
        target = f"q{i}" if sign else f"t{i}"
        _emit_memory_try(src, i, pc, f"{target} = mem.{method}({address})")
        if sign:
            bit, span = sign
            src.emit(
                f"    t{i} = (q{i} - {span} if q{i} & {bit} else q{i}) & 4294967295"
            )
        _write_result(src, i, rd, f"t{i}")
        return

    if kind == "store":
        method, result_mask = template[1], template[2]
        src.begin_instruction(word, pc, cy.OP_STORE)
        src.cycles.append(cy.CYCLES[cy.OP_STORE])
        a = _operand(src, i, "a", rs1, _ROW_RS1)
        b = _operand(src, i, "b", rs2, _ROW_RS2)
        address, addr_const = _address_operand(src, i, a, imm, _ROW_ADDR)
        _emit_memory_try(src, i, pc, f"mem.{method}({address}, {b})")
        if _is_const(b):
            masked = int(b) if result_mask is None else int(b) & result_mask
            src.static(_ROW_RESULT, masked)
        elif result_mask is None:
            src.dyn(_ROW_RESULT, b)
        else:
            src.emit(f"    t{i} = {b} & {result_mask}")
            src.dyn(_ROW_RESULT, f"t{i}")
        # Self-modifying-code guard: a store that hits translated code
        # retires, then ends the block so execution resumes on fresh
        # translations (mirrors the word-mismatch check in the decoded
        # cache of the reference engine).
        if addr_const:
            word_address = str(int(address) & 0xFFFFFFFC)
        elif method == "store_word":
            word_address = address
        else:
            word_address = f"({address} & 4294967292)"
        src.emit(f"    if {word_address} in cpu._code_words:")
        src.emit("        cpu._invalidate_blocks()")
        _emit_commit(src, i + 1, pc + 4, "        ", True, len(src.uniq_names))
        return

    if kind == "branch":
        cond, need_sa, need_sb = template[1], template[2], template[3]
        src.begin_instruction(word, pc, 0)  # op class is dynamic
        a = _operand(src, i, "a", rs1, _ROW_RS1)
        b = _operand(src, i, "b", rs2, _ROW_RS2)
        sa = _signed_expr(src, i, "a", a) if need_sa else "0"
        sb = _signed_expr(src, i, "b", b) if need_sb else "0"
        base = src.cycle_prefix(i)
        taken = (pc + imm) & _MASK32
        if continuation is None:
            # Block terminator: both directions leave the block.
            src.cycles.append(0)  # accounted in the taken/not-taken arms
            src.emit(f"    if {cond.format(a=a, b=b, sa=sa, sb=sb)}:")
            src.emit(f"        npc = {taken}")
            src.emit(f"        c{i} = {cy.OP_BRANCH_TAKEN}", fast=False)
            src.emit(f"        cyc = {base + cy.CYCLES[cy.OP_BRANCH_TAKEN]}")
            src.emit("    else:")
            src.emit(f"        npc = {pc + 4}")
            src.emit(f"        c{i} = {cy.OP_BRANCH_NOT_TAKEN}", fast=False)
            src.emit(f"        cyc = {base + cy.CYCLES[cy.OP_BRANCH_NOT_TAKEN]}")
            src.dyn(_ROW_OP, f"c{i}")
            src.dyn(_ROW_RESULT, "npc")
            return
        # Superblock interior: the walk followed the predicted
        # direction (``continuation``); the other direction becomes a
        # side-exit commit, so the straight line keeps flowing.
        follow_taken = continuation == taken
        if follow_taken:
            exit_cond = _BRANCH_INV[ins.mnemonic]
            exit_class, exit_pc = cy.OP_BRANCH_NOT_TAKEN, pc + 4
            cont_class = cy.OP_BRANCH_TAKEN
        else:
            exit_cond = cond
            exit_class, exit_pc = cy.OP_BRANCH_TAKEN, taken
            cont_class = cy.OP_BRANCH_NOT_TAKEN
        src.dyn(_ROW_OP, f"c{i}")
        src.dyn(_ROW_RESULT, f"r{i}")
        src.emit(f"    if {exit_cond.format(a=a, b=b, sa=sa, sb=sb)}:")
        src.emit(f"        c{i} = {exit_class}", fast=False)
        src.emit(f"        r{i} = {exit_pc}", fast=False)
        _emit_commit(
            src,
            i + 1,
            exit_pc,
            "        ",
            True,
            len(src.uniq_names),
            cycles=base + cy.CYCLES[exit_class],
        )
        src.emit(f"    c{i} = {cont_class}", fast=False)
        src.emit(f"    r{i} = {continuation}", fast=False)
        src.cycles.append(cy.CYCLES[cont_class])
        return

    if kind == "jal":
        src.begin_instruction(word, pc, cy.OP_JUMP)
        src.cycles.append(cy.CYCLES[cy.OP_JUMP])
        _write_result(src, i, rd, pc + 4)
        return

    if kind == "jalr":
        src.begin_instruction(word, pc, cy.OP_JUMP)
        src.cycles.append(cy.CYCLES[cy.OP_JUMP])
        a = _operand(src, i, "a", rs1, _ROW_RS1)
        _write_result(src, i, rd, pc + 4)
        if _is_const(a):
            src.emit(f"    npc = {(int(a) + imm) & 0xFFFFFFFE}")
        else:
            src.emit(f"    npc = ({a} + {imm}) & 4294967294")
        return

    if kind == "lui" or kind == "auipc":
        src.begin_instruction(word, pc, 0)
        src.cycles.append(cy.CYCLES[cy.OP_ALU])
        if kind == "lui":
            result = (imm << 12) & _MASK32
        else:
            result = (pc + (imm << 12)) & _MASK32
        _write_result(src, i, rd, result)
        return

    if kind == "system":
        src.begin_instruction(word, pc, cy.OP_SYSTEM)
        src.cycles.append(cy.CYCLES[cy.OP_SYSTEM])
        src.emit("    cpu.halted = True")
        return

    raise SimulationError(
        f"no handler template for {ins.mnemonic}"
    )  # pragma: no cover - the table covers every decodable mnemonic


def _generate(pcs, words, instrs, fallthrough) -> TranslatedBlock:
    src = _BlockSource()
    src.emit("def _bb(cpu, regs, mem, ex, mb):", fast=False)
    src.emit("def _bb(cpu, regs, mem):", rec=False)
    last_index = len(instrs) - 1
    for i, (pc, ins) in enumerate(zip(pcs, instrs)):
        _emit_instruction(src, i, ins, pc, pcs[i + 1] if i < last_index else None)
        src.end_instruction()

    count = len(instrs)
    names = src.uniq_names
    if names:
        src.emit(f"    ex(({', '.join(names)},))", fast=False)
    src.emit(f"    mb((B, {count}))", fast=False)
    last = instrs[-1]
    if last.op_id in _BRANCH_IDS or last.mnemonic == "jalr":
        src.emit("    cpu.pc = npc")
    else:
        src.emit(f"    cpu.pc = {fallthrough}")
    if last.op_id in _BRANCH_IDS:
        src.emit("    cpu.cycle_count += cyc")
    else:
        src.emit(f"    cpu.cycle_count += {src.cycle_prefix(count)}")
    src.emit(f"    cpu.instruction_count += {count}")
    src.emit(f"    return {count}")

    uniq_prefix = (0,) + tuple(src.uniq_counts)
    return TranslatedBlock(
        tuple(pcs),
        tuple(words),
        tuple(tuple(entry) for entry in src.statics),
        tuple(tuple(entry) for entry in src.dyn_entries),
        uniq_prefix,
        {"run_recording": "\n".join(src.rec), "run_fast": "\n".join(src.fast)},
    )


# ----------------------------------------------------------------------
# Process-wide translation cache
# ----------------------------------------------------------------------
_TRANSLATION_CACHE: Dict[Tuple, TranslatedBlock] = {}
_TRANSLATION_CACHE_MAX = 8192

#: Lifetime counters over the translation cache (mirrors the shape of
#: ``repro.ring.ntt.ntt_cache_stats``: the raw dict plus size bounds).
_CACHE_STATS: Dict[str, float] = {
    "hits": 0,  # translate() calls answered from the cache
    "misses": 0,  # translate() calls that generated a new block
    "invalidations": 0,  # Cpu._invalidate_blocks calls (SMC)
    "compile_time_s": 0.0,  # _generate_checked plus deferred exec seconds
}


def clear_translation_cache() -> None:
    """Drop every cached translation and zero the counters."""
    _TRANSLATION_CACHE.clear()
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0.0 if key == "compile_time_s" else 0


def translation_cache_size() -> int:
    """Number of process-wide cached block translations."""
    return len(_TRANSLATION_CACHE)


def translation_cache_stats() -> Dict[str, float]:
    """Hit/miss/invalidation counters plus current cache occupancy."""
    stats = dict(_CACHE_STATS)
    stats["size"] = len(_TRANSLATION_CACHE)
    stats["max_size"] = _TRANSLATION_CACHE_MAX
    return stats


def note_invalidation() -> None:
    """Record one SMC block-cache invalidation (called by the Cpu)."""
    _CACHE_STATS["invalidations"] += 1


def translate(memory, start_pc: int) -> TranslatedBlock:
    """Decode and compile the basic block starting at ``start_pc``.

    The block-extent walk peeks only at each word's major opcode field
    (terminator? ``jal``?), so on a translation-cache hit no full
    ``decode()`` runs at all — the words themselves are the cache key.
    Full decoding happens once per distinct block in :func:`_generate`.

    Raises :class:`SimulationError` only when the *first* instruction
    fails to fetch or decode (matching the reference engine, which would
    fault on that same instruction with the machine state untouched); a
    later undecodable word simply ends the block, so the fault is raised
    when — and only if — execution actually reaches it.
    """
    pcs: List[int] = []
    words: List[int] = []
    pc = start_pc
    load_word = memory.load_word
    # Revisited pcs are allowed: a followed loop latch unrolls the loop
    # body (side exits keep every iteration's architectural state exact)
    # until the instruction cap ends the block.
    while len(words) < MAX_BLOCK_INSTRUCTIONS:
        try:
            word = load_word(pc)
        except SimulationError:
            if not words:
                raise
            break
        pcs.append(pc)
        words.append(word)
        opcode = word & 0x7F
        if opcode in _TERMINATOR_OPCODES:
            pc += 4  # the ebreak/ecall fallthrough; jalr sets npc
            break
        if opcode == 0x63:  # conditional branch: follow the predicted way
            imm = branch_offset(word)
            # Static prediction: backward branches are loop latches
            # (follow taken), forward branches skip ahead rarely
            # (follow fallthrough).
            cont = (pc + imm) & _MASK32 if imm < 0 else pc + 4
            if imm == 4 or cont % 4:
                pc += 4  # unfollowable: the branch terminates the block
                break
            pc = cont
            continue
        if opcode == 0x6F:  # jal: follow the jump
            pc = (pc + jal_offset(word)) & _MASK32
            if pc % 4:
                break  # misaligned target: the next fetch faults live
            continue
        pc += 4
    fallthrough = pc

    key = (start_pc, tuple(words))
    block = _TRANSLATION_CACHE.get(key)
    if block is None:
        _CACHE_STATS["misses"] += 1
        if len(_TRANSLATION_CACHE) >= _TRANSLATION_CACHE_MAX:
            _TRANSLATION_CACHE.clear()
        started = time.perf_counter()
        block = _generate_checked(pcs, words, fallthrough)
        _CACHE_STATS["compile_time_s"] += time.perf_counter() - started
        _TRANSLATION_CACHE[key] = block
    else:
        _CACHE_STATS["hits"] += 1
    return block


def _generate_checked(
    pcs: List[int], words: List[int], fallthrough: int
) -> TranslatedBlock:
    """Decode the walked words, truncating at the first illegal one.

    The opcode-peek walk cannot tell an illegal word from a legal
    non-terminator, so decode failures surface here: an illegal first
    word re-raises (the caller's fetch faults, exactly like the
    reference engine); a later one truncates the block so execution
    stops right before it and the fault fires on the next dispatch.
    """
    instrs: List = []
    for index, word in enumerate(words):
        try:
            instrs.append(decode(word))
        except SimulationError:
            if index == 0:
                raise
            return _generate(pcs[:index], words[:index], instrs, pcs[index])
    return _generate(pcs, words, instrs, fallthrough)
