"""The RV32IM interpreter with execution-event recording.

Two execution engines share one architectural state:

- :meth:`Cpu.run` drives the **threaded-code engine**
  (:mod:`repro.riscv.threaded`): basic blocks are decoded once,
  compiled into specialized straight-line handler functions, cached by
  pc, and their execution events are recorded as deferred bulk writes
  (:meth:`EventLog.append_block`) instead of one columnar store per
  retirement.
- :meth:`Cpu.step_reference` / :meth:`Cpu.run_reference` keep the
  original one-instruction-at-a-time interpreter as the semantic
  reference.  The threaded engine is asserted bit-for-bit identical to
  it (registers, pc, cycle/instruction counts, the event log, and every
  ``SimulationError``) in ``tests/riscv/test_threaded_engine.py``.

Events carry everything the CMOS power model needs: the fetched
instruction word, both operand values, the result, the overwritten
destination value (for Hamming-distance leakage) and the memory
address/data where applicable.  The expansion of events into per-cycle
power samples lives in :mod:`repro.power.leakage`, which consumes the
log's int64 column arrays directly — no per-event Python objects are
materialised on the hot path.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.riscv import cycles as cy
from repro.riscv.isa import Decoded, decode
from repro.riscv.memory import Memory
from repro.riscv.retire import (
    DATA_MASK_VALUES as _DATA_MASK_VALUES,
    LOAD_MASKS as _LOAD_MASKS,
    STORE_MASKS as _STORE_MASKS,
    RetireLog,
    is_budget_error,
    plan_columns,
    retires_from_events,
)
from repro.riscv.threaded import TranslatedBlock, note_invalidation, translate

_MASK32 = 0xFFFFFFFF


def _signed(value: int) -> int:
    return value - (1 << 32) if value & 0x80000000 else value


class ExecutionEvent(NamedTuple):
    """Everything observable about one retired instruction."""

    op_class: int  # cy.OP_* constant
    word: int  # the fetched instruction encoding
    rs1_value: int
    rs2_value: int
    result: int  # rd value written / store data / branch target
    old_rd: int  # destination register's previous content
    address: int  # memory address for loads/stores, else 0
    pc: int


class EventLog(Sequence):
    """Structure-of-arrays store of execution events.

    One preallocated ``(capacity, 8)`` int64 matrix holds one event per
    row (event-major, so a block of consecutive events is one contiguous
    slab), grown by :meth:`reserve` — a single doubled-buffer copy,
    never repeated ``np.concatenate``.  The power model reads the
    fields wholesale via :meth:`columns` / the per-field properties;
    sequence access (``log[i]``, iteration, ``log == [...]``)
    materialises :class:`ExecutionEvent` tuples on demand so existing
    callers keep working.

    The threaded engine records **deferred**: :meth:`append_block`
    queues a ``(TranslatedBlock, count)`` pair plus the block's dynamic
    field values, and the queue is scattered into the matrix in bulk on
    first read (static fields — op class, instruction word, pc,
    constant results — come from the block's cached
    :meth:`~repro.riscv.threaded.TranslatedBlock.flush_plan`).
    Every reader flushes first, so the deferral is invisible to callers.
    """

    _NUM_FIELDS = len(ExecutionEvent._fields)

    def __init__(self, capacity: int = 1024) -> None:
        self._data = np.zeros((max(int(capacity), 1), self._NUM_FIELDS), dtype=np.int64)
        self._length = 0
        # Deferred block recordings: (block, retired_count) pairs plus a
        # flat array of their dynamic field values in emission order
        # (array('q') so the flush reads it zero-copy via frombuffer).
        self._pending_meta: List[Tuple[TranslatedBlock, int]] = []
        self._pending_dyn = array("q")

    # -- recording ------------------------------------------------------
    def append(
        self,
        op_class: int,
        word: int,
        rs1_value: int,
        rs2_value: int,
        result: int,
        old_rd: int,
        address: int,
        pc: int,
    ) -> None:
        """Record one event (reference-engine path: one row store)."""
        if self._pending_meta:
            self._flush()
        n = self._length
        data = self._data
        if n == data.shape[0]:
            self.reserve(1)
            data = self._data
        data[n] = (op_class, word, rs1_value, rs2_value, result, old_rd, address, pc)
        self._length = n + 1

    def append_block(self, block: TranslatedBlock, count: int, dyn_values) -> None:
        """Queue ``count`` retired instructions of a translated block.

        ``dyn_values`` is the flat sequence of the block's *distinct*
        dynamic values (first-emission order); the block's cached flush
        plan fans each value out to every event cell that carries it and
        fills the static fields.  The actual write happens lazily in
        bulk.
        """
        self._pending_meta.append((block, count))
        self._pending_dyn.extend(dyn_values)

    def reserve(self, extra: int) -> None:
        """Ensure room for ``extra`` more events past the current length.

        Growth is a single geometric reallocation (zeroed buffer + one
        slab copy); callers recording whole blocks therefore never pay
        repeated per-append reallocation.
        """
        need = self._length + extra
        capacity = self._data.shape[0]
        if need <= capacity:
            return
        new_capacity = max(capacity, 1)
        while new_capacity < need:
            new_capacity *= 2
        grown = np.zeros((new_capacity, self._NUM_FIELDS), dtype=np.int64)
        grown[: self._length] = self._data[: self._length]
        self._data = grown

    def _flush(self) -> None:
        """Scatter every queued block recording into the matrix.

        Occurrences are bucketed by ``(block, count)`` — a kernel loop
        replays the same handful of blocks thousands of times, so each
        distinct block flushes with two numpy scatters total (template
        broadcast + dynamic-value fan-out over every occurrence) instead
        of one write per executed block.
        """
        meta = self._pending_meta
        if not meta:
            return
        dyn = np.frombuffer(self._pending_dyn, dtype=np.int64)
        fields = self._NUM_FIELDS
        groups: Dict[Tuple[int, int], Tuple] = {}
        event_pos = self._length
        dyn_pos = 0
        for block, count in meta:
            key = (id(block), count)
            group = groups.get(key)
            if group is None:
                groups[key] = group = (block, count, [], [])
            group[2].append(event_pos * fields)
            group[3].append(dyn_pos)
            event_pos += count
            dyn_pos += block.uniq_prefix[count]
        self.reserve(event_pos - self._length)
        flat = self._data.reshape(-1)
        for block, count, bases, dyn_starts in groups.values():
            template, cells, gather, n_uniq = block.flush_template(count)
            span = count * fields
            if len(bases) == 1:
                base = bases[0]
                segment = flat[base : base + span]
                segment[:] = template
                if n_uniq:
                    start = dyn_starts[0]
                    values = dyn[start : start + n_uniq]
                    segment[cells] = values if gather is None else values[gather]
            else:
                b = np.asarray(bases, dtype=np.intp)[:, None]
                flat[b + np.arange(span)] = template
                if n_uniq:
                    starts = np.asarray(dyn_starts, dtype=np.intp)[:, None]
                    values = dyn[starts + np.arange(n_uniq)]
                    flat[b + cells] = values if gather is None else values[:, gather]
        self._length = event_pos
        meta.clear()
        # Release every frombuffer view before resizing the export source.
        values = None  # noqa: F841 - may still view the pending buffer
        del dyn
        del self._pending_dyn[:]

    def clear(self) -> None:
        """Drop all events; the buffer is kept (and re-zeroed) for reuse."""
        self._pending_meta.clear()
        del self._pending_dyn[:]
        if self._length:
            self._data[: self._length].fill(0)
        self._length = 0

    # -- columnar access (what the vectorized power model consumes) ----
    def columns(self) -> np.ndarray:
        """The ``(8, len(self))`` int64 field matrix (a view, not a copy)."""
        if self._pending_meta:
            self._flush()
        return self._data[: self._length].T

    def column(self, name: str) -> np.ndarray:
        """One named field as an int64 vector (a view, not a copy)."""
        if self._pending_meta:
            self._flush()
        return self._data[: self._length, ExecutionEvent._fields.index(name)]

    @property
    def op_class(self) -> np.ndarray:
        return self.column("op_class")

    @property
    def word(self) -> np.ndarray:
        return self.column("word")

    @property
    def rs1_value(self) -> np.ndarray:
        return self.column("rs1_value")

    @property
    def rs2_value(self) -> np.ndarray:
        return self.column("rs2_value")

    @property
    def result(self) -> np.ndarray:
        return self.column("result")

    @property
    def old_rd(self) -> np.ndarray:
        return self.column("old_rd")

    @property
    def address(self) -> np.ndarray:
        return self.column("address")

    @property
    def pc(self) -> np.ndarray:
        return self.column("pc")

    # -- sequence compatibility ----------------------------------------
    def __len__(self) -> int:
        if self._pending_meta:
            self._flush()
        return self._length

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[ExecutionEvent, List[ExecutionEvent]]:
        if self._pending_meta:
            self._flush()
        if isinstance(index, slice):
            return [
                ExecutionEvent(*(int(v) for v in self._data[i]))
                for i in range(*index.indices(self._length))
            ]
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("event index out of range")
        return ExecutionEvent(*(int(v) for v in self._data[index]))

    def __iter__(self) -> Iterator[ExecutionEvent]:
        if self._pending_meta:
            self._flush()
        for i in range(self._length):
            yield ExecutionEvent(*(int(v) for v in self._data[i]))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventLog):
            return np.array_equal(self.columns(), other.columns())
        if isinstance(other, (list, tuple, Sequence)) and not isinstance(
            other, (str, bytes)
        ):
            if len(other) != len(self):
                return False
            try:
                return all(a == b for a, b in zip(self, other))
            except TypeError:
                return NotImplemented
        return NotImplemented

    # -- pickling (translated blocks hold unpicklable generated code) --
    def __getstate__(self) -> dict:
        self._flush()
        return {"rows": self._data[: self._length].copy()}

    def __setstate__(self, state: dict) -> None:
        rows = np.asarray(state["rows"], dtype=np.int64).reshape(-1, self._NUM_FIELDS)
        self._data = np.zeros((max(rows.shape[0], 1), self._NUM_FIELDS), dtype=np.int64)
        self._data[: rows.shape[0]] = rows
        self._length = rows.shape[0]
        self._pending_meta = []
        self._pending_dyn = array("q")

    def __repr__(self) -> str:
        if self._pending_meta:
            self._flush()
        return f"EventLog(length={self._length})"


class Cpu:
    """A PicoRV32-like RV32IM core.

    Parameters
    ----------
    memory:
        The attached RAM; defaults to 1 MiB.
    record_events:
        When True, :attr:`events` collects one entry per instruction;
        turn this off for functional-only runs (it is the dominant cost).
        Disabling recording (at construction or later) empties the log,
        so :attr:`events` never exposes stale entries from a previous
        recorded run.
    record_retires:
        When True, :attr:`retires` additionally collects one RVFI-style
        :class:`~repro.riscv.retire.RetireEvent` per retired
        instruction (the cross-engine conformance interface; see
        :mod:`repro.riscv.retire`).  Off by default — it exists for
        differential testing, not capture — and requires
        ``record_events`` (the threaded engine derives retire rows from
        the event stream).
    """

    def __init__(
        self,
        memory: Optional[Memory] = None,
        record_events: bool = True,
        record_retires: bool = False,
    ) -> None:
        self.memory = memory if memory is not None else Memory()
        self.registers: List[int] = [0] * 32
        self.pc = 0
        self.cycle_count = 0
        self.instruction_count = 0
        self.halted = False
        self.events: EventLog = EventLog()
        self.retires: RetireLog = RetireLog()
        #: Number of event rows already projected into :attr:`retires`.
        self._retired_events = 0
        self._record_retires = False
        self.record_events = record_events
        self.record_retires = record_retires
        self._decoded_cache: Dict[int, Decoded] = {}
        # Threaded-engine state: pc -> compiled block, plus the set of
        # word addresses currently covered by a cached block (for the
        # self-modifying-code guard).
        self._block_cache: Dict[int, TranslatedBlock] = {}
        self._code_words: Set[int] = set()

    @property
    def record_events(self) -> bool:
        return self._record_events

    @record_events.setter
    def record_events(self, enabled: bool) -> None:
        self._record_events = bool(enabled)
        if not self._record_events:
            self.events.clear()
            # Retire rows are derived from the event stream, so they
            # cannot keep recording without it.
            self._record_retires = False
            self.retires.clear()
            self._retired_events = 0

    @property
    def record_retires(self) -> bool:
        return self._record_retires

    @record_retires.setter
    def record_retires(self, enabled: bool) -> None:
        enabled = bool(enabled)
        if enabled and not self._record_events:
            raise SimulationError(
                "record_retires requires record_events (retire rows are"
                " derived from the event stream)"
            )
        self._record_retires = enabled
        if enabled:
            # Projection resumes from here; earlier events stay
            # unretired (they predate the request to record).
            self._retired_events = len(self.events)
        else:
            self.retires.clear()
            self._retired_events = 0

    # ------------------------------------------------------------------
    def load_program(self, words: List[int], base_address: int = 0) -> None:
        """Write a program into memory, reset state, and point pc at it."""
        self.memory.load_program(words, base_address)
        self.registers = [0] * 32
        self.pc = base_address
        self.cycle_count = 0
        self.instruction_count = 0
        self.halted = False
        self.events.clear()
        self.retires.clear()
        self._retired_events = 0
        self._decoded_cache = {}
        self._block_cache = {}
        self._code_words = set()

    def write_register(self, index: int, value: int) -> None:
        """Set a register (used to pass arguments into kernels)."""
        if index != 0:
            self.registers[index] = value & _MASK32

    def read_register(self, index: int) -> int:
        """Read a register value (unsigned 32-bit)."""
        return self.registers[index]

    def _invalidate_blocks(self) -> None:
        """Drop cached translations after a store into translated code."""
        note_invalidation()
        self._block_cache.clear()
        self._code_words.clear()

    def adopt_translations(
        self, block_cache: Dict[int, TranslatedBlock], code_words: Set[int]
    ) -> None:
        """Share a persistent per-program block cache with this core.

        A device that re-runs the same kernel on a fresh :class:`Cpu`
        per capture (so architectural state starts clean) can keep one
        ``{pc: TranslatedBlock}`` dict plus its code-word set across
        runs and attach them here — translations depend only on the
        instruction words, never on data memory or registers, so reuse
        is safe as long as the program is unchanged.  Must be called
        *after* :meth:`load_program` (which resets both containers to
        empty per-core ones).  The self-modifying-code guard keeps
        working: an invalidation clears the shared containers in place.
        """
        self._block_cache = block_cache
        self._code_words = code_words

    # ------------------------------------------------------------------
    def run(self, max_instructions: int = 10_000_000) -> int:
        """Execute until ``ebreak`` or the instruction budget runs out.

        Returns the number of instructions retired.  Raises
        :class:`SimulationError` if the budget is exhausted (runaway
        program) or an illegal instruction is hit.

        This is the threaded-code engine: straight-line basic blocks
        are translated once (:func:`repro.riscv.threaded.translate`),
        cached by pc, and replayed as specialized Python functions with
        one deferred :meth:`EventLog.append_block` per block.  The
        budget check runs at block granularity; when fewer instructions
        remain than the next block would retire, execution falls back
        to :meth:`step_reference` so exhaustion raises at exactly the
        same instruction — with the same message and machine state — as
        :meth:`run_reference`.
        """
        if self._record_retires:
            return self._run_retiring(max_instructions)
        executed = 0
        memory = self.memory
        regs = self.registers
        cache = self._block_cache
        if self._record_events:
            log = self.events
            extend_dyn = log._pending_dyn.extend
            push_meta = log._pending_meta.append
            while not self.halted:
                block = cache.get(self.pc)
                if block is None:
                    if executed >= max_instructions:
                        raise SimulationError(
                            f"instruction budget {max_instructions} exhausted"
                            f" at pc={self.pc:#x}"
                        )
                    block = translate(memory, self.pc)
                    cache[self.pc] = block
                    self._code_words.update(block.pcs)
                if executed + block.length > max_instructions:
                    return self._run_budget_tail(executed, max_instructions)
                executed += block.run_recording(self, regs, memory, extend_dyn, push_meta)
        else:
            while not self.halted:
                block = cache.get(self.pc)
                if block is None:
                    if executed >= max_instructions:
                        raise SimulationError(
                            f"instruction budget {max_instructions} exhausted"
                            f" at pc={self.pc:#x}"
                        )
                    block = translate(memory, self.pc)
                    cache[self.pc] = block
                    self._code_words.update(block.pcs)
                if executed + block.length > max_instructions:
                    return self._run_budget_tail(executed, max_instructions)
                executed += block.run_fast(self, regs, memory)
        return executed

    def _run_retiring(self, max_instructions: int) -> int:
        """The threaded-engine loop with retire-log projection.

        Identical block dispatch to :meth:`run`'s recording loop, plus a
        local mirror of every ``(block, count)`` recording the generated
        code pushes — the per-block retire plans those pairs name turn
        the event stream into retire rows in one bulk projection at run
        end (:meth:`_finalize_retires`).  Live per-step emission is
        parked for the duration so budget-tail single-stepping cannot
        interleave rows ahead of the block-projected ones.
        """
        metas: List[Tuple[TranslatedBlock, int]] = []
        log = self.events
        push_meta_log = log._pending_meta.append

        def push_meta(pair: Tuple[TranslatedBlock, int]) -> None:
            metas.append(pair)
            push_meta_log(pair)

        extend_dyn = log._pending_dyn.extend
        executed = 0
        memory = self.memory
        regs = self.registers
        cache = self._block_cache
        self._record_retires = False
        try:
            while not self.halted:
                block = cache.get(self.pc)
                if block is None:
                    if executed >= max_instructions:
                        raise SimulationError(
                            f"instruction budget {max_instructions} exhausted"
                            f" at pc={self.pc:#x}"
                        )
                    block = translate(memory, self.pc)
                    cache[self.pc] = block
                    self._code_words.update(block.pcs)
                if executed + block.length > max_instructions:
                    executed = self._run_budget_tail(executed, max_instructions)
                    break
                executed += block.run_recording(self, regs, memory, extend_dyn, push_meta)
        except SimulationError as error:
            self._record_retires = True
            self._finalize_retires(metas, str(error))
            raise
        self._record_retires = True
        self._finalize_retires(metas, None)
        return executed

    def _finalize_retires(self, metas: List[Tuple[TranslatedBlock, int]], error: Optional[str]) -> None:
        """Project the run's new event rows into :attr:`retires`.

        ``metas`` names the block recordings in emission order; any
        event rows past their coverage came from budget-tail reference
        stepping (or a fault-truncated prefix) and get a plan computed
        straight from their instruction words.  A terminal
        architectural fault appends the trap retire; budget exhaustion
        does not (it is a simulator limit, not a trap).
        """
        cols = self.events.columns()
        start = self._retired_events
        segment = cols[:, start:]
        n = segment.shape[1]
        if n:
            plans = [block.retire_plan(count) for block, count in metas]
            covered = sum(plan.shape[1] for plan in plans)
            if covered < n:
                plans.append(plan_columns(segment[1, covered:]))
            plan = plans[0] if len(plans) == 1 else np.concatenate(plans, axis=1)
            self.retires.append_rows(
                retires_from_events(
                    segment, plan, self.pc, start_order=len(self.retires)
                )
            )
            self._retired_events = cols.shape[1]
        if error is not None and not is_budget_error(error):
            self.retires.append_trap(self.pc, self._trap_insn())

    def _trap_insn(self) -> int:
        """The encoding at the faulting pc, or 0 when the fetch faults."""
        try:
            return self.memory.load_word(self.pc)
        except SimulationError:
            return 0

    def _run_budget_tail(self, executed: int, max_instructions: int) -> int:
        """Single-step the last few instructions before the budget line."""
        while not self.halted:
            if executed >= max_instructions:
                raise SimulationError(
                    f"instruction budget {max_instructions} exhausted at pc={self.pc:#x}"
                )
            self.step_reference()
            executed += 1
        return executed

    def run_reference(self, max_instructions: int = 10_000_000) -> int:
        """The seed interpreter loop (one :meth:`step_reference` per turn)."""
        executed = 0
        try:
            while not self.halted:
                if executed >= max_instructions:
                    raise SimulationError(
                        f"instruction budget {max_instructions} exhausted"
                        f" at pc={self.pc:#x}"
                    )
                self.step_reference()
                executed += 1
        except SimulationError as error:
            if self._record_retires and not is_budget_error(str(error)):
                self.retires.append_trap(self.pc, self._trap_insn())
            raise
        return executed

    def step(self) -> None:
        """Fetch, decode and execute a single instruction."""
        self.step_reference()

    def step_reference(self) -> None:
        """The reference scalar interpreter (one retirement per call)."""
        pc = self.pc
        word = self.memory.load_word(pc)
        ins = self._decoded_cache.get(pc)
        if ins is None or ins.word != word:
            ins = decode(word)
            self._decoded_cache[pc] = ins
        regs = self.registers
        m = ins.mnemonic
        rs1 = regs[ins.rs1]
        rs2 = regs[ins.rs2]
        rd = ins.rd
        imm = ins.imm
        next_pc = pc + 4
        op_class = cy.OP_ALU
        result = 0
        old_rd = regs[rd]
        address = 0

        if m == "addi":
            result = (rs1 + imm) & _MASK32
        elif m == "add":
            result = (rs1 + rs2) & _MASK32
        elif m == "sub":
            result = (rs1 - rs2) & _MASK32
        elif m == "lw":
            address = (rs1 + imm) & _MASK32
            result = self.memory.load_word(address)
            op_class = cy.OP_LOAD
        elif m == "sw":
            address = (rs1 + imm) & _MASK32
            self.memory.store_word(address, rs2)
            result = rs2
            op_class = cy.OP_STORE
            rd = 0
        elif m in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            taken = self._branch_taken(m, rs1, rs2)
            if taken:
                next_pc = (pc + imm) & _MASK32
                op_class = cy.OP_BRANCH_TAKEN
            else:
                op_class = cy.OP_BRANCH_NOT_TAKEN
            result = next_pc
            rd = 0
        elif m == "andi":
            result = rs1 & (imm & _MASK32)
        elif m == "ori":
            result = rs1 | (imm & _MASK32)
        elif m == "xori":
            result = rs1 ^ (imm & _MASK32)
        elif m == "slli":
            result = (rs1 << imm) & _MASK32
        elif m == "srli":
            result = rs1 >> imm
        elif m == "srai":
            result = (_signed(rs1) >> imm) & _MASK32
        elif m == "slti":
            result = 1 if _signed(rs1) < imm else 0
        elif m == "sltiu":
            result = 1 if rs1 < (imm & _MASK32) else 0
        elif m == "and":
            result = rs1 & rs2
        elif m == "or":
            result = rs1 | rs2
        elif m == "xor":
            result = rs1 ^ rs2
        elif m == "sll":
            result = (rs1 << (rs2 & 31)) & _MASK32
        elif m == "srl":
            result = rs1 >> (rs2 & 31)
        elif m == "sra":
            result = (_signed(rs1) >> (rs2 & 31)) & _MASK32
        elif m == "slt":
            result = 1 if _signed(rs1) < _signed(rs2) else 0
        elif m == "sltu":
            result = 1 if rs1 < rs2 else 0
        elif m == "mul":
            result = (_signed(rs1) * _signed(rs2)) & _MASK32
            op_class = cy.OP_MUL
        elif m == "mulh":
            result = ((_signed(rs1) * _signed(rs2)) >> 32) & _MASK32
            op_class = cy.OP_MUL
        elif m == "mulhsu":
            result = ((_signed(rs1) * rs2) >> 32) & _MASK32
            op_class = cy.OP_MUL
        elif m == "mulhu":
            result = ((rs1 * rs2) >> 32) & _MASK32
            op_class = cy.OP_MUL
        elif m == "div":
            op_class = cy.OP_DIV
            a, b = _signed(rs1), _signed(rs2)
            if b == 0:
                result = _MASK32
            elif a == -(1 << 31) and b == -1:
                result = a & _MASK32
            else:
                result = int(abs(a) // abs(b))
                if (a < 0) != (b < 0):
                    result = -result
                result &= _MASK32
        elif m == "divu":
            op_class = cy.OP_DIV
            result = _MASK32 if rs2 == 0 else (rs1 // rs2) & _MASK32
        elif m == "rem":
            op_class = cy.OP_DIV
            a, b = _signed(rs1), _signed(rs2)
            if b == 0:
                result = rs1
            elif a == -(1 << 31) and b == -1:
                result = 0
            else:
                result = abs(a) % abs(b)
                if a < 0:
                    result = -result
                result &= _MASK32
        elif m == "remu":
            op_class = cy.OP_DIV
            result = rs1 if rs2 == 0 else (rs1 % rs2) & _MASK32
        elif m == "lui":
            result = (imm << 12) & _MASK32
        elif m == "auipc":
            result = (pc + (imm << 12)) & _MASK32
        elif m == "jal":
            result = next_pc
            next_pc = (pc + imm) & _MASK32
            op_class = cy.OP_JUMP
        elif m == "jalr":
            result = next_pc
            next_pc = (rs1 + imm) & _MASK32 & ~1
            op_class = cy.OP_JUMP
        elif m == "lb":
            address = (rs1 + imm) & _MASK32
            byte = self.memory.load_byte(address)
            result = (byte - 256 if byte & 0x80 else byte) & _MASK32
            op_class = cy.OP_LOAD
        elif m == "lbu":
            address = (rs1 + imm) & _MASK32
            result = self.memory.load_byte(address)
            op_class = cy.OP_LOAD
        elif m == "lh":
            address = (rs1 + imm) & _MASK32
            half = self.memory.load_half(address)
            result = (half - 65536 if half & 0x8000 else half) & _MASK32
            op_class = cy.OP_LOAD
        elif m == "lhu":
            address = (rs1 + imm) & _MASK32
            result = self.memory.load_half(address)
            op_class = cy.OP_LOAD
        elif m == "sh":
            address = (rs1 + imm) & _MASK32
            self.memory.store_half(address, rs2)
            result = rs2 & 0xFFFF
            op_class = cy.OP_STORE
            rd = 0
        elif m == "sb":
            address = (rs1 + imm) & _MASK32
            self.memory.store_byte(address, rs2)
            result = rs2 & 0xFF
            op_class = cy.OP_STORE
            rd = 0
        elif m == "ebreak" or m == "ecall":
            self.halted = True
            op_class = cy.OP_SYSTEM
            rd = 0
        else:  # pragma: no cover - decode() rejects unknown mnemonics
            raise SimulationError(f"unhandled mnemonic {m}")

        if rd != 0:
            regs[rd] = result
        self.pc = next_pc
        self.cycle_count += cy.CYCLES[op_class]
        self.instruction_count += 1
        if self._record_events:
            self.events.append(op_class, word, rs1, rs2, result, old_rd, address, pc)
            if self._record_retires:
                # Live RVFI emission: every field computed from the
                # architectural state this step just touched — the
                # semantic anchor the projected engines are diffed
                # against.  ``rd`` is already 0 for formats without a
                # destination, matching the decoded plan columns.
                rmask = _LOAD_MASKS.get(m, 0)
                wmask = _STORE_MASKS.get(m, 0)
                self.retires.append(
                    pc,
                    next_pc,
                    word,
                    ins.rs1,
                    rs1,
                    ins.rs2,
                    rs2,
                    rd,
                    result if rd else 0,
                    0,
                    address,
                    rmask,
                    wmask,
                    result & _DATA_MASK_VALUES[rmask],
                    result & _DATA_MASK_VALUES[wmask],
                )
                self._retired_events += 1
        if (
            op_class == cy.OP_STORE
            and self._code_words
            and (address & 0xFFFFFFFC) in self._code_words
        ):
            # Same self-modifying-code contract as the threaded engine:
            # a store into translated code drops the cached blocks.
            self._invalidate_blocks()

    # ------------------------------------------------------------------
    @staticmethod
    def _branch_taken(mnemonic: str, rs1: int, rs2: int) -> bool:
        if mnemonic == "beq":
            return rs1 == rs2
        if mnemonic == "bne":
            return rs1 != rs2
        if mnemonic == "blt":
            return _signed(rs1) < _signed(rs2)
        if mnemonic == "bge":
            return _signed(rs1) >= _signed(rs2)
        if mnemonic == "bltu":
            return rs1 < rs2
        return rs1 >= rs2  # bgeu
