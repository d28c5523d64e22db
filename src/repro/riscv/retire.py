"""RVFI-style retire records: the cross-engine conformance interface.

riscv-formal's RVFI pins down one canonical record per *retired*
instruction — program counters before/after, the fetched encoding,
source/destination register addresses and data, and the memory access —
so that independently built cores can be diffed instruction by
instruction instead of "final state happened to match".  This module
carries the same idea across the repo's RV32IM engines:

- the scalar reference interpreter emits :class:`RetireLog` rows live
  from inside :meth:`~repro.riscv.cpu.Cpu.step_reference` (the semantic
  anchor — it computes every field from the architectural state it just
  touched);
- the threaded engine materialises its rows at the end of a run from
  the event stream through cached **per-block retire plans**
  (:meth:`~repro.riscv.threaded.TranslatedBlock.retire_plan`), the same
  static/dynamic split its event flush uses; the compiled engine
  projects its run's event segment the same way at run end.

The field mapping against riscv-formal (what is kept, what is dropped
and why) is documented in DESIGN.md §5k.  A *trap* retire is appended
when execution ends in an architectural fault (illegal instruction,
misaligned or out-of-range memory access); instruction-budget
exhaustion is a simulator limit, not a trap, and ends the stream
without a trap row.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.riscv.isa import decode


class RetireEvent(NamedTuple):
    """One RVFI-style retirement record (all fields unsigned ints)."""

    order: int  # position in the retire stream (0-based)
    pc_rdata: int  # pc this instruction was fetched from
    pc_wdata: int  # pc the core moved to after retiring it
    insn: int  # the fetched 32-bit encoding
    rs1_addr: int
    rs1_rdata: int
    rs2_addr: int
    rs2_rdata: int
    rd_addr: int  # 0 when the instruction writes no register
    rd_wdata: int  # 0 when rd_addr is 0
    trap: int  # 1 on the final faulting retire, else 0
    mem_addr: int  # effective address of the access, else 0
    mem_rmask: int  # active read byte lanes (0x1 / 0x3 / 0xF)
    mem_wmask: int  # active write byte lanes
    mem_rdata: int  # raw loaded bytes (no sign extension)
    mem_wdata: int  # stored bytes


RETIRE_FIELDS = RetireEvent._fields
NUM_RETIRE_FIELDS = len(RETIRE_FIELDS)

#: Active byte lanes per memory mnemonic.
LOAD_MASKS: Dict[str, int] = {"lb": 0x1, "lbu": 0x1, "lh": 0x3, "lhu": 0x3, "lw": 0xF}
STORE_MASKS: Dict[str, int] = {"sb": 0x1, "sh": 0x3, "sw": 0xF}

#: Byte-lane mask -> value mask, indexed by the 4-bit lane mask.  Used
#: to strip the interpreter's sign extension back off loaded data.
DATA_MASKS = np.zeros(16, dtype=np.int64)
DATA_MASKS[0x1] = 0xFF
DATA_MASKS[0x3] = 0xFFFF
DATA_MASKS[0xF] = 0xFFFFFFFF

#: The same table as plain Python ints, for the scalar per-step path.
DATA_MASK_VALUES: List[int] = [int(v) for v in DATA_MASKS]

_WORD_PLANS: Dict[int, Tuple[int, int, int, int, int]] = {}


def word_plan(word: int) -> Tuple[int, int, int, int, int]:
    """The static retire columns of one instruction word.

    Returns ``(rs1_addr, rs2_addr, rd_addr, mem_rmask, mem_wmask)``.
    The decoder already zeroes the register addresses a format does not
    read or write (stores/branches have no rd, U/J formats no sources,
    immediate shifts no rs2), so these five values — everything in a
    retire record that does not depend on runtime state — fall straight
    out of :func:`~repro.riscv.isa.decode`, cached per distinct word.
    """
    plan = _WORD_PLANS.get(word)
    if plan is None:
        ins = decode(word)
        plan = (
            ins.rs1,
            ins.rs2,
            ins.rd,
            LOAD_MASKS.get(ins.mnemonic, 0),
            STORE_MASKS.get(ins.mnemonic, 0),
        )
        _WORD_PLANS[word] = plan
    return plan


def plan_columns(words: np.ndarray) -> np.ndarray:
    """Static plan columns, ``(5, n)`` int64, for a vector of words.

    Programs repeat a handful of distinct encodings thousands of times,
    so the plan is built once per unique word and scattered back.
    """
    words = np.asarray(words, dtype=np.int64)
    if words.size == 0:
        return np.zeros((5, 0), dtype=np.int64)
    uniq, inverse = np.unique(words, return_inverse=True)
    table = np.empty((uniq.shape[0], 5), dtype=np.int64)
    for i, word in enumerate(uniq):
        table[i] = word_plan(int(word))
    return table[inverse].T.copy()


def retires_from_events(
    cols: np.ndarray,
    plan: Optional[np.ndarray],
    final_pc: int,
    start_order: int = 0,
) -> np.ndarray:
    """Project ``(8, n)`` event columns into ``(n, 16)`` retire rows.

    ``plan`` is the matching ``(5, n)`` static-column matrix (built
    from per-block retire plans or :func:`plan_columns`; ``None``
    derives it from the event words).  The event log already carries
    every dynamic quantity a retire record needs — the register-file
    reads at the decoded source addresses, the written result, the
    memory address and the per-retire pc — so the projection is pure
    column algebra; ``final_pc`` closes the ``pc_wdata`` chain on the
    last retire (every earlier one hands off to its successor's
    ``pc_rdata``).
    """
    n = cols.shape[1]
    out = np.zeros((n, NUM_RETIRE_FIELDS), dtype=np.int64)
    if n == 0:
        return out
    if plan is None:
        plan = plan_columns(cols[1])
    rs1_addr, rs2_addr, rd_addr, rmask, wmask = plan
    result = cols[4]
    out[:, 0] = np.arange(start_order, start_order + n)
    out[:, 1] = cols[7]
    out[:-1, 2] = cols[7][1:]
    out[-1, 2] = final_pc
    out[:, 3] = cols[1]
    out[:, 4] = rs1_addr
    out[:, 5] = cols[2]
    out[:, 6] = rs2_addr
    out[:, 7] = cols[3]
    out[:, 8] = rd_addr
    out[:, 9] = np.where(rd_addr != 0, result, 0)
    out[:, 11] = np.where((rmask | wmask) != 0, cols[6], 0)
    out[:, 12] = rmask
    out[:, 13] = wmask
    # Loads record the sign-extended value as their result; masking to
    # the active byte lanes recovers the raw memory data.  Store
    # results are already width-masked, so the AND is the identity.
    out[:, 14] = result & DATA_MASKS[rmask]
    out[:, 15] = result & DATA_MASKS[wmask]
    return out


def trap_row(order: int, pc: int, insn: int) -> np.ndarray:
    """The final retire of a faulting execution.

    riscv-formal retires a trapped instruction with ``rvfi_trap`` set
    and no register or memory writes; we keep exactly that — the pc the
    fault was raised at (``pc_wdata`` stays there: the simulator stops)
    and the fetched encoding when the fetch itself succeeded (0 for an
    out-of-range or misaligned fetch).
    """
    row = np.zeros(NUM_RETIRE_FIELDS, dtype=np.int64)
    row[0] = order
    row[1] = pc
    row[2] = pc
    row[3] = insn
    row[10] = 1
    return row


def is_budget_error(message: str) -> bool:
    """Whether a SimulationError message is budget exhaustion.

    The budget message is an exact cross-engine contract (pinned by
    ``test_budget_error_message_exact``), which makes it a reliable
    discriminator: budget exhaustion is a simulator limit and produces
    no trap retire, every other SimulationError is an architectural
    fault and does.
    """
    return message.startswith("instruction budget ")


class RetireLog(Sequence):
    """Structure-of-arrays store of retire records.

    The same shape as :class:`~repro.riscv.cpu.EventLog` — one
    preallocated ``(capacity, 16)`` int64 matrix grown geometrically,
    columnar readers, sequence compatibility, rows-only pickling — but
    without the deferred-flush machinery: the scalar engine appends one
    row per retirement and the compiled engines land whole runs via
    :meth:`append_rows`.
    """

    _NUM_FIELDS = NUM_RETIRE_FIELDS

    def __init__(self, capacity: int = 256) -> None:
        self._data = np.zeros((max(int(capacity), 1), self._NUM_FIELDS), dtype=np.int64)
        self._length = 0

    # -- recording ------------------------------------------------------
    def append(
        self,
        pc_rdata: int,
        pc_wdata: int,
        insn: int,
        rs1_addr: int,
        rs1_rdata: int,
        rs2_addr: int,
        rs2_rdata: int,
        rd_addr: int,
        rd_wdata: int,
        trap: int,
        mem_addr: int,
        mem_rmask: int,
        mem_wmask: int,
        mem_rdata: int,
        mem_wdata: int,
    ) -> None:
        """Record one retirement; ``order`` is the row position."""
        n = self._length
        data = self._data
        if n == data.shape[0]:
            self.reserve(1)
            data = self._data
        data[n] = (
            n,
            pc_rdata,
            pc_wdata,
            insn,
            rs1_addr,
            rs1_rdata,
            rs2_addr,
            rs2_rdata,
            rd_addr,
            rd_wdata,
            trap,
            mem_addr,
            mem_rmask,
            mem_wmask,
            mem_rdata,
            mem_wdata,
        )
        self._length = n + 1

    def append_rows(self, rows: np.ndarray) -> None:
        """Bulk-append an ``(n, 16)`` retire-row matrix."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, self._NUM_FIELDS)
        if not rows.shape[0]:
            return
        self.reserve(rows.shape[0])
        self._data[self._length : self._length + rows.shape[0]] = rows
        self._length += rows.shape[0]

    def append_trap(self, pc: int, insn: int) -> None:
        """Record the terminal trap retire of a faulting run."""
        self.append_rows(trap_row(self._length, pc, insn)[None, :])

    def reserve(self, extra: int) -> None:
        """Ensure room for ``extra`` more rows (geometric growth)."""
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

    def clear(self) -> None:
        """Drop all rows; the buffer is kept (and re-zeroed) for reuse."""
        if self._length:
            self._data[: self._length].fill(0)
        self._length = 0

    # -- columnar access ------------------------------------------------
    def rows(self) -> np.ndarray:
        """The ``(len(self), 16)`` row matrix (a view, not a copy)."""
        return self._data[: self._length]

    def columns(self) -> np.ndarray:
        """The ``(16, len(self))`` field matrix (a view, not a copy)."""
        return self._data[: self._length].T

    def column(self, name: str) -> np.ndarray:
        """One named field as an int64 vector (a view, not a copy)."""
        return self._data[: self._length, RETIRE_FIELDS.index(name)]

    # -- sequence compatibility ----------------------------------------
    def __len__(self) -> int:
        return self._length

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[RetireEvent, List[RetireEvent]]:
        if isinstance(index, slice):
            return [
                RetireEvent(*(int(v) for v in self._data[i]))
                for i in range(*index.indices(self._length))
            ]
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("retire index out of range")
        return RetireEvent(*(int(v) for v in self._data[index]))

    def __iter__(self) -> Iterator[RetireEvent]:
        for i in range(self._length):
            yield RetireEvent(*(int(v) for v in self._data[i]))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RetireLog):
            return np.array_equal(self.rows(), other.rows())
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

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "RetireLog":
        """Build a log directly from an ``(n, 16)`` row matrix."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, cls._NUM_FIELDS)
        log = cls(capacity=max(rows.shape[0], 1))
        log._data[: rows.shape[0]] = rows
        log._length = rows.shape[0]
        return log

    # -- pickling -------------------------------------------------------
    def __getstate__(self) -> dict:
        return {"rows": self._data[: self._length].copy()}

    def __setstate__(self, state: dict) -> None:
        rows = np.asarray(state["rows"], dtype=np.int64).reshape(-1, self._NUM_FIELDS)
        self._data = np.zeros((max(rows.shape[0], 1), self._NUM_FIELDS), dtype=np.int64)
        self._data[: rows.shape[0]] = rows
        self._length = rows.shape[0]

    def __repr__(self) -> str:
        return f"RetireLog(length={self._length})"
