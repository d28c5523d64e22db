"""Shared-memory slice arenas for the campaign orchestrator.

The orchestrator's contract is that **no trace, slice or result array
is ever pickled onto a queue**.  Everything bulky crosses process
boundaries through one :class:`SliceArena`: a single
:mod:`multiprocessing.shared_memory` segment carved into fixed-capacity
*slots*, each with a small int64 header protocol (magic, generation
counter, array count, payload bytes) followed by per-array descriptors
(dtype code, ndim, shape) and the raw array bytes.

The slots are the result ring.  A worker packs a grain's per-seed
outcome record (:mod:`repro.attack.orchestrator`) into one of its
dedicated slots and sends only a tiny header message (slot index +
generation) to the parent; the parent reads the arrays straight out of
shared memory, folds them, and releases the slot.  The generation
counter makes stale or double reads a hard error instead of silent
corruption.

The parent creates and unlinks the segment; workers inherit it by fork
or re-attach by name (pickling a :class:`SliceArena` re-attaches, so
spawn start methods work too).  Worker death can therefore never leak
the segment: cleanup is entirely the parent's.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError, VerificationError

try:  # pragma: no cover - always present on CPython >= 3.8
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

_MAGIC = 0x5245_4145_4C41_5221  # "REVEALAR!"-ish tag for header sanity

#: Segment names created by this process (or inherited from a fork
#: parent).  Attaching registers the name with the *same* resource
#: tracker the creator used, so the attach-side unregister workaround
#: below must skip these — otherwise it strips the creator's
#: registration and the eventual ``unlink()`` double-unregisters.
_OWNED_NAMES: set = set()


def _note_created(name: str) -> None:
    _OWNED_NAMES.add(name)


def _untrack_attached(shm) -> None:
    """Stop an attaching process's resource tracker from unlinking a
    segment it does not own at exit (the pre-3.13 ``track=False`` gap).

    No-op when the creator shares this tracker (same process, or a
    forked child): the creator's registration must survive.
    """
    if shm.name in _OWNED_NAMES:
        return
    try:  # pragma: no cover - depends on CPython internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass

#: Slot header words: [magic, generation, n_arrays, payload_bytes].
_SLOT_HEADER_WORDS = 4
#: Per-array descriptor words: [dtype_code, ndim, shape0..shape3].
_ARRAY_HEADER_WORDS = 6
_MAX_NDIM = 4

#: Wire dtype codes.  Only what grain records actually use; extending
#: the table is backwards compatible (codes are stable).
_DTYPES = {
    0: np.dtype(np.float64),
    1: np.dtype(np.int64),
    2: np.dtype(np.uint8),
    3: np.dtype(np.bool_),
    4: np.dtype(np.float32),
    5: np.dtype(np.int32),
}
_DTYPE_CODES = {dtype: code for code, dtype in _DTYPES.items()}


def _align8(n: int) -> int:
    return (int(n) + 7) & ~7


class SliceArena:
    """A ring of fixed-capacity shared-memory slots with typed headers.

    Parameters
    ----------
    slots:
        Number of slots in the segment.
    slot_bytes:
        Payload capacity of each slot (headers live outside this
        budget, so ``packed_bytes(arrays) <= slot_bytes`` always fits).
    name:
        Attach to an existing segment instead of creating one.
    """

    def __init__(
        self,
        slots: int | None = None,
        slot_bytes: int | None = None,
        name: str | None = None,
    ) -> None:
        if _shared_memory is None:  # pragma: no cover
            raise ParameterError("multiprocessing.shared_memory unavailable")
        if name is None:
            if slots is None or slot_bytes is None:
                raise ParameterError("SliceArena() needs slots and slot_bytes")
            if slots < 1 or slot_bytes < 64:
                raise ParameterError(
                    f"need >= 1 slot of >= 64 bytes, got {slots} x {slot_bytes}"
                )
            slot_bytes = _align8(slot_bytes)
            self._owner = True
            stride = self._stride(slot_bytes)
            total = 16 * 8 + slots * stride
            self._shm = _shared_memory.SharedMemory(create=True, size=total)
            meta = np.ndarray(16, dtype=np.int64, buffer=self._shm.buf[: 16 * 8])
            meta[0] = _MAGIC
            meta[1] = slots
            meta[2] = slot_bytes
            meta[3:] = 0
            _note_created(self._shm.name)
        else:
            self._owner = False
            self._shm = _shared_memory.SharedMemory(name=name)
            _untrack_attached(self._shm)
            meta = np.ndarray(16, dtype=np.int64, buffer=self._shm.buf[: 16 * 8])
            if meta[0] != _MAGIC:
                raise VerificationError(
                    f"shared segment {name!r} is not a SliceArena"
                )
            slots = int(meta[1])
            slot_bytes = int(meta[2])
        self.slots = int(slots)
        self.slot_bytes = int(slot_bytes)
        self._closed = False

    # ------------------------------------------------------------------
    @staticmethod
    def _stride(slot_bytes: int) -> int:
        header = (_SLOT_HEADER_WORDS + 16 * _ARRAY_HEADER_WORDS) * 8
        return header + _align8(slot_bytes)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def total_bytes(self) -> int:
        return self._shm.size

    # -- pickling: re-attach by name (spawn-safe) ----------------------
    def __getstate__(self) -> dict:
        return {"name": self.name}

    def __setstate__(self, state: dict) -> None:
        self.__init__(name=state["name"])

    # ------------------------------------------------------------------
    def _slot_region(self, index: int):
        if not 0 <= index < self.slots:
            raise ParameterError(
                f"slot {index} out of range (arena has {self.slots})"
            )
        stride = self._stride(self.slot_bytes)
        base = 16 * 8 + index * stride
        header_bytes = (_SLOT_HEADER_WORDS + 16 * _ARRAY_HEADER_WORDS) * 8
        header = np.ndarray(
            _SLOT_HEADER_WORDS + 16 * _ARRAY_HEADER_WORDS,
            dtype=np.int64,
            buffer=self._shm.buf[base : base + header_bytes],
        )
        payload = self._shm.buf[base + header_bytes : base + stride]
        return header, payload

    @staticmethod
    def packed_bytes(arrays) -> int:
        """Payload bytes :meth:`write` will use for ``arrays``."""
        return sum(_align8(np.asarray(a).nbytes) for a in arrays)

    def generation(self, index: int) -> int:
        header, _ = self._slot_region(index)
        return int(header[1])

    def write(self, index: int, arrays) -> int:
        """Pack ``arrays`` into slot ``index``; returns the new
        generation counter (ship it in the queue message)."""
        arrays = [np.ascontiguousarray(a) for a in arrays]
        if len(arrays) > 16:
            raise ParameterError(f"slot holds <= 16 arrays, got {len(arrays)}")
        payload_bytes = self.packed_bytes(arrays)
        if payload_bytes > self.slot_bytes:
            raise ParameterError(
                f"record needs {payload_bytes} B but slots hold "
                f"{self.slot_bytes} B; chunk the grain"
            )
        header, payload = self._slot_region(index)
        offset = 0
        for n, array in enumerate(arrays):
            if array.dtype not in _DTYPE_CODES:
                raise ParameterError(f"unsupported arena dtype {array.dtype}")
            if array.ndim > _MAX_NDIM:
                raise ParameterError(f"unsupported arena ndim {array.ndim}")
            desc = _SLOT_HEADER_WORDS + n * _ARRAY_HEADER_WORDS
            header[desc] = _DTYPE_CODES[array.dtype]
            header[desc + 1] = array.ndim
            shape = list(array.shape) + [0] * (_MAX_NDIM - array.ndim)
            header[desc + 2 : desc + 2 + _MAX_NDIM] = shape
            span = _align8(array.nbytes)
            view = np.ndarray(
                array.shape,
                dtype=array.dtype,
                buffer=payload[offset : offset + array.nbytes],
            )
            view[...] = array
            offset += span
        header[0] = _MAGIC
        header[2] = len(arrays)
        header[3] = payload_bytes
        header[1] += 1  # generation bump: the slot now holds this record
        return int(header[1])

    def read(self, index: int, generation: int | None = None):
        """Unpack slot ``index`` into a list of *copied* arrays.

        ``generation`` (from the queue message) guards the ring
        protocol: reading a slot whose counter moved on is a hard
        :class:`VerificationError`, never silently stale data.
        """
        header, payload = self._slot_region(index)
        if header[0] != _MAGIC:
            raise VerificationError(f"slot {index} holds no record")
        if generation is not None and int(header[1]) != int(generation):
            raise VerificationError(
                f"slot {index} generation {int(header[1])} != expected "
                f"{int(generation)} (stale or double read)"
            )
        arrays = []
        offset = 0
        for n in range(int(header[2])):
            desc = _SLOT_HEADER_WORDS + n * _ARRAY_HEADER_WORDS
            dtype = _DTYPES[int(header[desc])]
            ndim = int(header[desc + 1])
            shape = tuple(
                int(s) for s in header[desc + 2 : desc + 2 + ndim]
            )
            nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            view = np.ndarray(
                shape, dtype=dtype, buffer=payload[offset : offset + nbytes]
            )
            arrays.append(view.copy())
            offset += _align8(nbytes)
        return arrays

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass

    def __del__(self) -> None:  # pragma: no cover - GC ordering varies
        try:
            self.close()
        except Exception:
            pass
