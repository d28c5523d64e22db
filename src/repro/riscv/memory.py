"""Flat little-endian RAM for the RV32 core."""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.errors import SimulationError

_MASK32 = 0xFFFFFFFF


@lru_cache(maxsize=32)
def _program_image(words: Tuple[int, ...]) -> bytes:
    """The little-endian bytes of a program, built once per program."""
    return b"".join((word & _MASK32).to_bytes(4, "little") for word in words)


class Memory:
    """A contiguous byte-addressable memory starting at address 0."""

    def __init__(self, size_bytes: int = 1 << 20) -> None:
        if size_bytes <= 0 or size_bytes % 4:
            raise SimulationError("memory size must be a positive multiple of 4")
        self.size = size_bytes
        self._data = bytearray(size_bytes)

    def _check(self, address: int, width: int) -> None:
        if address < 0 or address + width > self.size:
            raise SimulationError(
                f"memory access at {address:#x} (+{width}) outside [0, {self.size:#x})"
            )
        if address % width:
            raise SimulationError(
                f"misaligned {width}-byte access at {address:#x}"
            )

    # ------------------------------------------------------------------
    def load_word(self, address: int) -> int:
        """Read a 32-bit little-endian word."""
        self._check(address, 4)
        return int.from_bytes(self._data[address : address + 4], "little")

    def store_word(self, address: int, value: int) -> None:
        """Write a 32-bit little-endian word."""
        self._check(address, 4)
        self._data[address : address + 4] = (value & _MASK32).to_bytes(4, "little")

    def load_half(self, address: int) -> int:
        """Read an unsigned 16-bit value."""
        self._check(address, 2)
        return int.from_bytes(self._data[address : address + 2], "little")

    def store_half(self, address: int, value: int) -> None:
        """Write a 16-bit value."""
        self._check(address, 2)
        self._data[address : address + 2] = (value & 0xFFFF).to_bytes(2, "little")

    def load_byte(self, address: int) -> int:
        """Read an unsigned byte."""
        self._check(address, 1)
        return self._data[address]

    def store_byte(self, address: int, value: int) -> None:
        """Write a byte."""
        self._check(address, 1)
        self._data[address] = value & 0xFF

    # ------------------------------------------------------------------
    def load_program(self, words: List[int], base_address: int = 0) -> None:
        """Copy a list of 32-bit words into memory at ``base_address``.

        An in-range aligned program blits its image (built once per
        distinct program) in one slice assignment; the out-of-range /
        misaligned cases fall back to per-word stores so the fault
        (including which prefix was written before it) matches the
        word-at-a-time behaviour exactly.
        """
        end = base_address + 4 * len(words)
        if base_address % 4 or base_address < 0 or end > self.size:
            for i, word in enumerate(words):
                self.store_word(base_address + 4 * i, word)
            return
        self._data[base_address:end] = _program_image(tuple(words))

    def read_words(self, address: int, count: int) -> List[int]:
        """Read ``count`` consecutive little-endian words.

        An in-range aligned read is one slice; the out-of-range /
        misaligned cases read word by word, so the fault matches
        :meth:`load_word` exactly.
        """
        end = address + 4 * count
        if count < 1 or address % 4 or address < 0 or end > self.size:
            return [self.load_word(address + 4 * i) for i in range(count)]
        return np.frombuffer(self._data, dtype="<u4", count=count, offset=address).tolist()
