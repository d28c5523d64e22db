"""RV32IM instruction-set simulator with PicoRV32-like timing.

The paper runs SEAL v3.2 on a PicoRV32 softcore (RV32IM) on a SAKURA-G
FPGA and measures its power.  This package substitutes a cycle-level
instruction-set simulator:

- :mod:`repro.riscv.isa` — RV32IM encodings, encoder and decoder;
- :mod:`repro.riscv.assembler` — a two-pass assembler with labels and
  the usual pseudo-instructions;
- :mod:`repro.riscv.memory` — a flat little-endian RAM;
- :mod:`repro.riscv.cpu` — the interpreter; it records per-instruction
  execution events (operands, results, bus values) that
  :mod:`repro.power` expands into synthetic power traces;
- :mod:`repro.riscv.threaded` — the threaded-code engine: basic blocks
  translated once into direct-dispatch handler chains;
- :mod:`repro.riscv.compiled` — the compiled engine: one fixed
  RV32IM interpreter core in C, built once per machine into the
  native backend's cffi module;
- :mod:`repro.riscv.programs` — the Gaussian-sampling kernel in RV32IM
  assembly, mirroring SEAL's ``set_poly_coeffs_normal`` (Fig. 2).
"""

from repro.riscv.assembler import assemble
from repro.riscv.cpu import Cpu, EventLog, ExecutionEvent
from repro.riscv.isa import decode, encode
from repro.riscv.memory import Memory

__all__ = ["Cpu", "EventLog", "ExecutionEvent", "Memory", "assemble", "decode", "encode"]
