"""RV32IM instruction encodings: encoder, decoder, register names.

Implements the base integer ISA (RV32I) plus the M extension, which is
the PicoRV32 configuration the paper uses ("RV32IM ... 32-bit based
integer and standard extension for integer multiplication and
division").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import AssemblyError, SimulationError

# ----------------------------------------------------------------------
# Registers
# ----------------------------------------------------------------------
ABI_NAMES = (
    "zero ra sp gp tp t0 t1 t2 s0 s1 a0 a1 a2 a3 a4 a5 "
    "a6 a7 s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 t3 t4 t5 t6"
).split()

REGISTERS: Dict[str, int] = {name: i for i, name in enumerate(ABI_NAMES)}
REGISTERS.update({f"x{i}": i for i in range(32)})
REGISTERS["fp"] = 8  # alias of s0


def register_number(name: str) -> int:
    """Resolve a register name (ABI or xN) to its number."""
    try:
        return REGISTERS[name]
    except KeyError:
        raise AssemblyError(f"unknown register {name!r}") from None


# ----------------------------------------------------------------------
# Instruction table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InstructionSpec:
    """Encoding metadata for one mnemonic."""

    mnemonic: str
    fmt: str  # one of R I S B U J
    opcode: int
    funct3: int = 0
    funct7: int = 0


_R = lambda m, f3, f7=0, op=0x33: InstructionSpec(m, "R", op, f3, f7)
_I = lambda m, f3, op, f7=0: InstructionSpec(m, "I", op, f3, f7)

SPECS: Dict[str, InstructionSpec] = {
    s.mnemonic: s
    for s in [
        # U / J
        InstructionSpec("lui", "U", 0x37),
        InstructionSpec("auipc", "U", 0x17),
        InstructionSpec("jal", "J", 0x6F),
        # I-type jumps / loads / ALU immediates
        _I("jalr", 0, 0x67),
        _I("lb", 0, 0x03),
        _I("lh", 1, 0x03),
        _I("lw", 2, 0x03),
        _I("lbu", 4, 0x03),
        _I("lhu", 5, 0x03),
        _I("addi", 0, 0x13),
        _I("slti", 2, 0x13),
        _I("sltiu", 3, 0x13),
        _I("xori", 4, 0x13),
        _I("ori", 6, 0x13),
        _I("andi", 7, 0x13),
        _I("slli", 1, 0x13, f7=0x00),
        _I("srli", 5, 0x13, f7=0x00),
        _I("srai", 5, 0x13, f7=0x20),
        # S-type stores
        InstructionSpec("sb", "S", 0x23, 0),
        InstructionSpec("sh", "S", 0x23, 1),
        InstructionSpec("sw", "S", 0x23, 2),
        # B-type branches
        InstructionSpec("beq", "B", 0x63, 0),
        InstructionSpec("bne", "B", 0x63, 1),
        InstructionSpec("blt", "B", 0x63, 4),
        InstructionSpec("bge", "B", 0x63, 5),
        InstructionSpec("bltu", "B", 0x63, 6),
        InstructionSpec("bgeu", "B", 0x63, 7),
        # R-type ALU
        _R("add", 0, 0x00),
        _R("sub", 0, 0x20),
        _R("sll", 1, 0x00),
        _R("slt", 2, 0x00),
        _R("sltu", 3, 0x00),
        _R("xor", 4, 0x00),
        _R("srl", 5, 0x00),
        _R("sra", 5, 0x20),
        _R("or", 6, 0x00),
        _R("and", 7, 0x00),
        # M extension
        _R("mul", 0, 0x01),
        _R("mulh", 1, 0x01),
        _R("mulhsu", 2, 0x01),
        _R("mulhu", 3, 0x01),
        _R("div", 4, 0x01),
        _R("divu", 5, 0x01),
        _R("rem", 6, 0x01),
        _R("remu", 7, 0x01),
        # System
        _I("ecall", 0, 0x73),
        _I("ebreak", 0, 0x73),
    ]
}

#: Dense integer opcode ids, assigned in SPECS order.  The threaded-code
#: engine (:mod:`repro.riscv.threaded`) indexes its handler-template
#: table with these instead of comparing mnemonic strings.
OPCODE_IDS: Dict[str, int] = {m: i for i, m in enumerate(SPECS)}

#: Number of distinct opcode ids (table size for dense dispatch).
NUM_OPCODES = len(OPCODE_IDS)

_MASK32 = 0xFFFFFFFF


def _check_imm(mnemonic: str, imm: int, bits: int, signed: bool = True) -> None:
    if signed:
        low, high = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        low, high = 0, (1 << bits) - 1
    if not (low <= imm <= high):
        raise AssemblyError(
            f"{mnemonic}: immediate {imm} out of range [{low}, {high}]"
        )


def encode(
    mnemonic: str,
    rd: int = 0,
    rs1: int = 0,
    rs2: int = 0,
    imm: int = 0,
) -> int:
    """Encode one instruction into its 32-bit word."""
    spec = SPECS.get(mnemonic)
    if spec is None:
        raise AssemblyError(f"unknown mnemonic {mnemonic!r}")
    op, f3, f7 = spec.opcode, spec.funct3, spec.funct7
    if spec.fmt == "R":
        return (f7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | op
    if spec.fmt == "I":
        if mnemonic == "ebreak":
            return 0x00100073
        if mnemonic == "ecall":
            return 0x00000073
        if mnemonic in ("slli", "srli", "srai"):
            _check_imm(mnemonic, imm, 5, signed=False)
            return (f7 << 25) | (imm << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | op
        _check_imm(mnemonic, imm, 12)
        return ((imm & 0xFFF) << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | op
    if spec.fmt == "S":
        _check_imm(mnemonic, imm, 12)
        imm &= 0xFFF
        return (
            ((imm >> 5) << 25)
            | (rs2 << 20)
            | (rs1 << 15)
            | (f3 << 12)
            | ((imm & 0x1F) << 7)
            | op
        )
    if spec.fmt == "B":
        _check_imm(mnemonic, imm, 13)
        if imm % 2:
            raise AssemblyError(f"{mnemonic}: branch offset must be even")
        imm &= 0x1FFF
        return (
            ((imm >> 12) << 31)
            | (((imm >> 5) & 0x3F) << 25)
            | (rs2 << 20)
            | (rs1 << 15)
            | (f3 << 12)
            | (((imm >> 1) & 0xF) << 8)
            | (((imm >> 11) & 1) << 7)
            | op
        )
    if spec.fmt == "U":
        _check_imm(mnemonic, imm, 20, signed=False)
        return (imm << 12) | (rd << 7) | op
    if spec.fmt == "J":
        _check_imm(mnemonic, imm, 21)
        if imm % 2:
            raise AssemblyError(f"{mnemonic}: jump offset must be even")
        imm &= 0x1FFFFF
        return (
            ((imm >> 20) << 31)
            | (((imm >> 1) & 0x3FF) << 21)
            | (((imm >> 11) & 1) << 20)
            | (((imm >> 12) & 0xFF) << 12)
            | (rd << 7)
            | op
        )
    raise AssemblyError(f"unhandled format {spec.fmt}")  # pragma: no cover


@dataclass(frozen=True)
class Decoded:
    """A decoded instruction ready for execution.

    ``op_id`` is the dense integer opcode id (:data:`OPCODE_IDS`); it is
    derived from the mnemonic automatically so every construction site —
    including tests building ``Decoded`` by hand — gets a valid id.
    """

    mnemonic: str
    rd: int
    rs1: int
    rs2: int
    imm: int
    word: int
    op_id: int = -1

    def __post_init__(self) -> None:
        if self.op_id < 0:
            object.__setattr__(self, "op_id", OPCODE_IDS[self.mnemonic])


def _sign_extend(value: int, bits: int) -> int:
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


_BY_KEY: Dict[tuple, InstructionSpec] = {}
for _spec in SPECS.values():
    if _spec.fmt == "R" or _spec.mnemonic in ("slli", "srli", "srai"):
        _BY_KEY[(_spec.opcode, _spec.funct3, _spec.funct7)] = _spec
    else:
        _BY_KEY[(_spec.opcode, _spec.funct3, None)] = _spec


def branch_offset(word: int) -> int:
    """Signed byte offset of a B-type branch word, without a full decode.

    The threaded engine's block-translation walk peeks only at the
    opcode plus this immediate to decide where a block extends, so the
    B-immediate scatter lives here once rather than inline in the walk.
    """
    imm = (
        (((word >> 31) & 1) << 12)
        | (((word >> 7) & 1) << 11)
        | (((word >> 25) & 0x3F) << 5)
        | (((word >> 8) & 0xF) << 1)
    )
    return _sign_extend(imm, 13)


def jal_offset(word: int) -> int:
    """Signed byte offset of a ``jal`` word, without a full decode."""
    imm = (
        (((word >> 31) & 1) << 20)
        | (((word >> 21) & 0x3FF) << 1)
        | (((word >> 20) & 1) << 11)
        | (((word >> 12) & 0xFF) << 12)
    )
    return _sign_extend(imm, 21)


def decode(word: int) -> Decoded:
    """Decode a 32-bit instruction word.

    Raises :class:`SimulationError` on an illegal instruction, which is
    what the CPU reports when execution escapes the program.
    """
    word &= _MASK32
    opcode = word & 0x7F
    rd = (word >> 7) & 0x1F
    f3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    f7 = (word >> 25) & 0x7F

    if opcode == 0x37 or opcode == 0x17:
        mnemonic = "lui" if opcode == 0x37 else "auipc"
        return Decoded(mnemonic, rd, 0, 0, word >> 12, word)
    if opcode == 0x6F:
        return Decoded("jal", rd, 0, 0, jal_offset(word), word)
    if opcode == 0x73:
        if word == 0x00100073:
            return Decoded("ebreak", 0, 0, 0, 0, word)
        if word == 0x00000073:
            return Decoded("ecall", 0, 0, 0, 0, word)
        raise SimulationError(f"unsupported system instruction {word:#010x}")
    if opcode == 0x63:
        spec = _BY_KEY.get((opcode, f3, None))
        if spec is None:
            raise SimulationError(f"illegal branch funct3={f3}")
        return Decoded(spec.mnemonic, 0, rs1, rs2, branch_offset(word), word)
    if opcode == 0x23:
        spec = _BY_KEY.get((opcode, f3, None))
        if spec is None:
            raise SimulationError(f"illegal store funct3={f3}")
        imm = ((word >> 25) << 5) | ((word >> 7) & 0x1F)
        return Decoded(spec.mnemonic, 0, rs1, rs2, _sign_extend(imm, 12), word)
    if opcode == 0x33:
        spec = _BY_KEY.get((opcode, f3, f7))
        if spec is None:
            raise SimulationError(f"illegal R-type f3={f3} f7={f7:#x}")
        return Decoded(spec.mnemonic, rd, rs1, rs2, 0, word)
    if opcode in (0x03, 0x13, 0x67):
        if opcode == 0x13 and f3 in (1, 5):
            spec = _BY_KEY.get((opcode, f3, f7))
            if spec is None:
                raise SimulationError(f"illegal shift f3={f3} f7={f7:#x}")
            return Decoded(spec.mnemonic, rd, rs1, 0, rs2, word)  # shamt in rs2 slot
        spec = _BY_KEY.get((opcode, f3, None))
        if spec is None:
            raise SimulationError(f"illegal I-type opcode={opcode:#x} f3={f3}")
        return Decoded(spec.mnemonic, rd, rs1, 0, _sign_extend(word >> 20, 12), word)
    raise SimulationError(f"illegal instruction {word:#010x}")
