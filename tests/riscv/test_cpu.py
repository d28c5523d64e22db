"""Unit tests for the RV32IM interpreter."""

import pytest

from repro.errors import SimulationError
from repro.riscv import cycles as cy
from repro.riscv.assembler import assemble
from repro.riscv.cpu import Cpu
from repro.riscv.memory import Memory


def run_program(source, registers=None, max_instructions=100000, memory_size=1 << 16):
    cpu = Cpu(Memory(memory_size))
    prog = assemble(source)
    cpu.load_program(prog.words)
    for index, value in (registers or {}).items():
        cpu.write_register(index, value)
    cpu.run(max_instructions=max_instructions)
    return cpu


class TestArithmetic:
    def test_addi_chain(self):
        cpu = run_program("addi a0, zero, 5\naddi a0, a0, 7\nebreak")
        assert cpu.read_register(10) == 12

    def test_sub_wraps(self):
        cpu = run_program("li a0, 0\nli a1, 1\nsub a2, a0, a1\nebreak")
        assert cpu.read_register(12) == 0xFFFFFFFF

    def test_x0_never_written(self):
        cpu = run_program("addi zero, zero, 5\nebreak")
        assert cpu.read_register(0) == 0

    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("and", 0b1100, 0b1010, 0b1000),
            ("or", 0b1100, 0b1010, 0b1110),
            ("xor", 0b1100, 0b1010, 0b0110),
            ("sll", 1, 5, 32),
            ("srl", 0x80000000, 4, 0x08000000),
            ("sra", 0x80000000, 4, 0xF8000000),
            ("slt", 0xFFFFFFFF, 1, 1),  # -1 < 1 signed
            ("sltu", 0xFFFFFFFF, 1, 0),  # huge unsigned
        ],
    )
    def test_rtype_ops(self, op, a, b, expected):
        cpu = run_program(
            f"{op} a2, a0, a1\nebreak", registers={10: a, 11: b}
        )
        assert cpu.read_register(12) == expected

    def test_shift_amount_masked_to_5_bits(self):
        cpu = run_program("sll a2, a0, a1\nebreak", registers={10: 1, 11: 33})
        assert cpu.read_register(12) == 2

    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("mul", 7, 6, 42),
            ("mul", 0xFFFFFFFF, 0xFFFFFFFF, 1),  # (-1)*(-1)
            ("mulh", 0xFFFFFFFF, 0xFFFFFFFF, 0),  # high of 1
            ("mulhu", 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFE),
            ("mulhsu", 0xFFFFFFFF, 2, 0xFFFFFFFF),  # -1 * 2 = -2, high = -1
            ("div", 7, 2, 3),
            ("div", 0xFFFFFFF9, 2, 0xFFFFFFFD),  # -7 / 2 = -3 (trunc)
            ("divu", 7, 2, 3),
            ("rem", 0xFFFFFFF9, 2, 0xFFFFFFFF),  # -7 % 2 = -1 (trunc)
            ("remu", 7, 2, 1),
            ("div", 5, 0, 0xFFFFFFFF),  # div by zero per spec
            ("rem", 5, 0, 5),
            ("div", 0x80000000, 0xFFFFFFFF, 0x80000000),  # overflow case
            ("rem", 0x80000000, 0xFFFFFFFF, 0),
        ],
    )
    def test_m_extension(self, op, a, b, expected):
        cpu = run_program(f"{op} a2, a0, a1\nebreak", registers={10: a, 11: b})
        assert cpu.read_register(12) == expected


class TestControlFlow:
    def test_loop_countdown(self):
        cpu = run_program(
            """
                li   t0, 10
                li   t1, 0
            loop:
                addi t1, t1, 3
                addi t0, t0, -1
                bnez t0, loop
                ebreak
            """
        )
        assert cpu.read_register(6) == 30

    def test_jal_links_return_address(self):
        cpu = run_program(
            """
                call fn
                ebreak
            fn:
                li a0, 99
                ret
            """
        )
        assert cpu.read_register(10) == 99

    def test_branch_cycle_asymmetry(self):
        taken = run_program("x:\n beq zero, zero, y\ny:\n ebreak")
        not_taken = run_program("bne zero, zero, y\ny:\n ebreak")
        assert taken.cycle_count > not_taken.cycle_count

    def test_runaway_budget(self):
        with pytest.raises(SimulationError):
            run_program("x:\n j x\n ebreak", max_instructions=100)


class TestMemoryOps:
    def test_store_load_word(self):
        cpu = run_program(
            """
                li   t0, 0x8000
                li   t1, 0x12345678
                sw   t1, 0(t0)
                lw   a0, 0(t0)
                ebreak
            """
        )
        assert cpu.read_register(10) == 0x12345678

    def test_byte_sign_extension(self):
        cpu = run_program(
            """
                li  t0, 0x8000
                li  t1, 0xFF
                sb  t1, 0(t0)
                lb  a0, 0(t0)
                lbu a1, 0(t0)
                ebreak
            """
        )
        assert cpu.read_register(10) == 0xFFFFFFFF
        assert cpu.read_register(11) == 0xFF

    def test_half_sign_extension(self):
        cpu = run_program(
            """
                li  t0, 0x8000
                li  t1, 0x8001
                sh  t1, 0(t0)
                lh  a0, 0(t0)
                lhu a1, 0(t0)
                ebreak
            """
        )
        assert cpu.read_register(10) == 0xFFFF8001
        assert cpu.read_register(11) == 0x8001

    def test_misaligned_word_faults(self):
        with pytest.raises(SimulationError):
            run_program("li t0, 0x8002\nlw a0, 0(t0)\nebreak")

    def test_out_of_range_faults(self):
        with pytest.raises(SimulationError):
            run_program("li t0, 0x7FFFFFF0\nlw a0, 0(t0)\nebreak")

    def test_read_words_matches_word_loads(self):
        memory = Memory(64)
        for i in range(16):
            memory.store_word(4 * i, 0x01010101 * i + 0x80000000 * (i & 1))

        def word_loop(address, count):
            return [memory.load_word(address + 4 * i) for i in range(count)]

        for address, count in [(0, 16), (8, 5), (60, 1), (4, 0), (4, -1)]:
            assert memory.read_words(address, count) == word_loop(address, count)
        for address, count in [(56, 3), (64, 1), (2, 2), (-4, 2)]:
            with pytest.raises(SimulationError) as expected:
                word_loop(address, count)
            with pytest.raises(SimulationError) as got:
                memory.read_words(address, count)
            assert str(got.value) == str(expected.value)


class TestEvents:
    def test_event_count_matches_instructions(self):
        cpu = run_program("addi a0, zero, 1\naddi a0, a0, 1\nebreak")
        assert len(cpu.events) == cpu.instruction_count == 3

    def test_events_disabled(self):
        cpu = Cpu(Memory(1 << 16), record_events=False)
        prog = assemble("addi a0, zero, 1\nebreak")
        cpu.load_program(prog.words)
        cpu.run()
        assert cpu.events == []
        assert cpu.instruction_count == 2

    def test_event_classes(self):
        cpu = run_program(
            """
                li  t0, 0x8000
                mul t1, t0, t0
                sw  t1, 0(t0)
                lw  t2, 0(t0)
                ebreak
            """
        )
        classes = [e.op_class for e in cpu.events]
        assert cy.OP_MUL in classes
        assert cy.OP_STORE in classes
        assert cy.OP_LOAD in classes
        assert classes[-1] == cy.OP_SYSTEM

    def test_event_carries_operands_and_result(self):
        cpu = run_program("addi a0, zero, 5\nadd a1, a0, a0\nebreak")
        add_event = cpu.events[1]
        assert add_event.rs1_value == 5
        assert add_event.rs2_value == 5
        assert add_event.result == 10

    def test_store_event_has_address_and_data(self):
        cpu = run_program(
            "li t0, 0x8000\nli t1, 7\nsw t1, 4(t0)\nebreak"
        )
        store = [e for e in cpu.events if e.op_class == cy.OP_STORE][0]
        assert store.address == 0x8004
        assert store.result == 7

    def test_cycle_count_accumulates(self):
        cpu = run_program("mul t0, t0, t0\nebreak")
        assert cpu.cycle_count == cy.CYCLES[cy.OP_MUL] + cy.CYCLES[cy.OP_SYSTEM]


class TestEventStorageConsistency:
    """Regressions for stale event buffers around reset / disable."""

    def test_disabling_recording_drops_stale_events(self):
        cpu = run_program("addi a0, zero, 1\nebreak")
        assert len(cpu.events) > 0
        cpu.record_events = False
        assert cpu.events == []

    def test_reload_clears_previous_run_events(self):
        cpu = run_program("addi a0, zero, 1\naddi a0, a0, 1\nebreak")
        first_run = len(cpu.events)
        assert first_run == 3
        prog = assemble("ebreak")
        cpu.load_program(prog.words)
        assert cpu.events == []
        cpu.run()
        assert len(cpu.events) == 1

    def test_no_events_accumulate_while_disabled(self):
        cpu = Cpu(Memory(1 << 16), record_events=False)
        prog = assemble("addi a0, zero, 1\nebreak")
        cpu.load_program(prog.words)
        cpu.run()
        cpu.record_events = True
        assert cpu.events == []

    def test_reenabling_starts_fresh(self):
        cpu = run_program("addi a0, zero, 1\nebreak")
        cpu.record_events = False
        cpu.record_events = True
        assert cpu.events == []
        prog = assemble("addi a0, zero, 2\nebreak")
        cpu.load_program(prog.words)
        cpu.run()
        assert len(cpu.events) == 2
        assert cpu.events[0].rs2_value == 0

    def test_event_log_slicing_and_iteration(self):
        cpu = run_program("addi a0, zero, 1\naddi a0, a0, 1\nebreak")
        events = cpu.events
        as_list = list(events)
        assert len(as_list) == 3
        assert events[0] == as_list[0]
        assert events[-1].op_class == cy.OP_SYSTEM
        assert events[0:2] == as_list[0:2]
        assert events == as_list


class TestLoadProgram:
    def test_image_matches_word_stores(self):
        words = [0x00100073, 0xFFFFFFFF, -1, 1 << 33 | 5]
        blit, stored = Memory(64), Memory(64)
        blit.load_program(words, 8)
        for i, word in enumerate(words):
            stored.store_word(8 + 4 * i, word)
        assert blit.read_words(0, 16) == stored.read_words(0, 16)

    def test_program_changed_in_place_reloads_new_words(self):
        words = [1, 2, 3]
        memory = Memory(64)
        memory.load_program(words, 0)
        words[1] = 7
        memory.load_program(words, 0)
        assert memory.read_words(0, 3) == [1, 7, 3]

    @pytest.mark.parametrize("base", [2, 60, -4])
    def test_misaligned_or_out_of_range_faults_after_prefix(self, base):
        memory = Memory(64)
        with pytest.raises(SimulationError):
            memory.load_program([0x11, 0x22], base)
        if base == 60:  # the first word fits and is written
            assert memory.load_word(60) == 0x11
