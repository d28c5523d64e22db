/* The compiled RV32IM engine's interpreter core (repro.riscv.compiled).

   Built into the native backend's one cffi module after the generated
   prelude (repro.backends.native), which defines the op classes OP_*,
   their cycle costs op_cycles[] and the STATUS_* return codes. */
#include <stdint.h>
#include <string.h>
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the compiled RV32IM engine requires a little-endian host"
#endif

/* Sign-extended immediates of the I, S, B and J formats. */
#define IMM_I(w) ((uint32_t)((int32_t)(w) >> 20))
#define IMM_S(w) ((uint32_t)((int32_t)((w) & 0xFE000000u) >> 20) \
                  | (((w) >> 7) & 0x1Fu))
#define IMM_B(w) ((uint32_t)((int32_t)((w) & 0x80000000u) >> 19) \
                  | (((w) & 0x80u) << 4) | (((w) >> 20) & 0x7E0u) \
                  | (((w) >> 7) & 0x1Eu))
#define IMM_J(w) ((uint32_t)((int32_t)((w) & 0x80000000u) >> 11) \
                  | ((w) & 0xFF000u) | (((w) >> 9) & 0x800u) \
                  | (((w) >> 20) & 0x7FEu))

/* Run until halt, a full event buffer, or an instruction this core does
   not retire itself (budget line, fault, undecodable word).  Nothing of
   that last instruction is committed. */
int reveal_run(int64_t *st, uint32_t *R, uint8_t *mem, int64_t *ev)
{
    uint64_t pc = (uint64_t)st[0];
    int64_t cycles = st[1], icount = st[2], executed = st[3];
    const int64_t budget = st[4], cap = st[6];
    int64_t el = st[5];
    const uint64_t msz = (uint64_t)st[8];
    /* A fetch must end inside memory and leave pc + 4 below 2^32. */
    const uint64_t fetch_end = msz < 0xFFFFFFFFu ? msz : 0xFFFFFFFFu;
    int status;

    if (st[7])
        return STATUS_HALT;
    for (;;) {
        if (executed >= budget || (pc & 3u) || pc + 4u > fetch_end) {
            status = STATUS_STOP;
            break;
        }
        if (ev && el >= cap) {
            status = STATUS_EVENTS;
            break;
        }
        /* decode */
        uint32_t w;
        memcpy(&w, mem + pc, 4);
        const uint32_t rd = (w >> 7) & 31u, f3 = (w >> 12) & 7u;
        const uint32_t rs1 = (w >> 15) & 31u, rs2 = (w >> 20) & 31u;
        const uint32_t f7 = w >> 25;
        const uint32_t a = R[rs1], b = R[rs2];
        /* Event operands, destination, result, address, op class. */
        uint32_t ea = a, eb = 0, dst = rd, res = 0, addr = 0;
        uint64_t npc = pc + 4u;
        int op = OP_ALU;

        switch (w & 0x7Fu) {
        case 0x37: /* lui */
            ea = 0;
            res = w & 0xFFFFF000u;
            break;
        case 0x17: /* auipc */
            ea = 0;
            res = (uint32_t)pc + (w & 0xFFFFF000u);
            break;
        case 0x6F: /* jal */
            ea = 0;
            res = (uint32_t)npc;
            npc = (uint32_t)pc + IMM_J(w);
            op = OP_JUMP;
            break;
        case 0x67: /* jalr */
            if (f3) goto stop;
            res = (uint32_t)npc;
            npc = (a + IMM_I(w)) & 0xFFFFFFFEu;
            op = OP_JUMP;
            break;
        case 0x73: /* ebreak / ecall */
            if (w != 0x00100073u && w != 0x00000073u) goto stop;
            ea = 0;
            dst = 0;
            op = OP_SYSTEM;
            break;
        case 0x63: { /* branch */
            int taken;
            switch (f3) {
            case 0: taken = a == b; break;
            case 1: taken = a != b; break;
            case 4: taken = (int32_t)a < (int32_t)b; break;
            case 5: taken = (int32_t)a >= (int32_t)b; break;
            case 6: taken = a < b; break;
            case 7: taken = a >= b; break;
            default: goto stop;
            }
            eb = b;
            dst = 0;
            if (taken) {
                npc = (uint32_t)pc + IMM_B(w);
                op = OP_BRANCH_TAKEN;
            } else {
                op = OP_BRANCH_NOT_TAKEN;
            }
            res = (uint32_t)npc;
            break;
        }
        case 0x03: { /* load */
            static const uint32_t widths[8] = {1, 2, 4, 0, 1, 2, 0, 0};
            const uint32_t width = widths[f3];
            addr = a + IMM_I(w);
            if (!width || (uint64_t)addr + width > msz || (addr & (width - 1u)))
                goto stop;
            switch (f3) {
            case 0: res = (uint32_t)(int32_t)(int8_t)mem[addr]; break;
            case 1: { int16_t h; memcpy(&h, mem + addr, 2);
                      res = (uint32_t)(int32_t)h; break; }
            case 2: memcpy(&res, mem + addr, 4); break;
            case 4: res = mem[addr]; break;
            default: { uint16_t h; memcpy(&h, mem + addr, 2);
                       res = h; break; }
            }
            op = OP_LOAD;
            break;
        }
        case 0x23: { /* store */
            if (f3 > 2) goto stop;
            const uint32_t width = 1u << f3;
            addr = a + IMM_S(w);
            if ((uint64_t)addr + width > msz || (addr & (width - 1u)))
                goto stop;
            if (f3 == 0) {
                mem[addr] = (uint8_t)b;
                res = b & 0xFFu;
            } else if (f3 == 1) {
                const uint16_t h = (uint16_t)b;
                memcpy(mem + addr, &h, 2);
                res = b & 0xFFFFu;
            } else {
                memcpy(mem + addr, &b, 4);
                res = b;
            }
            eb = b;
            dst = 0;
            op = OP_STORE;
            break;
        }
        case 0x13: { /* ALU immediate */
            const uint32_t imm = IMM_I(w);
            switch (f3) {
            case 0: res = a + imm; break;
            case 1: if (f7) goto stop; res = a << rs2; break;
            case 2: res = (int32_t)a < (int32_t)imm; break;
            case 3: res = a < imm; break;
            case 4: res = a ^ imm; break;
            case 5:
                if (f7 == 0x00) res = a >> rs2;
                else if (f7 == 0x20) res = (uint32_t)((int32_t)a >> rs2);
                else goto stop;
                break;
            case 6: res = a | imm; break;
            default: res = a & imm; break;
            }
            break;
        }
        case 0x33: /* ALU register */
            eb = b;
            if (f7 == 0x00) {
                switch (f3) {
                case 0: res = a + b; break;
                case 1: res = a << (b & 31u); break;
                case 2: res = (int32_t)a < (int32_t)b; break;
                case 3: res = a < b; break;
                case 4: res = a ^ b; break;
                case 5: res = a >> (b & 31u); break;
                case 6: res = a | b; break;
                default: res = a & b; break;
                }
            } else if (f7 == 0x20 && f3 == 0) {
                res = a - b;
            } else if (f7 == 0x20 && f3 == 5) {
                res = (uint32_t)((int32_t)a >> (b & 31u));
            } else if (f7 == 0x01) {
                const int32_t sa = (int32_t)a, sb = (int32_t)b;
                op = f3 < 4 ? OP_MUL : OP_DIV;
                switch (f3) {
                case 0: res = a * b; break;
                case 1: res = (uint32_t)(((int64_t)sa * sb) >> 32); break;
                case 2: res = (uint32_t)(((int64_t)sa * (int64_t)b) >> 32); break;
                case 3: res = (uint32_t)(((uint64_t)a * b) >> 32); break;
                case 4:
                    if (sb == 0) res = 0xFFFFFFFFu;
                    else if (a == 0x80000000u && sb == -1) res = a;
                    else res = (uint32_t)(sa / sb);
                    break;
                case 5: res = b ? a / b : 0xFFFFFFFFu; break;
                case 6:
                    if (sb == 0) res = a;
                    else if (a == 0x80000000u && sb == -1) res = 0;
                    else res = (uint32_t)(sa % sb);
                    break;
                default: res = b ? a % b : a; break;
                }
            } else {
                goto stop;
            }
            break;
        default:
            goto stop;
        }

        /* retire */
        if (ev) {
            int64_t *e = ev + el * 8;
            e[0] = op; e[1] = w; e[2] = ea; e[3] = eb;
            e[4] = res; e[5] = R[dst]; e[6] = addr; e[7] = (int64_t)pc;
            el++;
        }
        if (dst)
            R[dst] = res;
        cycles += op_cycles[op];
        icount++;
        executed++;
        pc = npc;
        if (op == OP_SYSTEM) {
            st[7] = 1;
            status = STATUS_HALT;
            break;
        }
        continue;
    stop:
        status = STATUS_STOP;
        break;
    }
    st[0] = (int64_t)pc;
    st[1] = cycles;
    st[2] = icount;
    st[3] = executed;
    st[5] = el;
    return status;
}
