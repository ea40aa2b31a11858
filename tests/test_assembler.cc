/**
 * @file
 * Tests for the text assembler, the code builder, and program images.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "isa/builder.hh"
#include "isa/disasm.hh"

namespace rbsim
{
namespace
{

TEST(Assembler, BasicProgram)
{
    const Program p = assemble(R"(
        .name demo
        ; a comment
        start:
            ldiq r1, 10
            addq r1, r1, r2
            subq r2, #3, r2   # another comment
            halt
    )");
    EXPECT_EQ(p.name, "demo");
    ASSERT_EQ(p.code.size(), 4u);
    EXPECT_EQ(p.code[0].op, Opcode::LDIQ);
    EXPECT_EQ(p.code[0].imm64, 10);
    EXPECT_EQ(p.code[1].op, Opcode::ADDQ);
    EXPECT_TRUE(p.code[2].useLit);
    EXPECT_EQ(p.code[2].lit, 3);
    EXPECT_EQ(p.code[3].op, Opcode::HALT);
}

TEST(Assembler, BranchDisplacementsResolve)
{
    const Program p = assemble(R"(
        top:
            subq r1, #1, r1
            bne r1, top
            br end
            nop
        end:
            halt
    )");
    ASSERT_EQ(p.code.size(), 5u);
    EXPECT_EQ(p.code[1].disp, -2);  // bne at 1 -> target 0
    EXPECT_EQ(p.code[2].disp, 1);   // br at 2 -> target 4
}

TEST(Assembler, ForwardAndBackwardLabels)
{
    const Program p = assemble(R"(
        a:  br b
        b:  br a
    )");
    EXPECT_EQ(p.code[0].disp, 0);
    EXPECT_EQ(p.code[1].disp, -2);
}

TEST(Assembler, MemoryOperands)
{
    const Program p = assemble(R"(
        ldq r1, 8(r2)
        stl r3, -4(r4)
        lda r5, 100(r6)
        ldah r7, 2(r31)
    )");
    EXPECT_EQ(p.code[0].disp, 8);
    EXPECT_EQ(p.code[0].ra, 1u);
    EXPECT_EQ(p.code[0].rb, 2u);
    EXPECT_EQ(p.code[1].disp, -4);
    EXPECT_EQ(p.code[2].disp, 100);
    EXPECT_EQ(p.code[3].rb, 31u);
}

TEST(Assembler, DataDirectives)
{
    const Program p = assemble(R"(
        .org 0x30000
        .quad 1, 2, 3
        .quad -1
        halt
    )");
    // Each `.quad` line continues where the last one ended.
    ASSERT_EQ(p.image.size(), 1u);
    const Page &page = *p.image.at(0x30000 >> pageShift);
    EXPECT_EQ(page[0x00], 1u);
    EXPECT_EQ(page[0x08], 2u);
    EXPECT_EQ(page[0x10], 3u);
    EXPECT_EQ(page[0x18], 0xffu);
    EXPECT_EQ(page[0x1f], 0xffu);
    EXPECT_EQ(page[0x20], 0u);
}

TEST(Assembler, EntryDirective)
{
    const Program p = assemble(R"(
        .entry main
            nop
        main:
            halt
    )");
    EXPECT_EQ(p.entry, 1u);
}

TEST(Assembler, PseudoOps)
{
    const Program p = assemble(R"(
        mov r1, r2
        ret r26
    )");
    EXPECT_EQ(p.code[0].op, Opcode::BIS);
    EXPECT_EQ(p.code[0].ra, 1u);
    EXPECT_EQ(p.code[0].rb, 1u);
    EXPECT_EQ(p.code[0].rc, 2u);
    EXPECT_EQ(p.code[1].op, Opcode::JMP);
    EXPECT_EQ(p.code[1].ra, 31u);
    EXPECT_EQ(p.code[1].rb, 26u);
}

TEST(Assembler, ErrorsCarryLineNumbers)
{
    EXPECT_THROW(assemble("bogus r1, r2, r3"), AsmError);
    EXPECT_THROW(assemble("addq r1, r2"), AsmError);
    EXPECT_THROW(assemble("addq r1, r2, r99"), AsmError);
    EXPECT_THROW(assemble("br nowhere"), AsmError);
    EXPECT_THROW(assemble("addq r1, #999, r3"), AsmError);
    try {
        assemble("nop\nnop\nbadop r1");
        FAIL() << "expected AsmError";
    } catch (const AsmError &e) {
        EXPECT_EQ(e.line(), 3u);
    }
}

TEST(Builder, EmitsAndPatchesLabels)
{
    CodeBuilder cb("kernel");
    const Label loop = cb.newLabel();
    cb.ldiq(R(1), 5);
    cb.bind(loop);
    cb.opi(Opcode::SUBQ, R(1), 1, R(1));
    cb.branch(Opcode::BNE, R(1), loop);
    cb.halt();
    const Program p = cb.finish();
    ASSERT_EQ(p.code.size(), 4u);
    EXPECT_EQ(p.code[2].disp, -2);
    EXPECT_EQ(p.name, "kernel");
}

TEST(Builder, DataWordsLandLittleEndian)
{
    CodeBuilder cb("d");
    cb.dataWords(0x40000, {0x1122334455667788ull});
    cb.halt();
    const Program p = cb.finish();
    ASSERT_EQ(p.image.size(), 1u);
    const Page &page = *p.image.at(0x40000 >> pageShift);
    EXPECT_EQ(page[0], 0x88u);
    EXPECT_EQ(page[7], 0x11u);
}

TEST(Builder, DisassemblerRoundTripThroughAssembler)
{
    CodeBuilder cb("rt");
    cb.op3(Opcode::ADDQ, R(1), R(2), R(3));
    cb.opi(Opcode::CMPLT, R(3), 10, R(4));
    cb.load(Opcode::LDQ, R(5), 24, R(6));
    cb.store(Opcode::STQ, R(5), 0, R(6));
    cb.halt();
    const Program p = cb.finish();
    std::string text;
    for (const Inst &inst : p.code)
        text += disassemble(inst) + "\n";
    const Program p2 = assemble(text);
    ASSERT_EQ(p2.code.size(), p.code.size());
    for (std::size_t i = 0; i < p.code.size(); ++i)
        EXPECT_TRUE(p.code[i] == p2.code[i]) << i;
}

} // namespace
} // namespace rbsim
