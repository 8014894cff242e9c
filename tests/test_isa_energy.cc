/**
 * @file
 * ISA and energy-model unit tests: program construction/validation,
 * instruction classification and rendering, and the event-energy
 * arithmetic Figure 9 builds on. Plus the Table/StatSet helpers.
 */
#include <gtest/gtest.h>

#include "common/stats.h"
#include "common/table.h"
#include "energy/energy_model.h"
#include "isa/instruction.h"

namespace caba {
namespace {

TEST(Isa, BuilderProducesValidLoop)
{
    ProgramBuilder pb;
    pb.ldGlobal(1, 0);
    pb.alu(Opcode::AluInt, 2, 1);
    pb.stGlobal(2, 1);
    pb.branchTo(0);
    pb.exit();
    const Program prog = pb.build();
    EXPECT_EQ(prog.size(), 5);
    EXPECT_EQ(prog.numRegs(), 3);
    EXPECT_EQ(prog.at(3).branch_target, 0);
}

TEST(Isa, OpcodeClassification)
{
    EXPECT_TRUE(isAlu(Opcode::AluInt));
    EXPECT_TRUE(isAlu(Opcode::Mov));
    EXPECT_FALSE(isAlu(Opcode::Sfu));
    EXPECT_TRUE(isMem(Opcode::LdShared));
    EXPECT_TRUE(isGlobalMem(Opcode::StGlobal));
    EXPECT_FALSE(isGlobalMem(Opcode::LdShared));
    EXPECT_FALSE(isMem(Opcode::Branch));
}

TEST(Isa, ToStringRendersOperands)
{
    Instruction inst;
    inst.op = Opcode::LdGlobal;
    inst.dst = 3;
    inst.stream = 1;
    EXPECT_EQ(inst.toString(), "ld.global r3 [stream 1]");

    Instruction alu;
    alu.op = Opcode::AluFp;
    alu.dst = 10;
    alu.src0 = 2;
    alu.src1 = 63;
    EXPECT_EQ(alu.toString(), "alu.fp r10, r2, r63");

    Instruction store;
    store.op = Opcode::StGlobal;
    store.src0 = 4;
    store.stream = 0;
    EXPECT_EQ(store.toString(), "st.global r4 [stream 0]");

    Instruction bra;
    bra.op = Opcode::Branch;
    bra.branch_target = 12;
    EXPECT_EQ(bra.toString(), "bra -> 12");
}

TEST(Isa, ValidationCatchesBadBranch)
{
    std::vector<Instruction> code(2);
    code[0].op = Opcode::Branch;
    code[0].branch_target = 99;
    code[1].op = Opcode::Exit;
    EXPECT_DEATH({ Program p(code); (void)p; }, "branch target");
}

TEST(Stats, AddGetMergeRatio)
{
    StatSet a, b;
    a.add("x", 3);
    a.add("x", 2);
    b.add("x", 5);
    b.add("y", 10);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 10u);
    EXPECT_EQ(a.get("y"), 10u);
    EXPECT_EQ(a.get("absent"), 0u); // lint: stat-external negative lookup
    EXPECT_DOUBLE_EQ(a.ratio("x", "y"), 1.0);
    // lint: stat-external division-by-absent returns 0
    EXPECT_DOUBLE_EQ(a.ratio("x", "absent"), 0.0);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"a", "bbbb"});
    t.addRow({"xxxxx", "1"});
    const std::string out = t.render();
    EXPECT_NE(out.find("a      bbbb"), std::string::npos);
    EXPECT_NE(out.find("xxxxx  1"), std::string::npos);
    EXPECT_EQ(Table::num(1.234, 1), "1.2");
    EXPECT_EQ(Table::pct(0.417), "41.7%");
}

TEST(Energy, DramTrafficDominatesForMemoryBoundCounts)
{
    StatSet s;
    s.set("sm_issued_alu", 100000);
    s.set("dram_bursts", 500000);
    s.set("dram_activates", 100000);
    const EnergyBreakdown e = computeEnergy(s, 1000000);
    EXPECT_GT(e.dram, e.core);
    EXPECT_GT(e.total, 0.0);
}

TEST(Energy, FewerBurstsMeanLessEnergy)
{
    StatSet base, comp;
    base.set("dram_bursts", 400000);
    comp.set("dram_bursts", 200000);
    const Cycle cycles = 500000;
    EXPECT_LT(computeEnergy(comp, cycles).total,
              computeEnergy(base, cycles).total);
}

TEST(Energy, ShorterRunsSaveStaticEnergy)
{
    StatSet s;
    EXPECT_LT(computeEnergy(s, 100000).static_energy,
              computeEnergy(s, 200000).static_energy);
}

TEST(Energy, CompressionOverheadsAreCharged)
{
    StatSet with, without;
    with.set("sm_assist_instructions", 100000);
    with.set("part_md_lookups", 50000);
    const Cycle cycles = 100000;
    EXPECT_GT(computeEnergy(with, cycles).compression,
              computeEnergy(without, cycles).compression);
}

TEST(Energy, WattsConversion)
{
    StatSet s;
    s.set("dram_bursts", 1000000);
    const EnergyBreakdown e = computeEnergy(s, 1400000);
    // 1.4M cycles at 1.4GHz = 1ms; watts = (total mJ -> J) / 1ms.
    EXPECT_NEAR(e.watts(1400000), e.total, e.total * 0.01);
}

} // namespace
} // namespace caba
