/**
 * @file
 * Workload layer tests: occupancy math (Figure 2 machinery), program
 * construction, address-stream behaviour (coalescing, grid-stride,
 * footprint wrap), and the application pool's structural invariants.
 */
#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "compress/registry.h"
#include "workloads/occupancy.h"
#include "workloads/workload.h"

namespace caba {
namespace {

TEST(Occupancy, RegisterLimited)
{
    OccupancyParams p;
    p.regs_per_thread = 32;
    p.threads_per_block = 256;
    const OccupancyResult r = computeOccupancy(p);
    // 256*32 = 8192 regs/block; 32768/8192 = 4 blocks.
    EXPECT_EQ(r.blocks_per_sm, 4);
    EXPECT_EQ(r.warps_per_sm, 32);
    EXPECT_NEAR(r.unallocated_reg_fraction, 0.0, 1e-9);
}

TEST(Occupancy, ThreadLimited)
{
    OccupancyParams p;
    p.regs_per_thread = 16;
    p.threads_per_block = 512;
    const OccupancyResult r = computeOccupancy(p);
    // Thread limit: 1536/512 = 3 blocks; registers would allow 4.
    EXPECT_EQ(r.blocks_per_sm, 3);
    EXPECT_NEAR(r.unallocated_reg_fraction, 0.25, 1e-9);
}

TEST(Occupancy, BlockLimited)
{
    OccupancyParams p;
    p.regs_per_thread = 20;
    p.threads_per_block = 96;
    const OccupancyResult r = computeOccupancy(p);
    EXPECT_EQ(r.blocks_per_sm, 8);      // hard block limit
    EXPECT_GT(r.unallocated_reg_fraction, 0.5);
}

TEST(Occupancy, AssistRegistersMayFitFreePool)
{
    OccupancyParams p;
    p.regs_per_thread = 16;
    p.threads_per_block = 512;
    p.assist_regs_per_thread = 2;
    const OccupancyResult r = computeOccupancy(p);
    // 3 blocks * 512 * 18 = 27648 <= 32768: still 3 blocks.
    EXPECT_EQ(r.blocks_per_sm, 3);
    EXPECT_TRUE(r.assist_fits_free);
}

TEST(Occupancy, AssistRegistersMayCostABlock)
{
    OccupancyParams p;
    p.regs_per_thread = 32;     // exactly 4 blocks at 256 threads
    p.threads_per_block = 256;
    p.assist_regs_per_thread = 2;
    const OccupancyResult r = computeOccupancy(p);
    EXPECT_EQ(r.blocks_per_sm, 3);
    EXPECT_FALSE(r.assist_fits_free);
}

TEST(Workload, ProgramIsWellFormed)
{
    for (const AppDescriptor &app : allApps()) {
        Workload wl(app);
        const Program &prog = wl.program();
        EXPECT_GT(prog.size(), 2) << app.name;
        EXPECT_LE(prog.numRegs(), 64) << app.name;
        // Mix matches the descriptor.
        int loads = 0, stores = 0, alu = 0, sfu = 0;
        for (const Instruction &inst : prog.instructions()) {
            loads += inst.op == Opcode::LdGlobal;
            stores += inst.op == Opcode::StGlobal;
            alu += inst.op == Opcode::AluInt || inst.op == Opcode::AluFp;
            sfu += inst.op == Opcode::Sfu;
        }
        EXPECT_EQ(loads, app.loads) << app.name;
        EXPECT_EQ(stores, app.stores) << app.name;
        EXPECT_EQ(alu, app.alu) << app.name;
        EXPECT_EQ(sfu, app.sfu) << app.name;
    }
}

TEST(Workload, StreamingAccessesAreFullyCoalesced)
{
    Workload wl(findApp("CONS"));   // 4B streaming
    MemAccess acc;
    wl.genLines(0, 0, 0, &acc);
    // 32 lanes x 4B = 128B = exactly one line.
    EXPECT_EQ(acc.lines.size(), 1u);
    EXPECT_TRUE(acc.full_line);
}

TEST(Workload, IrregularAccessesScatter)
{
    Workload wl(findApp("bfs"));
    MemAccess acc;
    wl.genLines(0, 0, 0, &acc);
    EXPECT_GT(acc.lines.size(), 8u);    // most lanes hit distinct lines
    EXPECT_FALSE(acc.full_line);
}

TEST(Workload, GridStrideMakesNeighborsAdjacent)
{
    Workload wl(findApp("CONS"));
    wl.bindGrid(720);
    MemAccess a0, a1;
    wl.genLines(0, 0, 0, &a0);
    wl.genLines(0, 1, 0, &a1);
    ASSERT_EQ(a0.lines.size(), 1u);
    ASSERT_EQ(a1.lines.size(), 1u);
    EXPECT_EQ(a1.lines[0], a0.lines[0] + kLineSize);
}

TEST(Workload, FootprintWrapsAddresses)
{
    AppDescriptor app = findApp("CONS");
    app.footprint = 64 * kLineSize;
    Workload wl(app);
    wl.bindGrid(720);
    std::set<Addr> lines;
    MemAccess acc;
    for (int iter = 0; iter < app.iterations; ++iter) {
        for (int w = 0; w < 720; w += 37) {
            wl.genLines(0, w, iter, &acc);
            lines.insert(acc.lines.begin(), acc.lines.end());
        }
    }
    EXPECT_LE(lines.size(), 64u);
}

TEST(Workload, LinesAreDeduplicated)
{
    for (const AppDescriptor &app : allApps()) {
        Workload wl(app);
        MemAccess acc;
        wl.genLines(0, 5, 3, &acc);
        std::set<Addr> uniq(acc.lines.begin(), acc.lines.end());
        EXPECT_EQ(uniq.size(), acc.lines.size()) << app.name;
        for (Addr l : acc.lines)
            EXPECT_EQ(l % kLineSize, 0u) << app.name;
    }
}

TEST(Workload, StoresAndLoadsUseDisjointRegions)
{
    Workload wl(findApp("PVC"));
    MemAccess ld, st;
    wl.genLines(0, 0, 0, &ld);
    wl.genLines(findApp("PVC").loads, 0, 0, &st);   // first store stream
    for (Addr a : ld.lines)
        for (Addr b : st.lines)
            EXPECT_NE(a, b);
}

TEST(AppPool, StructuralInvariants)
{
    int fig1 = 0, fig1_mem = 0, compression = 0;
    std::set<std::string> names;
    for (const AppDescriptor &app : allApps()) {
        EXPECT_TRUE(names.insert(app.name).second) << "duplicate name";
        fig1 += app.in_fig1;
        fig1_mem += app.in_fig1 && app.memory_bound;
        compression += app.in_compression;
        EXPECT_GT(app.loads + app.alu + app.sfu, 0) << app.name;
        EXPECT_GT(app.iterations, 0) << app.name;
    }
    // Paper Section 2: 27 apps in Figure 1, 17 of them memory-bound.
    EXPECT_EQ(fig1, 27);
    EXPECT_EQ(fig1_mem, 17);
    // Paper Section 5: 20 apps in the compression study.
    EXPECT_EQ(compression, 20);
}

TEST(AppPool, IncompressibleAppsExcludedFromStudy)
{
    EXPECT_FALSE(findApp("sc").in_compression);
    EXPECT_FALSE(findApp("SCP").in_compression);
}

TEST(Workload, OutputLinesAreCompressible)
{
    // Store data must follow the app's profile, not noise: PVC output
    // lines should compress well under BDI.
    Workload wl(findApp("PVC"));
    std::uint8_t line[kLineSize];
    std::uint64_t bytes = 0;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
        wl.outputLine(static_cast<Addr>(i) * kLineSize, line);
        bytes += static_cast<std::uint64_t>(
            getCodec(Algorithm::Bdi).compress(line).size());
    }
    EXPECT_LT(static_cast<double>(bytes) / n, 0.8 * kLineSize);
}

TEST(Workload, ScaleClampRunsOneTripAndNotesItOnce)
{
    // No other test in this binary scales an app below one trip, so
    // this is the process's first clamp.
    testing::internal::CaptureStderr();
    const Workload pvc(findApp("PVC"), 0.001);
    const Workload cons(findApp("CONS"), 0.001);
    const Workload kept(findApp("PVC"), 0.5);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(pvc.iterations(0), 1);
    EXPECT_EQ(cons.iterations(0), 1);
    EXPECT_EQ(kept.iterations(0), 8);
    EXPECT_NE(err.find("PVC: 16 loop trips x scale 0.001 rounds to 0; "
                       "running 1"),
              std::string::npos)
        << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
}

} // namespace
} // namespace caba
