/**
 * @file
 * Audit-layer tests: the mutation self-test (each seeded bookkeeping
 * fault must trip the audit), the zero-perturbation guarantee (RunResult
 * bit-identical with audits off vs. per-N-cycles), CABA_AUDIT spec
 * parsing, and the fatal-mode panic path.
 */
#include <gtest/gtest.h>

#include "gpu/gpu_system.h"
#include "harness/runner.h"

namespace caba {
namespace {

AppDescriptor
tinyApp()
{
    // CONS issues both loads and stores, so every fault site (store
    // packet, read bursts, load slot) sees traffic.
    AppDescriptor app = findApp("CONS");
    app.iterations = 8;
    app.footprint = 2ull << 20;
    return app;
}

GpuConfig
auditedConfig(AuditLevel level, Cycle period = 256)
{
    GpuConfig cfg;
    cfg.audit.level = level;
    cfg.audit.period = period;
    cfg.audit.fatal = false;    // collect failures, don't abort
    cfg.audit.ignore_env = true;
    return cfg;
}

struct AuditedRun
{
    RunResult result;
    std::vector<std::string> failures;
};

AuditedRun
runAudited(const GpuConfig &cfg, const AuditFault *fault = nullptr,
           int warps = 12)
{
    Workload wl(tinyApp());
    wl.bindGrid(warps * cfg.num_sms);
    GpuSystem gpu(cfg, DesignConfig::caba(), wl.lineGenerator());
    gpu.launch(&wl, warps);
    if (fault)
        gpu.injectFault(*fault);
    AuditedRun r;
    r.result = gpu.run();
    r.failures = gpu.auditFailures();
    return r;
}

TEST(Audit, CleanRunPassesEveryPeriodicCheck)
{
    const AuditedRun r =
        runAudited(auditedConfig(AuditLevel::Periodic, 64));
    for (const std::string &f : r.failures)
        ADD_FAILURE() << f;
    EXPECT_TRUE(r.failures.empty());
    EXPECT_GT(r.result.cycles, 0u);
}

// The mutation self-test proper: each seeded silent fault simulates a
// real bookkeeping-bug class and the audit must flag it. A fault that
// sails through would mean the corresponding invariant is vacuous.

TEST(Audit, DetectsDroppedStorePacket)
{
    const AuditFault fault = AuditFault::DropStorePacket;
    const AuditedRun r =
        runAudited(auditedConfig(AuditLevel::EndOfRun), &fault);
    ASSERT_FALSE(r.failures.empty());
    // The lost store shows up both as a crossbar conservation breach
    // and as an orphan in the request lifecycle table.
    bool lifecycle = false;
    for (const std::string &f : r.failures)
        lifecycle = lifecycle || f.find("orphan") != std::string::npos;
    EXPECT_TRUE(lifecycle);
}

TEST(Audit, DetectsDoubleCountedBurst)
{
    const AuditFault fault = AuditFault::DoubleCountBurst;
    const AuditedRun r =
        runAudited(auditedConfig(AuditLevel::EndOfRun), &fault);
    ASSERT_FALSE(r.failures.empty());
    bool ledger = false;
    for (const std::string &f : r.failures)
        ledger = ledger || f.find("transfer bursts") != std::string::npos;
    EXPECT_TRUE(ledger);
}

TEST(Audit, DetectsLeakedLoadSlot)
{
    const AuditFault fault = AuditFault::LeakLoadSlot;
    const AuditedRun r =
        runAudited(auditedConfig(AuditLevel::EndOfRun), &fault);
    EXPECT_FALSE(r.failures.empty());
}

TEST(Audit, DetectsSkewedDramBankTally)
{
    // The skewed tally never changes the schedule, so the run drains
    // normally; only the recount of the DRAM queues can see it.
    const AuditFault fault = AuditFault::SkewDramBankCount;
    const AuditedRun r =
        runAudited(auditedConfig(AuditLevel::EndOfRun), &fault);
    ASSERT_FALSE(r.failures.empty());
    bool tallies = false;
    for (const std::string &f : r.failures)
        tallies = tallies || f.find("queued/open_hits") != std::string::npos;
    EXPECT_TRUE(tallies);
    const AuditedRun clean = runAudited(auditedConfig(AuditLevel::EndOfRun));
    EXPECT_TRUE(clean.failures.empty());
    EXPECT_EQ(r.result.cycles, clean.result.cycles);
}

TEST(Audit, PeriodicChecksAlsoCatchFaults)
{
    // The same fault must be visible to the in-flight checker, not just
    // the drain-time one (a leaked slot is live state, not a stat).
    const AuditFault fault = AuditFault::LeakLoadSlot;
    const AuditedRun r =
        runAudited(auditedConfig(AuditLevel::Periodic, 64), &fault);
    EXPECT_FALSE(r.failures.empty());
}

TEST(Audit, ResultsBitIdenticalWithAuditsOnOrOff)
{
    const AuditedRun off = runAudited(auditedConfig(AuditLevel::Off));
    const AuditedRun on =
        runAudited(auditedConfig(AuditLevel::Periodic, 128));
    EXPECT_TRUE(on.failures.empty());
    EXPECT_EQ(off.result.cycles, on.result.cycles);
    EXPECT_EQ(off.result.instructions, on.result.instructions);
    EXPECT_EQ(off.result.stats.get("dram_bursts"),
              on.result.stats.get("dram_bursts"));
    EXPECT_EQ(off.result.stats.get("part_loads_in"),
              on.result.stats.get("part_loads_in"));
    EXPECT_EQ(off.result.stats.get("sm_assist_instructions"),
              on.result.stats.get("sm_assist_instructions"));
    EXPECT_EQ(off.result.stats.get("model_lines_compressed"),
              on.result.stats.get("model_lines_compressed"));
}

TEST(Audit, FatalModeAbortsOnSeededFault)
{
    GpuConfig cfg = auditedConfig(AuditLevel::EndOfRun);
    cfg.audit.fatal = true;
    Workload wl(tinyApp());
    wl.bindGrid(12 * cfg.num_sms);
    GpuSystem gpu(cfg, DesignConfig::caba(), wl.lineGenerator());
    gpu.launch(&wl, 12);
    gpu.injectFault(AuditFault::DropStorePacket);
    EXPECT_DEATH(gpu.run(), "CABA_AUDIT");
}

TEST(Audit, SpecParsing)
{
    AuditConfig base;
    base.level = AuditLevel::EndOfRun;

    EXPECT_EQ(AuditConfig::applySpec(base, "off").level, AuditLevel::Off);
    EXPECT_EQ(AuditConfig::applySpec(base, "0").level, AuditLevel::Off);
    EXPECT_EQ(AuditConfig::applySpec(base, "none").level, AuditLevel::Off);
    EXPECT_EQ(AuditConfig::applySpec(base, "end").level,
              AuditLevel::EndOfRun);
    EXPECT_EQ(AuditConfig::applySpec(base, "1").level,
              AuditLevel::EndOfRun);
    EXPECT_EQ(AuditConfig::applySpec(base, "full").level,
              AuditLevel::Periodic);

    const AuditConfig n = AuditConfig::applySpec(base, "4096");
    EXPECT_EQ(n.level, AuditLevel::Periodic);
    EXPECT_EQ(n.period, 4096u);

    // Unknown or empty specs, a zero period spelled "00" and a period
    // beyond range leave the configured level alone.
    EXPECT_EQ(AuditConfig::applySpec(base, "bogus").level,
              AuditLevel::EndOfRun);
    EXPECT_EQ(AuditConfig::applySpec(base, "00").level,
              AuditLevel::EndOfRun);
    EXPECT_EQ(AuditConfig::applySpec(base, "-5").level,
              AuditLevel::EndOfRun);
    const AuditConfig huge =
        AuditConfig::applySpec(base, "99999999999999999999999");
    EXPECT_EQ(huge.level, AuditLevel::EndOfRun);
    EXPECT_EQ(huge.period, base.period);
    EXPECT_EQ(AuditConfig::applySpec(base, "").level,
              AuditLevel::EndOfRun);
    EXPECT_EQ(AuditConfig::applySpec(base, nullptr).level,
              AuditLevel::EndOfRun);
}

TEST(Audit, LifecycleCountsBalanceOnCleanRun)
{
    GpuConfig cfg = auditedConfig(AuditLevel::EndOfRun);
    Workload wl(tinyApp());
    wl.bindGrid(12 * cfg.num_sms);
    GpuSystem gpu(cfg, DesignConfig::caba(), wl.lineGenerator());
    gpu.launch(&wl, 12);
    gpu.run();
    EXPECT_GT(gpu.audit().injected(), 0u);
    EXPECT_EQ(gpu.audit().injected(), gpu.audit().retired());
    EXPECT_EQ(gpu.audit().liveRequests(), 0u);
}

} // namespace
} // namespace caba
