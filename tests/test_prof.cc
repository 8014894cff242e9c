/**
 * @file
 * Observability-layer tests (DESIGN.md section 11): the caba-prof-v1
 * document schema, the profiler's determinism contract (RunResult
 * bit-identical with CABA_PROF on or off), the exactness of the
 * per-slot cycle taxonomy, and the profiling assist warp's lifecycle.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/prof.h"
#include "gpu/gpu_system.h"
#include "harness/json_export.h"
#include "harness/runner.h"
#include "mini_json.h"

namespace caba {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

AppDescriptor
tinyApp(const char *name = "CONS")
{
    AppDescriptor app = findApp(name);
    app.iterations = 8;
    app.footprint = 2ull << 20;
    return app;
}

RunResult
runSystem(const DesignConfig &design, const ExtrasConfig *extras = nullptr,
          const char *app_name = "CONS")
{
    GpuConfig cfg;
    cfg.sample_interval = 512;
    if (extras != nullptr)
        cfg.extras = *extras;
    const AppDescriptor app = tinyApp(app_name);
    Workload wl(app);
    const int warps = 12;
    wl.bindGrid(warps * cfg.num_sms);
    GpuSystem gpu(cfg, design, wl.lineGenerator());
    gpu.launch(&wl, warps);
    return gpu.run();
}

/** Every observable of @p r, as its caba-bench-v1 result JSON. */
std::string
resultJson(const RunResult &r)
{
    JsonWriter w;
    writeRunResultJson(w, r);
    return w.str();
}

class ProfTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        prof::resetForTest();
    }

    void
    TearDown() override
    {
        // Never leak the env knob (or table contents) into other tests.
        ::unsetenv("CABA_PROF");
        prof::resetForTest();
    }
};

TEST_F(ProfTest, SnapshotOrderIsFixed)
{
    const auto buckets = prof::snapshot();
    ASSERT_EQ(static_cast<int>(buckets.size()), prof::kBuckets);
    for (int c = 0; c < prof::kComps; ++c) {
        for (int p = 0; p < prof::kPhases; ++p) {
            const prof::Bucket &b =
                buckets[static_cast<std::size_t>(c * prof::kPhases + p)];
            EXPECT_EQ(static_cast<int>(b.comp), c);
            EXPECT_EQ(static_cast<int>(b.phase), p);
            EXPECT_EQ(b.ns, 0);
            EXPECT_EQ(b.calls, 0u);
        }
    }
}

TEST_F(ProfTest, RecorderFlushMergesIntoGlobalTable)
{
    prof::Recorder r;
    r.add(prof::Comp::Sm, prof::Phase::Cycle, 1000);
    r.add(prof::Comp::Sm, prof::Phase::Cycle, 500);
    r.add(prof::Comp::Loop, prof::Phase::Jump, 42);
    // Nothing global until flush.
    EXPECT_EQ(prof::snapshot()[0].calls, 0u);
    r.flush();
    const auto buckets = prof::snapshot();
    EXPECT_EQ(buckets[0].ns, 1500);
    EXPECT_EQ(buckets[0].calls, 2u);
    const std::size_t loop_jump = static_cast<std::size_t>(
        static_cast<int>(prof::Comp::Loop) * prof::kPhases +
        static_cast<int>(prof::Phase::Jump));
    EXPECT_EQ(buckets[loop_jump].ns, 42);
    EXPECT_EQ(buckets[loop_jump].calls, 1u);
    // flush() zeroes the recorder: a second flush adds nothing.
    r.flush();
    EXPECT_EQ(prof::snapshot()[0].calls, 2u);
}

/** The share fields ("12.3%") of a reportTopN(@p n) table, in order. */
std::vector<double>
printedShares(int n, std::string *text)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    if (f == nullptr)
        return {};
    prof::reportTopN(f, n);
    std::rewind(f);
    std::vector<double> shares;
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
        text->append(line);
        const char *pct = std::strchr(line, '%');
        if (pct == nullptr)
            continue;
        const char *start = pct;
        while (start > line && (std::isdigit(start[-1]) || start[-1] == '.'))
            --start;
        shares.push_back(std::strtod(start, nullptr));
    }
    std::fclose(f);
    return shares;
}

TEST_F(ProfTest, TopNSharesAddUpToTheLoop)
{
    // A run's shape: exclusive buckets nested inside the inclusive
    // loop/cycle, which also holds 70 ns of the loop's own time.
    prof::Recorder r;
    r.add(prof::Comp::Sm, prof::Phase::Cycle, 400);
    r.add(prof::Comp::Sm, prof::Phase::CatchUp, 30);
    r.add(prof::Comp::Partition, prof::Phase::Cycle, 250);
    r.add(prof::Comp::Partition, prof::Phase::CatchUp, 20);
    r.add(prof::Comp::XbarReq, prof::Phase::Cycle, 60);
    r.add(prof::Comp::XbarReply, prof::Phase::Cycle, 50);
    r.add(prof::Comp::XbarReply, prof::Phase::CatchUp, 10);
    r.add(prof::Comp::Wire, prof::Phase::Cycle, 80);
    r.add(prof::Comp::Loop, prof::Phase::Jump, 30);
    r.add(prof::Comp::Loop, prof::Phase::Cycle, 1000);
    r.flush();
    for (const int n : {1, 3, 8, prof::kBuckets}) {
        SCOPED_TRACE(n);
        std::string text;
        const std::vector<double> shares = printedShares(n, &text);
        SCOPED_TRACE(text);
        double sum = 0.0;
        for (const double v : shares)
            sum += v;
        // Each share is rounded to 0.1%.
        EXPECT_NEAR(sum, 100.0, 0.05 * static_cast<double>(shares.size()));
        EXPECT_NE(text.find("of 0.000s in loop/cycle"), std::string::npos);
        EXPECT_NE(text.find("loop       self"), std::string::npos);
        EXPECT_NE(text.find("  7.0%"), std::string::npos);  // loop self
        // loop/cycle is the denominator, never a line of its own.
        EXPECT_EQ(text.find("loop       cycle"), std::string::npos);
    }
}

TEST_F(ProfTest, WriteReportEmitsCabaProfV1Schema)
{
    prof::Recorder r;
    r.add(prof::Comp::Partition, prof::Phase::CatchUp, 7);
    r.flush();

    const std::string path = testing::TempDir() + "caba_prof_schema.json";
    ASSERT_TRUE(prof::writeReport(path));

    minijson::Value doc;
    ASSERT_TRUE(minijson::parse(readFile(path), &doc));
    const minijson::Value *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string, "caba-prof-v1");

    const minijson::Value *entries = doc.find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_TRUE(entries->isArray());
    // Every bucket always present, fixed (component, phase) order.
    ASSERT_EQ(entries->array.size(),
              static_cast<std::size_t>(prof::kBuckets));
    for (int i = 0; i < prof::kBuckets; ++i) {
        const minijson::Value &e =
            entries->array[static_cast<std::size_t>(i)];
        const minijson::Value *comp = e.find("component");
        const minijson::Value *phase = e.find("phase");
        ASSERT_NE(comp, nullptr) << i;
        ASSERT_NE(phase, nullptr) << i;
        EXPECT_EQ(comp->string,
                  prof::compName(static_cast<prof::Comp>(i / prof::kPhases)));
        EXPECT_EQ(phase->string, prof::phaseName(static_cast<prof::Phase>(
                                     i % prof::kPhases)));
        ASSERT_NE(e.find("ns"), nullptr) << i;
        ASSERT_NE(e.find("calls"), nullptr) << i;
    }
    const std::size_t part_catch_up = static_cast<std::size_t>(
        static_cast<int>(prof::Comp::Partition) * prof::kPhases +
        static_cast<int>(prof::Phase::CatchUp));
    EXPECT_EQ(entries->array[part_catch_up].find("ns")->number, 7.0);
    EXPECT_EQ(entries->array[part_catch_up].find("calls")->number, 1.0);

    const minijson::Value *self = doc.find("self_profile");
    ASSERT_NE(self, nullptr);
    std::remove(path.c_str());
}

TEST_F(ProfTest, ProfiledRunPopulatesBuckets)
{
    const std::string path = testing::TempDir() + "caba_prof_run.json";
    ASSERT_EQ(::setenv("CABA_PROF", path.c_str(), 1), 0);
    runSystem(DesignConfig::caba());
    const auto buckets = prof::snapshot();
    std::uint64_t calls = 0;
    for (const prof::Bucket &b : buckets)
        calls += b.calls;
    EXPECT_GT(calls, 0u) << "profiled run attributed no time";
    // The whole-run loop/cycle bucket is inclusive: it dominates.
    const std::size_t loop_cycle = static_cast<std::size_t>(
        static_cast<int>(prof::Comp::Loop) * prof::kPhases +
        static_cast<int>(prof::Phase::Cycle));
    EXPECT_EQ(buckets[loop_cycle].calls, 1u);
    EXPECT_GT(buckets[loop_cycle].ns, 0);
    std::remove(path.c_str());
}

TEST_F(ProfTest, RunResultBitIdenticalProfilerOnOff)
{
    const std::string path = testing::TempDir() + "caba_prof_det.json";
    ::unsetenv("CABA_PROF");
    const RunResult off = runSystem(DesignConfig::caba());
    ASSERT_EQ(::setenv("CABA_PROF", path.c_str(), 1), 0);
    const RunResult on = runSystem(DesignConfig::caba());
    ::unsetenv("CABA_PROF");
    EXPECT_TRUE(resultJson(off) == resultJson(on));
    std::remove(path.c_str());
}

// A simulating process run with CABA_PROF set writes its report from an
// atexit handler, after static destructors have begun: everything the
// report reads must still be alive then (under ASan a use-after-free
// aborts the child, so this test fails on a nonzero exit status).
TEST(ProfExit, SimulatingProcessWritesReportAtExit)
{
    const std::string path = testing::TempDir() + "caba_prof_exit.json";
    std::remove(path.c_str());
    const std::string cmd = "CABA_PROF='" + path + "' '" CABA_CLI_PATH
                            "' --app PVC --design caba --scale 0.05"
                            " > /dev/null 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    minijson::Value doc;
    ASSERT_TRUE(minijson::parse(readFile(path), &doc)) << path;
    EXPECT_EQ(doc.find("schema")->string, "caba-prof-v1");
    double calls = 0;
    for (const minijson::Value &e : doc.find("entries")->array)
        calls += e.find("calls")->number;
    EXPECT_GT(calls, 0.0);
    // The harness scopes the run recorded ("build", "run") survive
    // until the report is written.
    const minijson::Value *self = doc.find("self_profile");
    ASSERT_NE(self, nullptr);
    ASSERT_NE(self->find("build"), nullptr);
    ASSERT_NE(self->find("run"), nullptr);
    EXPECT_GT(self->find("run")->number, 0.0);
    std::remove(path.c_str());
}

// ---------------------------------------------------------- taxonomy

std::uint64_t
slotSum(const RunResult &r)
{
    std::uint64_t sum = 0;
    for (int c = 0; c < kNumSlotCategories; ++c)
        sum += r.stats.get(std::string("sm_") +
                           kSlotCategoryNames[static_cast<std::size_t>(c)]);
    return sum;
}

TEST(Taxonomy, SlotCategoriesSumToCyclesTimesSlots)
{
    // The audit layer proves the identity per SM at drain; this checks
    // the exported aggregate on runs with very different stall mixes.
    struct Case { const char *app; DesignConfig design; };
    const Case cases[] = {
        {"CONS", DesignConfig::base()},
        {"CONS", DesignConfig::caba()},
        {"JPEG", DesignConfig::caba()},
        {"TRA", DesignConfig::hw()},
    };
    GpuConfig ref;
    const std::uint64_t slots =
        static_cast<std::uint64_t>(ref.sm.schedulers);
    for (const Case &c : cases) {
        SCOPED_TRACE(c.app);
        const RunResult r = runSystem(c.design, nullptr, c.app);
        const std::uint64_t accounted =
            r.stats.get("sm_slot_cycles_accounted");
        EXPECT_GT(accounted, 0u);
        EXPECT_EQ(slotSum(r), accounted * slots);
        // The Figure 1 grouping covers every category exactly once.
        EXPECT_EQ(issueSlotBars(r).total(), slotSum(r));
        // The reserved barrier category must stay zero (no barrier ops
        // in this ISA) and the AW ledger must match the AW slot count.
        EXPECT_EQ(r.stats.get("sm_slot_sync"), 0u);
        EXPECT_EQ(r.stats.get("sm_aw_slots_decompress_fill") +
                      r.stats.get("sm_aw_slots_decompress_hit") +
                      r.stats.get("sm_aw_slots_compress") +
                      r.stats.get("sm_aw_slots_memoize") +
                      r.stats.get("sm_aw_slots_prefetch") +
                      r.stats.get("sm_aw_slots_profile"),
                  r.stats.get("sm_slot_aw_issued"));
    }
}

TEST(Taxonomy, ActiveBarCountsIssuedSlots)
{
    // Figure 1's Active bar is exactly the issued slots, and every
    // issued instruction, regular or assist, occupies exactly one slot.
    const RunResult r = runSystem(DesignConfig::caba());
    const std::uint64_t issued = r.stats.get("sm_slot_issued");
    const std::uint64_t aw_issued = r.stats.get("sm_slot_aw_issued");
    EXPECT_EQ(issueSlotBars(r).active, issued + aw_issued);
    EXPECT_EQ(issued, r.instructions);
    EXPECT_EQ(aw_issued, r.stats.get("sm_assist_instructions"));
}

// ------------------------------------------------- profiling assist warp

TEST(ProfileAw, LifecycleSpawnsSamplesAndStats)
{
    ExtrasConfig extras;
    extras.profile = true;
    extras.profile_interval = 64;
    const RunResult r = runSystem(DesignConfig::caba(), &extras);

    const std::uint64_t warps = r.stats.get("sm_profile_warps");
    const std::uint64_t samples = r.stats.get("sm_profile_samples");
    EXPECT_GT(warps, 0u) << "no profiling assist warps spawned";
    EXPECT_GT(samples, 0u) << "no profiling warp completed";
    EXPECT_LE(samples, warps);
    EXPECT_GT(r.stats.get("sm_aw_slots_profile"), 0u)
        << "profiling warps issued no instructions";

    // One stall-vector sample per reaped warp, in every distribution.
    const Distribution *ready =
        r.stats.findDist("sm_aw_profile_ready_warps");
    const Distribution *blocked =
        r.stats.findDist("sm_aw_profile_blocked_warps");
    const Distribution *mem =
        r.stats.findDist("sm_aw_profile_mem_blocked_warps");
    ASSERT_NE(ready, nullptr);
    ASSERT_NE(blocked, nullptr);
    ASSERT_NE(mem, nullptr);
    EXPECT_EQ(ready->count(), samples);
    EXPECT_EQ(blocked->count(), samples);
    EXPECT_EQ(mem->count(), samples);
    // A mem-blocked warp is a blocked warp; the sample maxima nest.
    EXPECT_LE(mem->max(), blocked->max());
}

TEST(ProfileAw, OffByDefault)
{
    const RunResult r = runSystem(DesignConfig::caba());
    EXPECT_EQ(r.stats.get("sm_profile_warps"), 0u);
    EXPECT_EQ(r.stats.get("sm_profile_samples"), 0u);
    EXPECT_EQ(r.stats.get("sm_aw_slots_profile"), 0u);
}

} // namespace
} // namespace caba
