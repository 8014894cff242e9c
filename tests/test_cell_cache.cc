/**
 * @file
 * Tests for the content-addressed cell cache (harness/cell_cache.h):
 * key coverage (semantic inputs in, execution knobs out), stable
 * well-formed hashes, byte-identical disk round trips through the real
 * runApp path, corrupted/stale-entry recovery, version-bump
 * invalidation, the in-process sharing layer, and the audited
 * hit-vs-recompute self-check.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "compress/design.h"
#include "harness/cell_cache.h"
#include "harness/runner.h"
#include "workloads/app.h"

namespace caba {
namespace {

namespace fs = std::filesystem;

ExperimentOptions
testOpts()
{
    ExperimentOptions opts;
    opts.scale = 0.05; // one short cell per simulate()
    return opts;
}

/** The options exactly as runCell keys them: scale resolved against
 *  CABA_SCALE (unset in this binary), execution knobs neutralized. */
ExperimentOptions
resolvedOpts(const ExperimentOptions &opts)
{
    ExperimentOptions resolved = opts;
    resolved.scale = opts.scale * scaleFromEnv();
    resolved.jobs = 0;
    return resolved;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << "cannot write " << path;
}

/** Configures the singleton to a private temp directory per test and
 *  restores the disabled state afterwards (runApp consults the
 *  singleton, so leakage would couple unrelated tests). */
class CellCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = ::testing::TempDir() + "caba_cell_cache_" + info->name();
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        CellCache::instance().configure("", kCellCacheCodeVersion, false,
                                        false);
        fs::remove_all(dir_);
    }

    std::string dir_;
};

TEST(CellKey, CoversSemanticInputsAndOnlyThose)
{
    const AppDescriptor app = findApp("PVC");
    const DesignConfig design = DesignConfig::caba();
    const ExperimentOptions opts = resolvedOpts(testOpts());
    const std::string base = cellKeyText(app, design, opts, "v1");
    EXPECT_EQ(base, cellKeyText(app, design, opts, "v1"));

    // Every semantic knob must move the key...
    ExperimentOptions o = opts;
    o.scale *= 2.0;
    EXPECT_NE(base, cellKeyText(app, design, o, "v1"));
    o = opts;
    o.bw_scale = 0.5;
    EXPECT_NE(base, cellKeyText(app, design, o, "v1"));
    o = opts;
    o.assist_regs = 4;
    EXPECT_NE(base, cellKeyText(app, design, o, "v1"));
    o = opts;
    o.verify = true;
    EXPECT_NE(base, cellKeyText(app, design, o, "v1"));
    o = opts;
    o.extras.memoize = true;
    EXPECT_NE(base, cellKeyText(app, design, o, "v1"));
    o = opts;
    o.caba.throttle = !o.caba.throttle;
    EXPECT_NE(base, cellKeyText(app, design, o, "v1"));
    o = opts;
    o.md_cache_kb = 32;
    EXPECT_NE(base, cellKeyText(app, design, o, "v1"));
    o = opts;
    o.max_warps = 8;
    EXPECT_NE(base, cellKeyText(app, design, o, "v1"));
    EXPECT_NE(base, cellKeyText(findApp("bfs"), design, opts, "v1"));
    EXPECT_NE(base, cellKeyText(app, DesignConfig::base(), opts, "v1"));
    EXPECT_NE(base, cellKeyText(app, design, opts, "v2"));

    // ...and the worker count must not (runCell neutralizes it; the
    // key renderer never reads it).
    o = opts;
    o.jobs = 7;
    EXPECT_EQ(base, cellKeyText(app, design, o, "v1"));
}

TEST(CellKey, HashIsStableAndWellFormed)
{
    const std::string a = cellKeyHash("alpha");
    EXPECT_EQ(a.size(), 32u);
    EXPECT_EQ(a, cellKeyHash("alpha"));
    EXPECT_NE(a, cellKeyHash("alphb"));
    for (char c : a)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
}

TEST(CellSerialization, RejectsTruncationTamperingAndForeignKeys)
{
    const AppDescriptor app = findApp("PVC");
    const RunResult r = runApp(app, DesignConfig::base(), testOpts());
    const std::string key = "some key text";
    const std::string blob = serializeCell(key, r);

    RunResult out;
    std::string err;
    EXPECT_TRUE(deserializeCell(blob, key, &out, &err)) << err;
    EXPECT_EQ(serializeCell(key, out), blob);

    EXPECT_FALSE(deserializeCell(blob.substr(0, blob.size() / 2), key, &out,
                                 &err));
    EXPECT_FALSE(deserializeCell(blob, "a different key", &out, &err));
    std::string tampered = blob;
    tampered[tampered.size() / 2] =
        static_cast<char>(tampered[tampered.size() / 2] ^ 0x5a);
    EXPECT_FALSE(deserializeCell(tampered, key, &out, &err));
}

TEST_F(CellCacheTest, DiskHitIsByteIdenticalToRecomputation)
{
    CellCache &cache = CellCache::instance();
    cache.configure(dir_, "test-v1", false, false);
    const AppDescriptor app = findApp("PVC");
    const DesignConfig design = DesignConfig::caba();
    const ExperimentOptions opts = testOpts();

    const RunResult miss = runApp(app, design, opts);
    CellCacheStats st = cache.stats();
    EXPECT_EQ(st.simulations, 1u);
    EXPECT_EQ(st.disk_misses, 1u);
    EXPECT_EQ(st.stores, 1u);

    const RunResult hit = runApp(app, design, opts);
    st = cache.stats();
    EXPECT_EQ(st.disk_hits, 1u);
    EXPECT_EQ(st.simulations, 1u) << "a disk hit must not re-simulate";

    const std::string key =
        cellKeyText(app, design, resolvedOpts(opts), "test-v1");
    EXPECT_EQ(serializeCell(key, miss), serializeCell(key, hit));
    EXPECT_TRUE(fs::exists(cache.entryPath(cellKeyHash(key))));
}

TEST_F(CellCacheTest, ExecutionKnobsShareOneEntry)
{
    CellCache &cache = CellCache::instance();
    cache.configure(dir_, "test-v1", false, false);
    const AppDescriptor app = findApp("PVC");
    ExperimentOptions opts = testOpts();
    (void)runApp(app, DesignConfig::base(), opts);

    opts.jobs = 3;
    (void)runApp(app, DesignConfig::base(), opts);
    const CellCacheStats st = cache.stats();
    EXPECT_EQ(st.simulations, 1u);
    EXPECT_EQ(st.disk_hits, 1u);
}

TEST_F(CellCacheTest, CorruptedEntryIsEvictedAndRecomputed)
{
    CellCache &cache = CellCache::instance();
    cache.configure(dir_, "test-v1", false, false);
    const AppDescriptor app = findApp("PVC");
    const DesignConfig design = DesignConfig::base();
    const ExperimentOptions opts = testOpts();
    const RunResult first = runApp(app, design, opts);

    const std::string key =
        cellKeyText(app, design, resolvedOpts(opts), "test-v1");
    const std::string path = cache.entryPath(cellKeyHash(key));
    std::string blob = slurp(path);
    blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x5a);
    spit(path, blob);

    const RunResult again = runApp(app, design, opts);
    const CellCacheStats st = cache.stats();
    EXPECT_EQ(st.evictions, 1u);
    EXPECT_EQ(st.simulations, 2u);
    EXPECT_EQ(st.stores, 2u) << "the healthy entry must be republished";
    EXPECT_EQ(serializeCell(key, first), serializeCell(key, again));
    RunResult reloaded;
    std::string err;
    EXPECT_TRUE(deserializeCell(slurp(path), key, &reloaded, &err)) << err;
}

TEST_F(CellCacheTest, VersionBumpMissesOldEntries)
{
    CellCache &cache = CellCache::instance();
    cache.configure(dir_, "code-v1", false, false);
    const AppDescriptor app = findApp("PVC");
    (void)runApp(app, DesignConfig::base(), testOpts());
    EXPECT_EQ(cache.stats().simulations, 1u);

    // configure() resets the stats, so the counters below are v2-only.
    cache.configure(dir_, "code-v2", false, false);
    (void)runApp(app, DesignConfig::base(), testOpts());
    const CellCacheStats st = cache.stats();
    EXPECT_EQ(st.disk_hits, 0u);
    EXPECT_EQ(st.disk_misses, 1u);
    EXPECT_EQ(st.simulations, 1u);
}

TEST_F(CellCacheTest, InProcessLayerSharesAcrossCalls)
{
    CellCache &cache = CellCache::instance();
    cache.configure("", "test-v1", true, false);
    const AppDescriptor app = findApp("PVC");
    (void)runApp(app, DesignConfig::base(), testOpts());
    (void)runApp(app, DesignConfig::base(), testOpts());
    CellCacheStats st = cache.stats();
    EXPECT_EQ(st.simulations, 1u);
    EXPECT_EQ(st.inproc_hits, 1u);
    EXPECT_EQ(st.stores, 0u) << "no disk layer was configured";

    (void)runApp(app, DesignConfig::caba(), testOpts());
    st = cache.stats();
    EXPECT_EQ(st.simulations, 2u) << "a different design is a new cell";

    cache.clearInProcess();
    (void)runApp(app, DesignConfig::base(), testOpts());
    EXPECT_EQ(cache.stats().simulations, 3u);
}

TEST_F(CellCacheTest, SelfCheckRecomputesAndComparesDiskHits)
{
    CellCache &cache = CellCache::instance();
    cache.configure(dir_, "test-v1", false, true);
    const AppDescriptor app = findApp("PVC");
    (void)runApp(app, DesignConfig::base(), testOpts());
    EXPECT_EQ(cache.stats().self_checks, 0u) << "misses are not checked";

    (void)runApp(app, DesignConfig::base(), testOpts());
    const CellCacheStats st = cache.stats();
    EXPECT_EQ(st.disk_hits, 1u);
    EXPECT_EQ(st.self_checks, 1u);
    EXPECT_EQ(st.simulations, 2u)
        << "the audited hit recomputes the cell to compare";
}

} // namespace
} // namespace caba
