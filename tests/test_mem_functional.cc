/**
 * @file
 * Backing store + compression model tests: copy-on-write semantics,
 * version tracking, memoization correctness across writes, and the
 * round-trip verification gate.
 */
#include <cstring>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "mem/backing_store.h"
#include "mem/compression_model.h"
#include "workloads/data_profile.h"

namespace caba {
namespace {

LineGenerator
smallIntGen()
{
    return [](Addr line, std::uint8_t *out) {
        generateProfileLine(DataProfile::SmallInt, 11, line, out);
    };
}

TEST(BackingStore, PristineReadsAreDeterministic)
{
    BackingStore a(smallIntGen()), b(smallIntGen());
    std::uint8_t la[kLineSize], lb[kLineSize];
    for (Addr line = 0; line < 10 * kLineSize; line += kLineSize) {
        a.read(line, la);
        b.read(line, lb);
        EXPECT_EQ(std::memcmp(la, lb, kLineSize), 0);
    }
    EXPECT_EQ(a.dirtyLines(), 0u);
}

TEST(BackingStore, WriteOverlaysAndBumpsVersion)
{
    BackingStore s(smallIntGen());
    std::uint8_t buf[kLineSize];
    std::memset(buf, 0x5A, kLineSize);
    EXPECT_EQ(s.version(0), 0u);
    s.write(0, buf);
    EXPECT_EQ(s.version(0), 1u);
    std::uint8_t out[kLineSize];
    s.read(0, out);
    EXPECT_EQ(std::memcmp(buf, out, kLineSize), 0);
    EXPECT_EQ(s.dirtyLines(), 1u);
    // Other lines unaffected.
    EXPECT_EQ(s.version(kLineSize), 0u);
}

TEST(BackingStore, PartialWriteMutatesOnlyRange)
{
    BackingStore s(smallIntGen());
    std::uint8_t before[kLineSize], after[kLineSize];
    s.read(0, before);
    s.writePartial(0, 32, 16);
    s.read(0, after);
    EXPECT_EQ(std::memcmp(before, after, 32), 0);
    EXPECT_EQ(std::memcmp(before + 48, after + 48, kLineSize - 48), 0);
    EXPECT_NE(std::memcmp(before + 32, after + 32, 16), 0);
    EXPECT_EQ(s.version(0), 1u);
}

TEST(CompressionModel, MemoizesByVersion)
{
    BackingStore s(smallIntGen());
    CompressionModel m(s, Algorithm::Bdi, true);
    const int size1 = m.compressedSize(0);
    const int size2 = m.compressedSize(0);
    EXPECT_EQ(size1, size2);
    EXPECT_EQ(m.stats().get("lines_compressed"), 1u);

    std::uint8_t buf[kLineSize] = {};
    s.write(0, buf);
    EXPECT_EQ(m.compressedSize(0), 1);  // all-zero: BDI Zeros encoding
    EXPECT_EQ(m.stats().get("lines_compressed"), 2u);
}

TEST(CompressionModel, BurstsMatchSize)
{
    BackingStore s(smallIntGen());
    CompressionModel m(s, Algorithm::Bdi, true);
    for (Addr line = 0; line < 64 * kLineSize; line += kLineSize) {
        const int bytes = m.compressedSize(line);
        EXPECT_EQ(m.bursts(line),
                  static_cast<int>(divCeil(bytes, kBurstSize)));
    }
}

TEST(CompressionModel, DisabledModelReportsFullSize)
{
    BackingStore s(smallIntGen());
    CompressionModel m(s, Algorithm::None, false);
    EXPECT_FALSE(m.enabled());
    EXPECT_EQ(m.compressedSize(0), kLineSize);
    EXPECT_EQ(m.bursts(0), kBurstsPerLine);
}

TEST(CompressionModel, TracksAggregateRatio)
{
    BackingStore s([](Addr, std::uint8_t *out) {
        std::memset(out, 0, kLineSize);     // everything compresses to 1B
    });
    CompressionModel m(s, Algorithm::Bdi, true);
    for (Addr line = 0; line < 32 * kLineSize; line += kLineSize)
        m.lookup(line);
    EXPECT_EQ(m.stats().get("compressed_bursts"), 32u);
    EXPECT_EQ(m.stats().get("uncompressed_bursts"),
              32u * kBurstsPerLine);
}

TEST(CompressionModel, MemoIsBoundedAndReportsPeak)
{
    BackingStore s(smallIntGen());
    CompressionModel m(s, Algorithm::Bdi, true, /*memo_cap=*/8);
    for (Addr line = 0; line < 64 * kLineSize; line += kLineSize)
        m.lookup(line);
    EXPECT_LE(m.memoEntries(), 8u);
    EXPECT_EQ(m.memoCapacity(), 8u);
    EXPECT_EQ(m.stats().get("memo_evictions"), 64u - 8u);
    EXPECT_EQ(m.stats().get("memo_peak_entries"), 8u);
    EXPECT_GT(m.stats().get("memo_peak_bytes"), 0u);
    // Eviction is purely a caching concern: every line was still
    // compressed exactly once.
    EXPECT_EQ(m.stats().get("lines_compressed"), 64u);
}

std::set<std::string>
keysOf(const StatSet &s)
{
    std::set<std::string> keys;
    for (const auto &[name, value] : s.all())
        keys.insert(name);
    return keys;
}

TEST(CompressionModel, StatKeysAppearWithTheirEvents)
{
    BackingStore s([](Addr, std::uint8_t *out) {
        std::memset(out, 0, kLineSize);     // every line: 1 byte, 1 burst
    });
    CompressionModel m(s, Algorithm::Bdi, true, /*memo_cap=*/2);
    // Unused: no keys at all, so a merged RunResult gains none.
    EXPECT_TRUE(m.stats().all().empty());
    EXPECT_TRUE(m.stats().allDists().empty());

    m.lookup(0);
    m.lookup(kLineSize);
    m.lookup(0);                // memo hit: no new event
    const std::set<std::string> traffic = {
        "compressed_bursts", "compressed_bytes", "lines_compressed",
        "memo_peak_bytes", "memo_peak_entries", "uncompressed_bursts",
        "uncompressed_bytes",
    };
    StatSet st = m.stats();
    EXPECT_EQ(keysOf(st), traffic);     // no memo_evictions yet
    EXPECT_EQ(st.get("lines_compressed"), 2u);
    EXPECT_EQ(st.get("compressed_bytes"), 2u);
    EXPECT_EQ(st.get("compressed_bursts"), 2u);
    EXPECT_EQ(st.get("uncompressed_bytes"), 2u * kLineSize);
    EXPECT_EQ(st.get("uncompressed_bursts"), 2u * kBurstsPerLine);
    EXPECT_EQ(st.get("memo_peak_entries"), 2u);
    EXPECT_GT(st.get("memo_peak_bytes"), 0u);
    // Peaks are gauges (merging keeps the value), the rest counters.
    EXPECT_TRUE(st.isGauge("memo_peak_entries"));
    EXPECT_TRUE(st.isGauge("memo_peak_bytes"));
    EXPECT_FALSE(st.isGauge("lines_compressed"));
    ASSERT_EQ(st.allDists().size(), 1u);
    const Distribution *sizes = st.findDist("compressed_line_bytes");
    ASSERT_NE(sizes, nullptr);
    EXPECT_EQ(sizes->count(), 2u);
    EXPECT_EQ(sizes->sum(), 2u);

    m.lookup(2 * kLineSize);    // third line in a 2-entry memo: evicts
    st = m.stats();
    std::set<std::string> evicted = traffic;
    evicted.insert("memo_evictions");
    EXPECT_EQ(keysOf(st), evicted);
    EXPECT_EQ(st.get("memo_evictions"), 1u);
    EXPECT_FALSE(st.isGauge("memo_evictions"));
    EXPECT_EQ(st.get("memo_peak_entries"), 2u);
}

TEST(CompressionModel, MemoEvictsLeastRecentlyUsed)
{
    BackingStore s(smallIntGen());
    CompressionModel m(s, Algorithm::Bdi, true, /*memo_cap=*/2);
    const Addr a = 0, b = kLineSize, c = 2 * kLineSize;
    m.lookup(a);
    m.lookup(b);
    m.lookup(a);                // refresh a: b is now the LRU victim
    m.lookup(c);                // evicts b, not a
    EXPECT_EQ(m.stats().get("lines_compressed"), 3u);
    m.lookup(a);                // still memoized: no recompression
    EXPECT_EQ(m.stats().get("lines_compressed"), 3u);
    m.lookup(b);                // was evicted: recompressed
    EXPECT_EQ(m.stats().get("lines_compressed"), 4u);
    EXPECT_EQ(m.stats().get("memo_evictions"), 2u);
}

TEST(CompressionModel, EvictedLinesRecompressCorrectlyAfterWrites)
{
    BackingStore s(smallIntGen());
    CompressionModel m(s, Algorithm::Bdi, true, /*memo_cap=*/4);
    // Mutate lines while the memo churns; verify=true round-trips every
    // compression, so any stale image would panic.
    for (int pass = 0; pass < 3; ++pass)
        for (Addr line = 0; line < 16 * kLineSize; line += kLineSize) {
            s.writePartial(line, 8 * pass, 8);
            EXPECT_GT(m.compressedSize(line), 0);
        }
    EXPECT_LE(m.memoEntries(), 4u);
}

} // namespace
} // namespace caba
