/**
 * @file
 * Differential tests of the flat bookkeeping tables on the hot path
 * against the node-based structures they replaced, under seeded churn:
 * the open-addressed FlatMap (the LDST unit's MSHRs) against
 * std::unordered_map, the compression memo's slab, index and intrusive
 * LRU against an unordered_map + std::list LRU, and the audit's per-SM
 * id rings against a hash map keyed by (id << 8 | SM) with its
 * sorted-key orphan dump.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <list>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/audit.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "compress/registry.h"
#include "mem/backing_store.h"
#include "mem/compression_model.h"
#include "sim/sm_core.h"
#include "workloads/data_profile.h"

namespace caba {
namespace {

// ------------------------------------------------------------ FlatMap

/** The MSHR shape: line -> waiter list, checked against the old map. */
void
checkSame(FlatMap<std::vector<int>> &flat,
          const std::unordered_map<Addr, std::vector<int>> &ref,
          const std::vector<Addr> &universe)
{
    ASSERT_EQ(flat.size(), ref.size());
    for (const Addr k : universe) {
        const std::vector<int> *got = flat.find(k);
        const auto it = ref.find(k);
        if (it == ref.end()) {
            EXPECT_EQ(got, nullptr) << "key " << k;
        } else {
            ASSERT_NE(got, nullptr) << "key " << k;
            EXPECT_EQ(*got, it->second) << "key " << k;
        }
    }
}

/** Runs seeded insert / merge / erase churn over @p universe, keeping
 *  at most @p limit keys live (the MSHR bound). */
void
churn(std::size_t limit, const std::vector<Addr> &universe,
      std::uint64_t seed, int steps)
{
    FlatMap<std::vector<int>> flat(limit);
    std::unordered_map<Addr, std::vector<int>> ref;
    Rng rng(seed);
    for (int step = 0; step < steps; ++step) {
        const Addr k = universe[rng.below(universe.size())];
        std::vector<int> *w = flat.find(k);
        ASSERT_EQ(w != nullptr, ref.count(k) == 1) << "step " << step;
        const int waiter = static_cast<int>(rng.below(1000));
        if (w != nullptr && rng.chance(0.5)) {
            w->push_back(waiter);           // merge into a live MSHR
            ref[k].push_back(waiter);
        } else if (w != nullptr) {
            flat.erase(k);                  // fill: release the entry
            ref.erase(k);
        } else if (ref.size() < limit) {
            flat.insert(k).assign(1, waiter);
            ref[k] = {waiter};
        }
        if (step % 64 == 0)
            checkSame(flat, ref, universe);
    }
    checkSame(flat, ref, universe);
    // The table was sized once, from the bound, and never regrew.
    std::size_t slots = 2;
    while (slots < 2 * limit)
        slots *= 2;
    EXPECT_EQ(flat.slotCount(), slots);
}

TEST(FlatMap, NothingAllocatedBeforeFirstInsert)
{
    FlatMap<std::vector<int>> m(64);
    EXPECT_EQ(m.slotCount(), 0u);
    EXPECT_EQ(m.find(0x1000), nullptr);
    EXPECT_TRUE(m.empty());
    m.insert(0x1000).assign(1, 7);
    EXPECT_EQ(m.slotCount(), 128u);
}

TEST(FlatMap, MatchesUnorderedMapUnderMshrChurn)
{
    // Line addresses in a window a few times the MSHR count, so keys
    // are reused often and probe runs form and break constantly.
    for (const std::size_t limit : {std::size_t{1}, std::size_t{4},
                                    std::size_t{32}, std::size_t{64}}) {
        SCOPED_TRACE(limit);
        std::vector<Addr> universe;
        for (std::size_t i = 0; i < 3 * limit + 5; ++i)
            universe.push_back((Addr{1} << 33) + i * kLineSize);
        churn(limit, universe, 0x5EED + limit, 20000);
    }
}

TEST(FlatMap, BackwardShiftAcrossTheWrapAround)
{
    // Keys that all hash to the last two slots of a 16-slot table, so
    // their probe runs wrap past slot 0; erasing from the front of a
    // wrapped run must shift the survivors back across the seam.
    const std::size_t limit = 8;       // 16 slots
    std::vector<Addr> wrapping;
    for (Addr k = kLineSize; wrapping.size() < 6; k += kLineSize) {
        // home(k) = top 4 bits of k * golden: keep keys landing in 14/15.
        const std::uint64_t h = (k * 0x9E3779B97F4A7C15ull) >> 60;
        if (h >= 14)
            wrapping.push_back(k);
    }
    for (int order = 0; order < 6; ++order) {
        FlatMap<std::vector<int>> flat(limit);
        std::unordered_map<Addr, std::vector<int>> ref;
        for (std::size_t i = 0; i < wrapping.size(); ++i) {
            flat.insert(wrapping[i]).assign(1, static_cast<int>(i));
            ref[wrapping[i]] = {static_cast<int>(i)};
        }
        ASSERT_EQ(flat.slotCount(), 16u);
        // Erase one key (a different position each time): the rest of
        // the run must still be found, and the key can come back.
        const Addr gone = wrapping[static_cast<std::size_t>(order)];
        flat.erase(gone);
        ref.erase(gone);
        checkSame(flat, ref, wrapping);
        flat.insert(gone).assign({order, 99});
        ref[gone] = {order, 99};
        checkSame(flat, ref, wrapping);
    }
    // And under churn confined to the wrapping keys.
    churn(limit, wrapping, 0xABCDEF, 5000);
}

// ------------------------------------------------------- LDST MSHRs

/** Records register writebacks (one per finished load) in order. */
class RecordingHooks : public LdstUnit::Hooks
{
  public:
    std::uint64_t allocReqId() override { return next_id_++; }
    bool
    onLoadHit(Addr, int, Cycle) override
    {
        ++hits;
        return true;
    }
    void commitStore(Addr) override {}
    void routeStore(Addr, bool, int, Cycle) override {}
    void clearPending(int warp, std::uint64_t) override
    {
        cleared.push_back(warp);
    }

    std::vector<int> cleared;
    int hits = 0;

  private:
    std::uint64_t next_id_ = 1;
};

// Loads that merge into live MSHRs (demand or prefetch), fills in random
// order: the LDST unit must send the same requests and finish the same
// loads in the same order as the historical line -> waiter-vector map.
TEST(LdstMshrs, ReleaseWaitersInPushOrderLikeTheVectorMap)
{
    SmConfig cfg;
    cfg.mshr_entries = 8;
    cfg.out_queue = 64;
    const std::size_t mshrs = 8;
    RecordingHooks hooks;
    LdstUnit ldst(0, cfg, cfg.l1, &hooks);
    std::unordered_map<Addr, std::vector<int>> ref;   // line -> warps
    std::unordered_map<int, int> lines_left;          // warp -> lines
    std::vector<int> want_cleared;
    std::vector<Addr> in_flight;        // ref's keys, in a stable order
    std::vector<Addr> want_sent;
    std::vector<Addr> sent;
    Rng rng(0x1D57);
    Addr fresh = Addr{1} << 34;         // lines never touched before
    Cycle now = 0;
    int warp = 0;
    std::size_t merges = 0;
    for (int step = 0; step < 20000; ++step, ++now) {
        const std::uint64_t op = rng.below(10);
        if (op < 5 && ldst.hasFreeLoadSlot()) {
            // A load of 1-3 distinct lines, each live (merge) or fresh,
            // never more fresh lines than free MSHRs: it cannot stall.
            const std::size_t free = mshrs - ref.size();
            MemAccess &a = ldst.beginAccess(false, warp);
            a.lines.clear();
            const std::uint64_t n = 1 + rng.below(3);
            for (std::uint64_t k = 0; k < n; ++k) {
                if (!in_flight.empty() && rng.chance(0.5)) {
                    const Addr l = in_flight[rng.below(in_flight.size())];
                    if (std::find(a.lines.begin(), a.lines.end(), l) ==
                        a.lines.end())
                        a.lines.push_back(l);
                } else if (a.lines.size() < free) {
                    a.lines.push_back(fresh += kLineSize);
                }
            }
            if (a.lines.empty()) {
                ldst.cancel();
                continue;
            }
            ldst.armLoad(warp, 1);
            lines_left[warp] = static_cast<int>(a.lines.size());
            for (const Addr l : a.lines) {
                auto it = ref.find(l);
                if (it != ref.end()) {
                    it->second.push_back(warp);
                    ++merges;
                } else {
                    ref[l] = {warp};
                    in_flight.push_back(l);
                    want_sent.push_back(l);
                }
            }
            while (ldst.busy())
                ASSERT_FALSE(ldst.drain(now++)) << "step " << step;
            ++warp;
        } else if (op < 6 && ref.size() < mshrs) {
            fresh += kLineSize;
            ASSERT_TRUE(ldst.issuePrefetch(fresh, now));
            ref[fresh] = {};
            in_flight.push_back(fresh);
            want_sent.push_back(fresh);
        } else if (!in_flight.empty()) {
            // Fill one live line, chosen at random: out of order.
            const std::size_t i = rng.below(in_flight.size());
            const Addr l = in_flight[i];
            in_flight[i] = in_flight.back();
            in_flight.pop_back();
            for (const int w : ref.at(l))
                if (--lines_left.at(w) == 0)
                    want_cleared.push_back(w);
            ref.erase(l);
            ldst.completeFill(l, kLineSize);
            ASSERT_EQ(hooks.cleared, want_cleared) << "step " << step;
        }
        while (!ldst.out().empty()) {
            sent.push_back(ldst.out().front().line);
            ldst.out().pop_front();
        }
    }
    EXPECT_EQ(sent, want_sent);
    EXPECT_EQ(hooks.hits, 0);
    EXPECT_GT(merges, 1000u);
    EXPECT_GT(want_cleared.size(), 1000u);
}

// ------------------------------------------------------ memo LRU

/** Footprint the memo charges per entry (CompressionModel::Entry). */
constexpr std::size_t kEntryBytes = 56;

/** The historical memo: unordered_map + std::list LRU, with the same
 *  byte accounting, replayed next to the real model. */
struct RefMemo
{
    RefMemo(const BackingStore &s, const Codec &c, std::size_t n)
        : store(s), codec(c), cap(n)
    {}

    const BackingStore &store;
    const Codec &codec;
    std::size_t cap;
    struct Slot
    {
        std::uint64_t version = ~std::uint64_t{0};
        std::list<Addr>::iterator lru;
        std::size_t bytes = 0;
    };
    std::unordered_map<Addr, Slot> map;
    std::list<Addr> lru;
    std::size_t bytes = 0;
    std::size_t peak_bytes = 0;
    std::size_t peak_entries = 0;
    std::uint64_t evictions = 0;
    std::uint64_t compressed = 0;

    void
    lookup(Addr line)
    {
        auto it = map.find(line);
        if (it == map.end()) {
            if (map.size() >= cap) {
                const Addr v = lru.back();
                bytes -= map.at(v).bytes;
                map.erase(v);
                lru.pop_back();
                ++evictions;
            }
            lru.push_front(line);
            it = map.emplace(line, Slot{}).first;
            it->second.lru = lru.begin();
            peak_entries = std::max(peak_entries, map.size());
        } else {
            lru.splice(lru.begin(), lru, it->second.lru);
        }
        Slot &s = it->second;
        const std::uint64_t v = store.version(line);
        if (s.version != v) {
            std::uint8_t buf[kLineSize];
            store.read(line, buf);
            const std::size_t foot =
                kEntryBytes + codec.compress(buf).bytes.capacity();
            bytes += foot - s.bytes;
            s.bytes = foot;
            s.version = v;
            peak_bytes = std::max(peak_bytes, bytes);
            ++compressed;
        }
    }
};

TEST(MemoLru, MatchesListLruUnderChurn)
{
    for (const std::size_t cap : {std::size_t{1}, std::size_t{3},
                                  std::size_t{16}, std::size_t{200}}) {
        SCOPED_TRACE(cap);
        BackingStore store([](Addr line, std::uint8_t *out) {
            generateProfileLine(DataProfile::SmallInt, 11, line, out);
        });
        CompressionModel model(store, Algorithm::Bdi, true, cap);
        RefMemo ref(store, getCodec(Algorithm::Bdi), cap);
        Rng rng(0x11E0 + cap);
        // A hot set that mostly fits plus a cold tail that does not, so
        // both hits (LRU reorders) and evictions happen.
        const std::uint64_t hot = cap + cap / 2 + 1;
        for (int step = 0; step < 6000; ++step) {
            const Addr line = (rng.chance(0.8) ? rng.below(hot)
                                               : hot + rng.below(4 * hot)) *
                              kLineSize;
            if (rng.chance(0.05)) {
                std::uint8_t data[kLineSize];
                std::memset(data, static_cast<int>(rng.below(256)),
                            kLineSize);
                data[0] = static_cast<std::uint8_t>(step);
                store.write(line, data);    // version bump: recompress
            }
            model.lookup(line);
            ref.lookup(line);
            // The same line set in the memo: a hit in one is a hit in
            // the other, so the compression counts agree step by step.
            ASSERT_EQ(model.stats().get("lines_compressed"), ref.compressed)
                << "step " << step;
            ASSERT_EQ(model.memoEntries(), ref.map.size());
        }
        const StatSet st = model.stats();
        EXPECT_EQ(st.get("memo_evictions"), ref.evictions);
        EXPECT_EQ(st.get("memo_peak_entries"), ref.peak_entries);
        EXPECT_EQ(st.get("memo_peak_bytes"), ref.peak_bytes);
        EXPECT_GT(ref.evictions, 0u);
        // The LRU victims were the same lines: after the churn, every
        // line the reference still holds is a memo hit (visited least
        // recently used first, so no lookup evicts another).
        const std::uint64_t before = model.stats().get("lines_compressed");
        for (auto it = ref.lru.rbegin(); it != ref.lru.rend(); ++it)
            model.lookup(*it);
        EXPECT_EQ(model.stats().get("lines_compressed"), before);
        Audit a(AuditConfig{});
        model.audit(a);
        EXPECT_TRUE(a.failures().empty());
    }
}

// ---------------------------------------------------- audit rings

struct FakeReq
{
    std::uint64_t id = 0;
    int src_sm = 0;
    Addr line = 0;
    bool is_write = false;
};

/** The historical lifecycle table: one hash map keyed by (id << 8 | SM)
 *  and an orphan dump in sorted-key order, message for message. */
struct RefLifecycle
{
    struct Tracked
    {
        ReqStage stage;
        Cycle injected;
        Addr line;
        bool is_write;
    };
    std::unordered_map<std::uint64_t, Tracked> live;

    static std::uint64_t
    key(const FakeReq &r)
    {
        return (r.id << 8) | static_cast<std::uint64_t>(r.src_sm & 0xff);
    }

    std::vector<std::string>
    orphans(Cycle now) const
    {
        std::vector<std::uint64_t> keys;
        for (const auto &e : live) // lint: order-insensitive — keys sorted below
            keys.push_back(e.first);
        std::sort(keys.begin(), keys.end());
        std::vector<std::string> out;
        for (const std::uint64_t k : keys) {
            const Tracked &t = live.at(k);
            std::ostringstream os;
            os << "lifecycle: orphan request (id " << (k >> 8) << ", SM "
               << (k & 0xff) << ", " << (t.is_write ? "store" : "load")
               << " of line 0x" << std::hex << t.line << std::dec
               << ") injected at cycle " << t.injected
               << " still at stage " << reqStageName(t.stage)
               << " when the system drained at cycle " << now;
            out.push_back(os.str());
        }
        return out;
    }
};

AuditConfig
collectingConfig()
{
    AuditConfig cfg;
    cfg.fatal = false;
    cfg.ignore_env = true;
    return cfg;
}

TEST(AuditRing, MatchesHashMapUnderOutOfOrderChurn)
{
    constexpr int kSms = 5;
    Audit audit(collectingConfig());
    RefLifecycle ref;
    Rng rng(0xA0D17);
    std::uint64_t next_id[kSms] = {1, 1, 1, 1, 1};
    std::vector<FakeReq> in_flight;
    std::size_t peak_in_flight = 0;
    Cycle now = 0;
    for (int step = 0; step < 30000; ++step, ++now) {
        const bool inject = in_flight.empty() || rng.chance(0.52);
        if (inject) {
            FakeReq r;
            r.src_sm = static_cast<int>(rng.below(kSms));
            // Skipped ids (allocated but never injected) leave gaps.
            next_id[r.src_sm] += rng.chance(0.1) ? 2 : 1;
            r.id = next_id[r.src_sm];
            r.line = rng.below(1u << 20) * kLineSize;
            r.is_write = rng.chance(0.3);
            audit.onInject(r, now);
            ref.live[RefLifecycle::key(r)] = {ReqStage::Injected, now,
                                              r.line, r.is_write};
            in_flight.push_back(r);
            peak_in_flight = std::max(peak_in_flight, in_flight.size());
        } else {
            // Any in-flight request may advance or retire: out of order.
            const std::size_t i = rng.below(in_flight.size());
            const FakeReq r = in_flight[i];
            if (rng.chance(0.6)) {
                const auto stage = static_cast<ReqStage>(1 + rng.below(5));
                audit.onStage(r, stage);
                ref.live.at(RefLifecycle::key(r)).stage = stage;
            } else {
                audit.onRetire(r);
                ref.live.erase(RefLifecycle::key(r));
                in_flight[i] = in_flight.back();
                in_flight.pop_back();
            }
        }
        ASSERT_EQ(audit.liveRequests(), ref.live.size()) << "step " << step;
    }
    // Each SM's span outgrew its first 16-slot ring many times over.
    ASSERT_GT(peak_in_flight, std::size_t{kSms * 64});
    EXPECT_TRUE(audit.failures().empty());
    audit.checkLifecycle(now, /*at_drain=*/true);
    EXPECT_EQ(audit.failures(), ref.orphans(now));
    EXPECT_EQ(audit.failures().size(), ref.live.size());
}

TEST(AuditRing, ReportsTheSameLifecycleFaults)
{
    Audit audit(collectingConfig());
    FakeReq a;
    a.id = 7;
    a.src_sm = 3;
    a.line = 0x80;
    audit.onInject(a, 10);
    audit.onInject(a, 11);              // duplicate
    FakeReq never;
    never.id = 9;
    never.src_sm = 3;
    audit.onStage(never, ReqStage::XbarReq);
    FakeReq other_sm = a;
    other_sm.src_sm = 4;                // same id, SM without a ring
    audit.onRetire(other_sm);
    audit.onRetire(a);
    audit.onRetire(a);                  // twice
    const std::vector<std::string> want = {
        "lifecycle: duplicate injection of request id 7 from SM 3",
        "lifecycle: request id 9 from SM 3 reached stage xbar_req without "
        "being injected",
        "lifecycle: request id 7 from SM 4 retired twice (or never "
        "injected)",
        "lifecycle: request id 7 from SM 3 retired twice (or never "
        "injected)",
    };
    EXPECT_EQ(audit.failures(), want);
    EXPECT_EQ(audit.liveRequests(), 0u);
    EXPECT_EQ(audit.injected(), 2u);
    EXPECT_EQ(audit.retired(), 1u);
}

TEST(AuditRing, InjectBelowTheOldestLiveIdAndAfterEmptying)
{
    Audit audit(collectingConfig());
    RefLifecycle ref;
    auto inject = [&](std::uint64_t id, Cycle now) {
        FakeReq r;
        r.id = id;
        r.line = id * kLineSize;
        audit.onInject(r, now);
        ref.live[RefLifecycle::key(r)] = {ReqStage::Injected, now, r.line,
                                          false};
    };
    auto retire = [&](std::uint64_t id) {
        FakeReq r;
        r.id = id;
        audit.onRetire(r);
        ref.live.erase(RefLifecycle::key(r));
    };
    inject(100, 1);
    inject(101, 2);
    retire(100);
    inject(50, 3);          // below the oldest live id: span widens down
    inject(300, 4);         // span 50..300 outgrows the ring: regrow
    retire(101);
    retire(50);
    retire(300);            // empty: the next id restarts the span
    inject(1'000'000, 5);
    inject(999'990, 6);
    EXPECT_TRUE(audit.failures().empty());
    audit.checkLifecycle(7, true);
    EXPECT_EQ(audit.failures(), ref.orphans(7));
    EXPECT_EQ(audit.failures().size(), 2u);
}

} // namespace
} // namespace caba
