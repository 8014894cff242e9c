/**
 * @file
 * Event-driven loop foundations: the flat wake list that tracks
 * per-component wake times and their running minimum, and the warp
 * scheduler's struct-of-arrays selection bitsets, which must agree with
 * the historical per-warp reference loops under arbitrary state churn.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/component.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "sim/warp_scheduler.h"
#include "workloads/workload.h"

namespace caba {
namespace {

// ---------------------------------------------------------------- queue

/** Brute-force minimum over the flat array: what minTime() must equal
 *  outside a pass. */
Cycle
bruteMin(const EventQueue &eq)
{
    Cycle m = kNoWork;
    for (int id = 0; id < eq.size(); ++id)
        m = std::min(m, eq.when(id));
    return m;
}

TEST(EventQueue, StartsParked)
{
    EventQueue eq(4);
    EXPECT_EQ(eq.size(), 4);
    for (int id = 0; id < 4; ++id) {
        EXPECT_EQ(eq.when(id), kNoWork);
        EXPECT_FALSE(eq.due(id, 1'000'000));
    }
    EXPECT_EQ(eq.minTime(), kNoWork);
    EXPECT_EQ(eq.awake(), 0);
}

TEST(EventQueue, MinTimeTracksEarliestWake)
{
    EventQueue eq(3);
    eq.wake(0, 50);
    eq.wake(1, 10);
    eq.wake(2, 30);
    EXPECT_EQ(eq.minTime(), Cycle{10});
    EXPECT_TRUE(eq.due(1, 10));
    EXPECT_FALSE(eq.due(0, 10));
    // wake() only ever moves a time earlier.
    eq.wake(1, 40);
    EXPECT_EQ(eq.when(1), Cycle{10});
    EXPECT_EQ(eq.awake(), 3);
}

TEST(EventQueue, RescheduleSupersedesInBothDirections)
{
    EventQueue eq(2);
    eq.wake(0, 100);
    eq.wake(1, 200);
    // Earlier reschedule wins.
    eq.beginPass();
    eq.reschedule(0, 5);
    eq.keep(1);
    eq.endPass();
    EXPECT_EQ(eq.minTime(), Cycle{5});
    // Later reschedule (the requeue a busy component performs every
    // cycle) raises the minimum to the next earliest id.
    eq.beginPass();
    eq.reschedule(0, 300);
    eq.keep(1);
    eq.endPass();
    EXPECT_EQ(eq.minTime(), Cycle{200});
    EXPECT_EQ(eq.when(0), Cycle{300});
}

TEST(EventQueue, WakeInsidePassFoldsVisitedAndUnvisitedIds)
{
    EventQueue eq(3);
    eq.wake(0, 10);
    eq.wake(1, 10);
    eq.wake(2, 10);
    eq.beginPass();
    eq.reschedule(0, kNoWork);
    // The wire phase: id 0 (already visited) and id 2 (not yet) wake.
    eq.wake(0, 11);
    eq.wake(2, 10);
    eq.reschedule(1, 50);
    eq.reschedule(2, 40);   // id 2 ran and went back to sleep
    eq.endPass();
    EXPECT_EQ(eq.minTime(), Cycle{11});
    EXPECT_EQ(eq.minTime(), bruteMin(eq));
}

TEST(EventQueue, ParkingRemovesFromMin)
{
    EventQueue eq(2);
    eq.wake(0, 10);
    eq.wake(1, 20);
    eq.beginPass();
    eq.reschedule(0, kNoWork);
    eq.keep(1);
    eq.endPass();
    EXPECT_EQ(eq.minTime(), Cycle{20});
    eq.beginPass();
    eq.keep(0);
    eq.reschedule(1, kNoWork);
    eq.endPass();
    EXPECT_EQ(eq.minTime(), kNoWork);
    EXPECT_EQ(eq.awake(), 0);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq(2);
    eq.wake(0, 1);
    eq.reset(3);
    EXPECT_EQ(eq.size(), 3);
    EXPECT_EQ(eq.minTime(), kNoWork);
    EXPECT_EQ(eq.awake(), 0);
}

// Seeded churn in the shape of GpuSystem::stepEvent(): passes that run
// due ids and reschedule them (later, parked, or unchanged), with wakes
// landing mid-pass on visited and unvisited ids, plus wakes between
// passes. After every operation the running minimum must equal the
// brute-force minimum over the flat array.
TEST(EventQueue, RunningMinMatchesBruteForceUnderChurn)
{
    for (int ids : {1, 2, 5, 24, 64}) {
        Rng rng(0xE0E0u + static_cast<std::uint64_t>(ids));
        EventQueue eq(ids);
        Cycle now = 0;
        for (int id = 0; id < ids; ++id)
            eq.wake(id, now + rng.below(4));
        ASSERT_EQ(eq.minTime(), bruteMin(eq));
        auto random_wake = [&]() {
            const int id = static_cast<int>(rng.below(ids));
            eq.wake(id, now + rng.below(3));
        };
        for (int step = 0; step < 4000; ++step) {
            if (rng.chance(0.2)) {
                random_wake();
                ASSERT_EQ(eq.minTime(), bruteMin(eq)) << "step " << step;
                continue;
            }
            const int mid = static_cast<int>(rng.below(ids + 1));
            eq.beginPass();
            for (int id = 0; id < ids; ++id) {
                if (id == mid) {
                    for (int k = static_cast<int>(rng.below(3)); k > 0; --k)
                        random_wake();
                }
                if (!eq.due(id, now) || rng.chance(0.1)) {
                    eq.keep(id);
                    continue;
                }
                const std::uint64_t r = rng.below(10);
                const Cycle at = r == 0 ? kNoWork
                    : r < 7 ? now + 1 : now + 1 + rng.below(50);
                eq.reschedule(id, at);
            }
            eq.endPass();
            ASSERT_EQ(eq.minTime(), bruteMin(eq)) << "step " << step;
            // Jump like eventJump(): to the minimum, or one cycle on.
            now = eq.minTime() == kNoWork ? now + 1
                                          : std::max(now + 1, eq.minTime());
        }
    }
}

// ------------------------------------------------- scoreboard bitsets

/** Deterministic churn source (no external randomness in tests). */
struct Lcg
{
    std::uint64_t s = 0x2545f4914f6cdd1dull;
    std::uint32_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(s >> 33);
    }
    bool chance(int pct) { return next() % 100u < static_cast<unsigned>(pct); }
};

/** Reference predicates: the historical per-warp scans, recomputed from
 *  the scheduler's own (public) warp state every time. */
bool
refAnyReady(const WarpScheduler &sched, int max_warps)
{
    for (int w = 0; w < max_warps; ++w)
        if (sched.warpReady(sched.warp(w)))
            return true;
    return false;
}

bool
refAnyDecodable(const WarpScheduler &sched, int max_warps,
                int ibuffer_entries)
{
    if (!sched.kernel())
        return false;
    for (int w = 0; w < max_warps; ++w) {
        const WarpScheduler::WarpState &ws = sched.warp(w);
        if (ws.exists && !ws.done && !ws.decode_done &&
            ws.ibuf.size() < ibuffer_entries) {
            return true;
        }
    }
    return false;
}

/** Mirrors the historical pickAndIssue loop: predicts the exact visit
 *  sequence (greedy probe + rotated parity scan) from the scheduler's
 *  state plus its own greedy/rotation bookkeeping, which it updates
 *  under the same rules. */
struct RefPicker
{
    int max_warps;
    int schedulers;
    bool gto;
    std::vector<int> greedy;
    std::vector<int> lrr;

    RefPicker(int mw, int sc, bool g)
        : max_warps(mw), schedulers(sc), gto(g),
          greedy(static_cast<std::size_t>(sc), kInvalidWarp),
          lrr(static_cast<std::size_t>(sc), 0)
    {}

    /** Visit plan for scheduler @p s given the current warp state: the
     *  warps the historical loop would offer, in order. */
    std::vector<int>
    plan(const WarpScheduler &sched, int s) const
    {
        std::vector<int> visits;
        const int g = greedy[static_cast<std::size_t>(s)];
        if (gto && g != kInvalidWarp && sched.warpReady(sched.warp(g)))
            visits.push_back(g);
        const int slots = max_warps / schedulers;
        const int start = gto ? 0 : lrr[static_cast<std::size_t>(s)];
        for (int k = 0; k < slots; ++k) {
            const int w = ((start + k) % slots) * schedulers + s;
            const WarpScheduler::WarpState &ws = sched.warp(w);
            if (ws.exists && !ws.done && sched.warpReady(ws))
                visits.push_back(w);
        }
        return visits;
    }

    void
    noteSuccess(int s, int w)
    {
        const int slots = max_warps / schedulers;
        greedy[static_cast<std::size_t>(s)] = w;
        lrr[static_cast<std::size_t>(s)] = (w / schedulers + 1) % slots;
    }
};

/**
 * The historical issue rule: offer each planned warp in turn; a warp
 * fails its try when a structural hazard blocks its opcode, and the
 * failed try charges that hazard's kind to the slot. @p excluded names
 * the blocked hazard sets (bit IssueClass); the opcode grouping below is
 * the historical per-opcode check, written out independently of
 * issueClassOf().
 */
struct RefSlot
{
    int warp = kInvalidWarp;    ///< The accepted warp, or none.
    bool mem_block = false;
    bool comp_block = false;
};

RefSlot
refSlot(const WarpScheduler &sched, const std::vector<int> &visits,
        IssueClassMask excluded)
{
    auto blocked = [excluded](int cls) { return (excluded >> cls & 1) != 0; };
    RefSlot r;
    for (const int w : visits) {
        bool comp = false;
        bool mem = false;
        switch (sched.warp(w).ibuf.front().inst->op) {
          case Opcode::AluInt:
          case Opcode::AluFp:
          case Opcode::Mov:
            comp = blocked(kIssueAlu);
            break;
          case Opcode::Sfu:
            comp = blocked(kIssueSfu);
            break;
          case Opcode::LdShared:
          case Opcode::StShared:
            mem = blocked(kIssueShared);
            break;
          case Opcode::StGlobal:
            mem = blocked(kIssueGlobalStore);
            break;
          case Opcode::LdGlobal:
            mem = blocked(kIssueGlobalLoad);
            break;
          case Opcode::Branch:
          case Opcode::Exit:
            break;
        }
        if (!comp && !mem) {
            r.warp = w;
            return r;
        }
        r.comp_block = r.comp_block || comp;
        r.mem_block = r.mem_block || mem;
    }
    return r;
}

/** Checks one masked pick against the reference: the issued warp, and
 *  when nothing issues, the hazard kinds SmCore charges the slot. */
void
expectPickMatches(WarpScheduler &sched, int s, IssueClassMask excluded,
                  const RefSlot &want)
{
    int got = kInvalidWarp;
    int offers = 0;
    const bool issued = sched.pickAndIssue(s, excluded, [&](int w) {
        got = w;
        ++offers;
    });
    ASSERT_EQ(issued, want.warp != kInvalidWarp) << "mask " << excluded;
    ASSERT_EQ(got, want.warp) << "mask " << excluded;
    ASSERT_LE(offers, 1);
    if (!issued) {
        const IssueClassMask seen = sched.candidateClasses(s) & excluded;
        EXPECT_EQ((seen & kMemIssueClasses) != 0, want.mem_block)
            << "mask " << excluded;
        EXPECT_EQ((seen & ~kMemIssueClasses) != 0, want.comp_block)
            << "mask " << excluded;
    }
}

/** One churn round: masked picks (every exclusion mask on a copy, one
 *  random mask for real), random writebacks, a decode cycle — checking
 *  every scheduler decision against the reference loops. */
void
churnAndCheck(bool gto)
{
    constexpr int kMaxWarps = 16;
    constexpr int kSchedulers = 2;
    constexpr int kIbufEntries = 2;
    constexpr IssueClassMask kAllMasks = 1u << kNumIssueClasses;
    WarpScheduler sched(kMaxWarps, kSchedulers, kIbufEntries,
                        /*decode_width=*/2, gto);

    // A real looped program gives the ibufs genuine register
    // dependences, every issue class, and an Exit to retire warps.
    AppDescriptor app = findApp("CONS");
    app.iterations = 6;
    Workload wl(app);
    wl.bindGrid(kMaxWarps);
    sched.launch(&wl, kMaxWarps, 0, 1);

    Lcg rng;
    std::vector<std::uint64_t> outstanding(kMaxWarps, 0);
    RefPicker ref(kMaxWarps, kSchedulers, gto);
    int blocked_slots = 0;

    for (int round = 0; round < 4000; ++round) {
        ASSERT_EQ(sched.anyReady(), refAnyReady(sched, kMaxWarps));
        ASSERT_EQ(sched.anyDecodable(),
                  refAnyDecodable(sched, kMaxWarps, kIbufEntries));

        sched.decodeCycle();

        for (int s = 0; s < kSchedulers; ++s) {
            const auto visits = ref.plan(sched, s);
            // Every exclusion mask against the same state, on copies.
            for (IssueClassMask m = 0; m < kAllMasks; ++m) {
                WarpScheduler probe = sched;
                expectPickMatches(probe, s, m, refSlot(sched, visits, m));
            }
            // A random mask (each hazard set blocked 30% of the time)
            // picks for real and drives the churn.
            IssueClassMask excluded = 0;
            for (int c = 0; c < kNumIssueClasses; ++c)
                excluded |= rng.chance(30) ? 1u << c : 0u;
            const RefSlot want = refSlot(sched, visits, excluded);
            int got = kInvalidWarp;
            const bool issued =
                sched.pickAndIssue(s, excluded, [&](int w) {
                    got = w;
                    // Emulate SmCore's issue mutations.
                    WarpScheduler::WarpState &ws = sched.warp(w);
                    const Instruction &inst = *ws.ibuf.front().inst;
                    if (inst.op == Opcode::Exit) {
                        ws.done = true;
                        sched.noteWarpRetired();
                    } else if (inst.dst >= 0 && rng.chance(70)) {
                        const std::uint64_t m = std::uint64_t{1}
                                                << inst.dst;
                        ws.pending_regs |= m;
                        outstanding[static_cast<std::size_t>(w)] |= m;
                    }
                    ws.ibuf.pop();
                });
            ASSERT_EQ(got, want.warp);
            if (issued)
                ref.noteSuccess(s, got);
            else if (want.mem_block || want.comp_block)
                ++blocked_slots;
        }

        // Random writeback completions (ldst/ALU event hooks).
        for (int w = 0; w < kMaxWarps; ++w) {
            if (outstanding[static_cast<std::size_t>(w)] != 0 &&
                rng.chance(40)) {
                sched.clearPending(w,
                                   outstanding[static_cast<std::size_t>(w)]);
                outstanding[static_cast<std::size_t>(w)] = 0;
            }
        }
        if (sched.liveWarps() == 0)
            break;
    }
    // The churn must retire everything: otherwise the equivalence above
    // exercised only a truncated prefix of warp lifetimes. And the real
    // masks must have blocked every candidate of some slots.
    EXPECT_EQ(sched.liveWarps(), 0);
    EXPECT_GT(blocked_slots, 0);
}

TEST(WarpSchedulerBitsets, MatchesReferenceLoopsUnderChurnGto)
{
    churnAndCheck(/*gto=*/true);
}

TEST(WarpSchedulerBitsets, MatchesReferenceLoopsUnderChurnLrr)
{
    churnAndCheck(/*gto=*/false);
}

} // namespace
} // namespace caba
