/**
 * @file
 * Unit tests for the GDDR5 channel model: bus saturation on sequential
 * streams, tRRD-bound scatter, write batching, compression's burst
 * savings, and bandwidth scaling — the physics Figures 7/8/12 rest on;
 * plus a differential test of the masked FR-FCFS pickers against the
 * historical linear-scan scheduler, and the audit's tally recount.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <tuple>
#include <vector>

#include "common/audit.h"
#include "common/rng.h"
#include "mem/dram.h"

namespace caba {
namespace {

struct Feeder
{
    DramChannel ch;
    std::uint64_t id = 1;
    std::uint64_t seq = 0;
    std::uint64_t served_reads = 0;
    std::uint64_t served_writes = 0;
    Rng rng{42};

    explicit Feeder(const DramConfig &cfg) : ch(cfg) {}

    /** Runs @p cycles, keeping queues fed by @p filler. */
    template <typename F>
    void
    run(Cycle cycles, F filler)
    {
        std::vector<DramCompletion> done;
        for (Cycle now = 0; now < cycles; ++now) {
            filler(*this, now);
            ch.cycle(now);
            done.clear();
            ch.drainCompleted(now, &done);
            for (const DramCompletion &d : done)
                (d.is_write ? served_writes : served_reads) += 1;
        }
    }

    void
    feedSeqReads(int bursts)
    {
        while (ch.canAccept(false)) {
            DramCmd c;
            c.id = id++;
            c.line = (seq++) * kLineSize;
            c.bursts = bursts;
            ch.enqueue(c);
        }
    }
};

DramConfig
oneChannel()
{
    DramConfig cfg;
    cfg.channels = 1;
    return cfg;
}

TEST(Dram, SequentialReadsSaturateTheBus)
{
    Feeder f(oneChannel());
    f.run(100000, [](Feeder &s, Cycle) { s.feedSeqReads(kBurstsPerLine); });
    EXPECT_GT(f.ch.busUtilization(100000), 0.95);
    const StatSet s = f.ch.stats();
    const double hit_rate =
        static_cast<double>(s.get("row_hits")) /
        static_cast<double>(s.get("row_hits") + s.get("row_misses"));
    EXPECT_GT(hit_rate, 0.85);
}

TEST(Dram, CompressedLinesDoubleServiceRate)
{
    Feeder full(oneChannel());
    full.run(50000, [](Feeder &s, Cycle) { s.feedSeqReads(4); });
    Feeder half(oneChannel());
    half.run(50000, [](Feeder &s, Cycle) { s.feedSeqReads(2); });
    EXPECT_GT(static_cast<double>(half.served_reads),
              1.7 * static_cast<double>(full.served_reads));
}

TEST(Dram, RandomScatterIsActivateBound)
{
    Feeder f(oneChannel());
    f.run(100000, [](Feeder &s, Cycle) {
        while (s.ch.canAccept(false)) {
            DramCmd c;
            c.id = s.id++;
            c.line = s.rng.below(1 << 22) * kLineSize;
            c.bursts = kBurstsPerLine;
            s.ch.enqueue(c);
        }
    });
    // tRRD=6 caps activations at 1/6 per cycle; one line per activate.
    const double rate = static_cast<double>(f.served_reads) / 100000.0;
    EXPECT_LT(rate, 0.18);
    EXPECT_GT(rate, 0.12);
}

TEST(Dram, BandwidthScalingChangesBurstTime)
{
    DramConfig half = oneChannel();
    half.burst_quarters = 12;   // 0.5x bandwidth
    Feeder fh(half);
    fh.run(50000, [](Feeder &s, Cycle) { s.feedSeqReads(4); });

    Feeder f1(oneChannel());
    f1.run(50000, [](Feeder &s, Cycle) { s.feedSeqReads(4); });

    EXPECT_NEAR(static_cast<double>(f1.served_reads) /
                    static_cast<double>(fh.served_reads),
                2.0, 0.2);
}

TEST(Dram, WritesAreBatchedNotInterleaved)
{
    // Reads stream sequentially; writes hit scattered old rows. With
    // drain-mode batching the read row-hit rate stays high.
    Feeder f(oneChannel());
    f.run(100000, [](Feeder &s, Cycle) {
        s.feedSeqReads(kBurstsPerLine);
        while (s.ch.canAccept(true) && s.rng.chance(0.3)) {
            DramCmd c;
            c.id = s.id++;
            c.is_write = true;
            c.line = s.rng.below(1 << 20) * kLineSize;
            c.bursts = kBurstsPerLine;
            s.ch.enqueue(c);
        }
    });
    EXPECT_GT(f.served_writes, 0u);
    EXPECT_GT(f.ch.busUtilization(100000), 0.8);
}

TEST(Dram, OverheadBurstsAreAccounted)
{
    Feeder f(oneChannel());
    f.run(20000, [](Feeder &s, Cycle) {
        while (s.ch.canAccept(false)) {
            DramCmd c;
            c.id = s.id++;
            c.line = (s.seq++) * kLineSize;
            c.bursts = 2;
            c.extra_bursts = 1;     // MD-cache miss
            s.ch.enqueue(c);
        }
    });
    const StatSet s = f.ch.stats();
    EXPECT_EQ(s.get("overhead_bursts"), s.get("reads"));
    EXPECT_EQ(s.get("bursts"),
              s.get("data_bursts") + s.get("overhead_bursts"));
}

TEST(Dram, DrainsCompletelyWhenStarved)
{
    Feeder f(oneChannel());
    bool fed = false;
    f.run(5000, [&fed](Feeder &s, Cycle now) {
        if (!fed && now == 0) {
            s.feedSeqReads(4);
            fed = true;
        }
    });
    EXPECT_FALSE(f.ch.busy());
    EXPECT_EQ(f.served_reads, f.ch.stats().get("reads_enqueued"));
}

TEST(Dram, QueueCapacityIsHonored)
{
    DramChannel ch(oneChannel());
    int pushed = 0;
    while (ch.canAccept(false)) {
        DramCmd c;
        c.id = static_cast<std::uint64_t>(pushed);
        c.line = static_cast<Addr>(pushed) * kLineSize;
        ch.enqueue(c);
        ++pushed;
    }
    EXPECT_EQ(pushed, oneChannel().queue_capacity);
    EXPECT_TRUE(ch.canAccept(true));    // write queue independent
}

// ------------------------------------------- masked FR-FCFS differential

/**
 * The historical channel scheduler, written out as linear scans: each
 * cycle pickAct/pickCas walk the queue testing every command against
 * its bank, and nextWork walks both queues command by command. It keeps
 * the timing and issue rules of DramChannel and only the counters the
 * comparison needs.
 */
class RefDram
{
  public:
    explicit RefDram(const DramConfig &cfg)
        : cfg_(cfg), banks_(static_cast<std::size_t>(cfg.banks))
    {}

    bool
    canAccept(bool is_write) const
    {
        return static_cast<int>((is_write ? write_q_ : read_q_).size()) <
               (is_write ? cfg_.write_queue_capacity : cfg_.queue_capacity);
    }

    void
    enqueue(DramCmd cmd)
    {
        const Addr chunk = cmd.line / 256 / static_cast<Addr>(cfg_.channels);
        const Addr per_col = static_cast<Addr>(cfg_.row_bytes) / 256;
        cmd.bank = static_cast<int>((chunk / per_col) % cfg_.banks);
        cmd.row = static_cast<std::int64_t>(chunk / per_col / cfg_.banks);
        Bank &b = banks_[static_cast<std::size_t>(cmd.bank)];
        if (b.open_row == cmd.row)
            ++b.open_matches;
        (cmd.is_write ? write_q_ : read_q_).push_back(cmd);
    }

    void
    cycle(Cycle now)
    {
        if (read_q_.empty() && write_q_.empty())
            return;
        if (static_cast<int>(completed_.size()) >= cfg_.banks + 8) {
            ++blocked_cap_;
            return;
        }
        std::deque<DramCmd> &q = activeQueue();
        const int act = pickAct(q);
        if (act >= 0)
            issue(q, act, now);
        const int cas = pickCas(q, now);
        if (cas >= 0) {
            issue(q, cas, now);
            return;
        }
        std::deque<DramCmd> &other = (&q == &read_q_) ? write_q_ : read_q_;
        const int oc = pickCas(other, now);
        if (oc >= 0) {
            issue(other, oc, now);
            return;
        }
        if (act < 0)
            ++no_eligible_;
    }

    Cycle
    nextWork(Cycle now) const
    {
        Cycle e = kNoWork;
        for (const DramCompletion &c : completed_)
            e = std::min(e, c.finish > now ? c.finish : now);
        if (read_q_.empty() && write_q_.empty())
            return e;
        if (static_cast<int>(completed_.size()) >= cfg_.banks + 8)
            return e;
        const bool d1 = drainStep(draining_);
        if (drainStep(d1) != d1)
            return now;
        if (pickAct(d1 && !write_q_.empty() ? write_q_ : read_q_) >= 0)
            return now;
        for (const std::deque<DramCmd> *cq : {&read_q_, &write_q_}) {
            for (const DramCmd &c : *cq) {
                const Bank &b = banks_[static_cast<std::size_t>(c.bank)];
                if (b.open_row != c.row)
                    continue;
                Cycle t = std::max(b.col_ready, b.act_done);
                if (!c.is_write)
                    t = std::max(t, b.wtr_ready);
                e = std::min(e, t > now ? t : now);
            }
        }
        return e;
    }

    void
    skipIdle(Cycle from, Cycle to)
    {
        if (read_q_.empty() && write_q_.empty())
            return;
        if (static_cast<int>(completed_.size()) >= cfg_.banks + 8)
            blocked_cap_ += to - from;
        else
            no_eligible_ += to - from;
    }

    void
    drainCompleted(Cycle now, std::vector<DramCompletion> *out)
    {
        for (std::size_t i = 0; i < completed_.size();) {
            if (completed_[i].finish <= now) {
                out->push_back(completed_[i]);
                completed_[i] = completed_.back();
                completed_.pop_back();
            } else {
                ++i;
            }
        }
    }

    std::uint64_t row_hits_ = 0;
    std::uint64_t row_misses_ = 0;
    std::uint64_t bursts_ = 0;
    std::uint64_t queue_wait_ = 0;
    std::uint64_t no_eligible_ = 0;
    std::uint64_t blocked_cap_ = 0;

  private:
    struct Bank
    {
        std::int64_t open_row = -1;
        Cycle col_ready = 0;
        Cycle act_done = 0;
        Cycle last_activate = 0;
        Cycle data_end = 0;
        Cycle write_recover = 0;
        Cycle wtr_ready = 0;
        std::int64_t pending_row = -1;
        int open_matches = 0;
    };

    bool
    drainStep(bool d) const
    {
        const int w = static_cast<int>(write_q_.size());
        if (d)
            return !(w <= cfg_.write_drain_low || write_q_.empty());
        return w >= cfg_.write_drain_high || read_q_.empty();
    }

    std::deque<DramCmd> &
    activeQueue()
    {
        draining_ = drainStep(draining_);
        if (draining_ && !write_q_.empty())
            return write_q_;
        draining_ = false;
        return read_q_;
    }

    int
    pickCas(const std::deque<DramCmd> &q, Cycle now) const
    {
        for (std::size_t i = 0; i < q.size(); ++i) {
            const DramCmd &c = q[i];
            const Bank &b = banks_[static_cast<std::size_t>(c.bank)];
            const Cycle turnaround = c.is_write ? 0 : b.wtr_ready;
            if (b.open_row == c.row && b.col_ready <= now &&
                b.act_done <= now && turnaround <= now) {
                return static_cast<int>(i);
            }
        }
        return -1;
    }

    int
    pickAct(const std::deque<DramCmd> &q) const
    {
        for (std::size_t i = 0; i < q.size(); ++i) {
            const DramCmd &c = q[i];
            const Bank &b = banks_[static_cast<std::size_t>(c.bank)];
            if (b.open_row != c.row && b.pending_row < 0 &&
                b.open_matches == 0) {
                return static_cast<int>(i);
            }
        }
        return -1;
    }

    void
    issue(std::deque<DramCmd> &q, int idx, Cycle now)
    {
        const std::size_t i = static_cast<std::size_t>(idx);
        Bank &bank = banks_[static_cast<std::size_t>(q[i].bank)];
        const std::int64_t row = q[i].row;
        if (bank.open_row != row) {
            const Cycle pre =
                std::max({now, bank.data_end, bank.write_recover});
            const Cycle act = std::max({pre + cfg_.tRP,
                                        bank.last_activate + cfg_.tRC,
                                        last_act_any_ + cfg_.tRRD});
            bank.last_activate = act;
            last_act_any_ = act;
            bank.open_row = row;
            bank.act_done = act + cfg_.tRCD;
            bank.col_ready = bank.act_done;
            bank.pending_row = row;
            q[i].activated = true;
            ++row_misses_;
            bank.open_matches = 0;
            for (const std::deque<DramCmd> *cq : {&read_q_, &write_q_}) {
                for (const DramCmd &c : *cq) {
                    if (c.bank == q[i].bank && c.row == row)
                        ++bank.open_matches;
                }
            }
            if (idx > 0) {
                const DramCmd moved = q[i];
                q.erase(q.begin() + idx);
                q.push_front(moved);
            }
            return;
        }
        const DramCmd cmd = q[i];
        q.erase(q.begin() + idx);
        if (bank.open_matches > 0)
            --bank.open_matches;
        if (bank.pending_row == row)
            bank.pending_row = -1;
        if (!cmd.activated)
            ++row_hits_;
        Cycle col = std::max({now, bank.col_ready, bank.act_done});
        if (!cmd.is_write)
            col = std::max(col, bank.wtr_ready);
        bank.col_ready = col + cfg_.tCCDL;
        const Cycle data_ready = col + cfg_.tCL + cmd.extra_latency;
        const int bursts = cmd.bursts + cmd.extra_bursts;
        const std::uint64_t start_q = std::max(
            bus_free_q_, static_cast<std::uint64_t>(data_ready) * 4);
        bus_free_q_ = start_q + static_cast<std::uint64_t>(bursts) *
                                    cfg_.burst_quarters;
        const Cycle finish = (bus_free_q_ + 3) / 4;
        bank.data_end = finish;
        if (cmd.is_write) {
            bank.write_recover = finish + cfg_.tWR;
            bank.wtr_ready = finish + cfg_.tWTR;
        }
        bursts_ += static_cast<std::uint64_t>(bursts);
        queue_wait_ += now - cmd.enqueued;
        completed_.push_back({cmd.id, cmd.is_write, finish});
    }

    DramConfig cfg_;
    std::vector<Bank> banks_;
    std::deque<DramCmd> read_q_;
    std::deque<DramCmd> write_q_;
    bool draining_ = false;
    std::vector<DramCompletion> completed_;
    std::uint64_t bus_free_q_ = 0;
    Cycle last_act_any_ = 0;
};

/** An audit that records failures instead of panicking. */
AuditConfig
collectingAudit()
{
    AuditConfig cfg;
    cfg.fatal = false;
    cfg.ignore_env = true;
    return cfg;
}

using Done = std::tuple<std::uint64_t, bool, Cycle>;

std::vector<Done>
drained(std::vector<DramCompletion> v)
{
    std::vector<Done> out;
    for (const DramCompletion &c : v)
        out.emplace_back(c.id, c.is_write, c.finish);
    return out;
}

/** Random enqueue/cycle/drain churn, with quiescence skips where both
 *  schedulers agree nothing can issue; every decision is compared. */
void
churnAgainstReference(const DramConfig &cfg, std::uint64_t seed)
{
    DramChannel ch(cfg);
    RefDram ref(cfg);
    Rng rng(seed);
    std::uint64_t id = 1;
    // Few rows per bank: plenty of row hits, conflicts and reclaims.
    const Addr rows = 3;
    const Addr lines_per_chunk = 256 / kLineSize;
    const Addr cols = static_cast<Addr>(cfg.row_bytes) / 256;
    Cycle now = 0;
    std::uint64_t completions = 0;
    while (now < 30000) {
        const Cycle next = ch.nextWork(now);
        ASSERT_EQ(next, ref.nextWork(now)) << "cycle " << now;
        // Traffic arrives in bursts with quiet gaps, so queues both
        // back up (write drains, the in-flight cap) and run dry.
        const bool quiet = (now / 2000) % 3 == 2;
        if (!quiet) {
            for (int k = 0; k < 2; ++k) {
                const bool w = rng.chance(0.3);
                if (!rng.chance(0.6) || !ch.canAccept(w))
                    continue;
                ASSERT_TRUE(ref.canAccept(w));
                DramCmd c;
                c.id = id++;
                c.is_write = w;
                const Addr bank = rng.below(static_cast<std::uint64_t>(
                    cfg.banks));
                const Addr row = rng.below(rows);
                const Addr chunk =
                    ((row * static_cast<Addr>(cfg.banks) + bank) * cols +
                     rng.below(cols)) * static_cast<Addr>(cfg.channels);
                c.line = chunk * 256 + rng.below(lines_per_chunk) * kLineSize;
                c.bursts = 1 + static_cast<int>(rng.below(kBurstsPerLine));
                c.extra_bursts = rng.chance(0.1) ? 1 : 0;
                c.extra_latency = rng.chance(0.1) ? 20 : 0;
                c.enqueued = now;
                ch.enqueue(c);
                ref.enqueue(c);
            }
        } else if (next > now && rng.chance(0.5)) {
            // Quiescence skip, as the event loop takes it.
            const Cycle to = std::min<Cycle>(next, now + 1 + rng.below(50));
            ch.skipIdle(now, to);
            ref.skipIdle(now, to);
            now = to;
            continue;
        }
        ch.cycle(now);
        ref.cycle(now);
        if (rng.chance(0.7)) {
            std::vector<DramCompletion> a;
            std::vector<DramCompletion> b;
            ch.drainCompleted(now, &a);
            ref.drainCompleted(now, &b);
            ASSERT_EQ(drained(a), drained(b)) << "cycle " << now;
            completions += a.size();
        }
        ++now;
    }
    const StatSet s = ch.stats();
    EXPECT_EQ(s.get("row_hits"), ref.row_hits_);
    EXPECT_EQ(s.get("row_misses"), ref.row_misses_);
    EXPECT_EQ(s.get("bursts"), ref.bursts_);
    EXPECT_EQ(s.get("queue_wait_cycles"), ref.queue_wait_);
    EXPECT_EQ(s.get("sched_no_eligible"), ref.no_eligible_);
    EXPECT_EQ(s.get("sched_blocked_inflight_cap"), ref.blocked_cap_);
    // The churn must have exercised what the pickers decide between.
    EXPECT_GT(completions, 1000u);
    EXPECT_GT(ref.row_hits_, 100u);
    EXPECT_GT(ref.row_misses_, 100u);
    Audit audit(collectingAudit());
    ch.audit(audit, /*at_drain=*/false);
    EXPECT_TRUE(audit.failures().empty());
}

TEST(DramPickers, MatchReferenceScansAcrossBankCountsAndDrainMarks)
{
    struct Case { int banks; int high; int low; int rq; int wq; };
    const Case cases[] = {
        {16, 48, 8, 64, 64},    // Table 1
        {1, 4, 1, 8, 8},        // one bank: every pick on one mask bit
        {4, 12, 2, 16, 16},
        {7, 6, 5, 32, 8},       // tight hysteresis: frequent drain flips
        {64, 40, 20, 64, 48},   // the widest mask
    };
    std::uint64_t seed = 1;
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message() << c.banks << " banks, drain "
                                        << c.high << "/" << c.low);
        DramConfig cfg;
        cfg.channels = 2;
        cfg.banks = c.banks;
        cfg.write_drain_high = c.high;
        cfg.write_drain_low = c.low;
        cfg.queue_capacity = c.rq;
        cfg.write_queue_capacity = c.wq;
        churnAgainstReference(cfg, seed++);
    }
}

TEST(DramPickers, AuditRecountCatchesSkewedBankTally)
{
    DramChannel ch(oneChannel());
    ch.faultSkewNextBankCount();
    DramCmd c;
    c.id = 1;
    ch.enqueue(c);
    std::vector<DramCompletion> done;
    for (Cycle now = 0; now < 500; ++now) {
        ch.cycle(now);
        ch.drainCompleted(now, &done);
    }
    // The skewed tally leaves the schedule alone: the read completes.
    ASSERT_EQ(done.size(), 1u);
    Audit audit(collectingAudit());
    ch.audit(audit, /*at_drain=*/true);
    ASSERT_EQ(audit.failures().size(), 1u);
    EXPECT_NE(audit.failures()[0].find("tallies"), std::string::npos);
}

TEST(DramPickers, AuditRecountHoldsWithoutFault)
{
    DramChannel ch(oneChannel());
    DramCmd c;
    c.id = 1;
    ch.enqueue(c);
    Audit audit(collectingAudit());
    ch.audit(audit, /*at_drain=*/false);
    EXPECT_TRUE(audit.failures().empty());
}

} // namespace
} // namespace caba
