#include "mem/dram.h"

#include <algorithm>

#include "common/audit.h"
#include "common/log.h"
#include "common/trace.h"

namespace caba {

namespace {

/** 256B chunks striped across channels; this is the chunk's index in
 *  the channel's local address space. */
constexpr Addr kChunkBytes = 256;

} // namespace

DramChannel::DramChannel(const DramConfig &cfg, int id)
    : cfg_(cfg), id_(id), banks_(cfg.banks)
{
    CABA_CHECK(cfg_.banks > 0 && cfg_.banks <= 64,
               "bank masks support 1..64 banks per channel");
    CABA_CHECK(cfg_.burst_quarters > 0, "bad burst time");
    CABA_CHECK(cfg_.write_drain_low < cfg_.write_drain_high &&
               cfg_.write_drain_high <= cfg_.write_queue_capacity,
               "bad write-drain marks");
    CABA_CHECK(cfg_.sched_window >= cfg_.queue_capacity &&
               cfg_.sched_window >= cfg_.write_queue_capacity,
               "scheduler window must cover the whole queue");
}

int
DramChannel::bankOf(Addr line) const
{
    // Channel-local layout [row | bank | column]: each bank owns
    // row_bytes of contiguous channel addresses per row, so a sweeping
    // stream keeps one open row per bank while striping across banks.
    const Addr chunk = line / kChunkBytes /
                       static_cast<Addr>(cfg_.channels);
    const Addr chunks_per_col =
        static_cast<Addr>(cfg_.row_bytes) / kChunkBytes;
    return static_cast<int>((chunk / chunks_per_col) % cfg_.banks);
}

std::int64_t
DramChannel::rowOf(Addr line) const
{
    const Addr chunk = line / kChunkBytes /
                       static_cast<Addr>(cfg_.channels);
    const Addr chunks_per_col =
        static_cast<Addr>(cfg_.row_bytes) / kChunkBytes;
    return static_cast<std::int64_t>(chunk / chunks_per_col / cfg_.banks);
}

bool
DramChannel::canAccept(bool is_write) const
{
    if (is_write)
        return static_cast<int>(write_q_.size()) <
               cfg_.write_queue_capacity;
    return static_cast<int>(read_q_.size()) < cfg_.queue_capacity;
}

void
DramChannel::enqueue(DramCmd cmd)
{
    CABA_CHECK(canAccept(cmd.is_write), "DRAM queue overflow");
    cmd.bank = bankOf(cmd.line);
    cmd.row = rowOf(cmd.line);
    Bank &b = banks_[static_cast<std::size_t>(cmd.bank)];
    const int qi = cmd.is_write ? 1 : 0;
    ++b.queued[qi];
    if (fault_skew_bank_count_) {
        // Seeded fault: the tally counts this command twice. The bank
        // only enters the activation mask early, where the queue scan
        // finds no command of it, so the schedule is unchanged.
        ++b.queued[qi];
        fault_skew_bank_count_ = false;
    }
    if (b.open_row == cmd.row)
        ++b.open_hits[qi];
    if (cmd.is_write) {
        write_q_.push_back(cmd);
        ++writes_enqueued_;
    } else {
        read_q_.push_back(cmd);
        ++reads_enqueued_;
        read_queue_depth_.record(read_q_.size());
    }
}

void
DramChannel::recountOpenHits(int bank)
{
    Bank &b = banks_[static_cast<std::size_t>(bank)];
    for (int qi = 0; qi < 2; ++qi) {
        b.open_hits[qi] = 0;
        for (const DramCmd &c : queue(qi)) {
            if (c.bank == bank && b.open_row == c.row)
                ++b.open_hits[qi];
        }
    }
}

std::uint64_t
DramChannel::casMask(int qi, Cycle now) const
{
    // Reads also wait out tWTR; every command in a queue shares its
    // direction, so the gate is per (bank, queue).
    std::uint64_t m = 0;
    for (int i = 0; i < cfg_.banks; ++i) {
        const Bank &b = banks_[static_cast<std::size_t>(i)];
        const Cycle turnaround = qi ? 0 : b.wtr_ready;
        if (b.open_hits[qi] > 0 && b.col_ready <= now &&
            b.act_done <= now && turnaround <= now) {
            m |= std::uint64_t{1} << i;
        }
    }
    return m;
}

std::uint64_t
DramChannel::actMask(int qi) const
{
    // Never close a row that still has queued hits: eager re-activation
    // would turn those hits into misses and thrash the row buffer. With
    // no queued command on the open row, every queued command of the
    // bank needs an activation.
    std::uint64_t m = 0;
    for (int i = 0; i < cfg_.banks; ++i) {
        const Bank &b = banks_[static_cast<std::size_t>(i)];
        if (b.queued[qi] > 0 && b.open_hits[0] + b.open_hits[1] == 0) {
            m |= std::uint64_t{1} << i;
        }
    }
    return m;
}

int
DramChannel::pickCas(int qi, Cycle now) const
{
    const std::uint64_t m = casMask(qi, now);
    if (m == 0)
        return -1;
    // The oldest open-row hit of a ready bank. sched_window covers the
    // whole queue (checked at construction), so no window bound applies.
    const std::deque<DramCmd> &q = queue(qi);
    for (std::size_t i = 0; i < q.size(); ++i) {
        const DramCmd &c = q[i];
        if ((m >> c.bank & 1) != 0 &&
            banks_[static_cast<std::size_t>(c.bank)].open_row == c.row) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

int
DramChannel::pickAct(int qi) const
{
    const std::uint64_t m = actMask(qi);
    if (m == 0)
        return -1;
    const std::deque<DramCmd> &q = queue(qi);
    for (std::size_t i = 0; i < q.size(); ++i) {
        if ((m >> q[i].bank & 1) != 0)
            return static_cast<int>(i);
    }
    return -1;  // only under the seeded bank-count fault
}

int
DramChannel::activeQueue()
{
    // Write-drain hysteresis (row-thrash control): writes batch in the
    // write buffer and drain together, instead of closing the rows the
    // read stream is hitting.
    if (draining_writes_) {
        if (static_cast<int>(write_q_.size()) <= cfg_.write_drain_low ||
            write_q_.empty()) {
            draining_writes_ = false;
        }
    } else {
        if (static_cast<int>(write_q_.size()) >= cfg_.write_drain_high ||
            read_q_.empty()) {
            draining_writes_ = true;
        }
    }
    if (draining_writes_ && !write_q_.empty())
        return 1;
    draining_writes_ = false;
    return 0;
}

void
DramChannel::issue(int qi, int idx, Cycle now)
{
    std::deque<DramCmd> &q = queue(qi);
    const int bank_idx = q[static_cast<std::size_t>(idx)].bank;
    Bank &bank = banks_[static_cast<std::size_t>(bank_idx)];
    const std::int64_t row = q[static_cast<std::size_t>(idx)].row;

    if (bank.open_row != row) {
        // Activation phase: precharge + activate bookkeeping only. The
        // command stays queued; its CAS issues once the row is open, so
        // the data bus is never reserved across the activation latency.
        const Cycle pre =
            std::max({now, bank.data_end, bank.write_recover});
        const Cycle act = std::max({pre + cfg_.tRP,
                                    bank.last_activate + cfg_.tRC,
                                    last_activate_any_ + cfg_.tRRD});
        bank.last_activate = act;
        last_activate_any_ = act;
        bank.open_row = row;
        bank.act_done = act + cfg_.tRCD;
        bank.col_ready = bank.act_done;
        q[idx].activated = true;
        ++row_misses_;
        recountOpenHits(bank_idx);
        // Move the claiming command to the front: its CAS is then the
        // first hit the row serves, and the issue order depends on it.
        if (idx > 0) {
            DramCmd moved = q[idx];
            q.erase(q.begin() + idx);
            q.push_front(moved);
        }
        return;
    }

    DramCmd cmd = q[idx];
    q.erase(q.begin() + idx);
    --bank.queued[qi];
    --bank.open_hits[qi];   // a CAS always targets the open row
    if (!cmd.activated)
        ++row_hits_;

    // Column command: pipelines at tCCDL spacing; the CAS latency
    // overlaps with earlier transfers. tWTR gates only read-after-write.
    Cycle col = std::max({now, bank.col_ready, bank.act_done});
    if (!cmd.is_write)
        col = std::max(col, bank.wtr_ready);
    bank.col_ready = col + cfg_.tCCDL;
    Cycle data_ready = col + cfg_.tCL;

    data_ready += cmd.extra_latency;

    const int bursts = cmd.bursts + cmd.extra_bursts;
    const std::uint64_t start_q =
        std::max(bus_free_q_, static_cast<std::uint64_t>(data_ready) * 4);
    const std::uint64_t busy_q =
        static_cast<std::uint64_t>(bursts) * cfg_.burst_quarters;
    bus_free_q_ = start_q + busy_q;
    bus_busy_q_ += busy_q;

    const Cycle finish = (bus_free_q_ + 3) / 4;
    bank.data_end = finish;
    if (cmd.is_write) {
        bank.write_recover = finish + cfg_.tWR;
        bank.wtr_ready = finish + cfg_.tWTR;
    }

    (cmd.is_write ? writes_ : reads_) += 1;
    bursts_ += static_cast<std::uint64_t>(bursts);
    data_bursts_ += static_cast<std::uint64_t>(cmd.bursts);
    overhead_bursts_ += static_cast<std::uint64_t>(cmd.extra_bursts);
    queue_wait_cycles_ += now - cmd.enqueued;

    if (trace::on(trace::kDram)) {
        // One span per access covering its data-bus occupancy, on the
        // bank's own timeline row (quarter-cycles rounded to cycles).
        const Cycle bus_start = start_q / 4;
        const Cycle bus_dur = std::max<std::uint64_t>(1, busy_q / 4);
        trace::complete(trace::kDram, trace::kPidDram,
                        id_ * 100 + bank_idx,
                        cmd.is_write ? "write" : "read", bus_start, bus_dur,
                        "line", cmd.line);
    }

    completed_.push_back({cmd.id, cmd.is_write, finish});
}

void
DramChannel::advanceBusWindows(Cycle now)
{
    // Lazy boundary advance: closes every window that ended by `now`.
    // Busy quarters are frozen during quiescent stretches, so skipped
    // windows record the same (usually zero) delta a ticked loop would.
    while (bus_window_start_ + kBusWindowCycles <= now) {
        bus_window_busy_.record(bus_busy_q_ - bus_window_base_);
        bus_window_base_ = bus_busy_q_;
        bus_window_start_ += kBusWindowCycles;
    }
}

void
DramChannel::cycle(Cycle now)
{
    advanceBusWindows(now);
    if (read_q_.empty() && write_q_.empty())
        return;
    if (static_cast<int>(completed_.size()) >= cfg_.banks + 8) {
        ++sched_blocked_cap_;
        return;
    }
    const int qi = activeQueue();

    // One activation and one CAS may issue per cycle (command/address
    // bandwidth is not the bottleneck this model studies).
    const int act_idx = pickAct(qi);
    if (act_idx >= 0)
        issue(qi, act_idx, now);

    const int cas_idx = pickCas(qi, now);
    if (cas_idx >= 0) {
        issue(qi, cas_idx, now);
        return;
    }
    // Opportunistic CAS from the inactive queue: open-row hits there
    // cost almost nothing, and claims/hits left stranded across
    // drain-mode switches would otherwise wedge their banks (row
    // re-activation is blocked while same-row work is queued).
    const int other_idx = pickCas(1 - qi, now);
    if (other_idx >= 0) {
        issue(1 - qi, other_idx, now);
        return;
    }
    if (act_idx < 0)
        ++sched_no_eligible_;
}

Cycle
DramChannel::nextWork(Cycle now) const
{
    Cycle e = kNoWork;
    // Queued completions become partition work at their finish time.
    for (const DramCompletion &c : completed_)
        e = std::min(e, c.finish > now ? c.finish : now);
    if (read_q_.empty() && write_q_.empty())
        return e;
    if (static_cast<int>(completed_.size()) >= cfg_.banks + 8)
        return e;   // scheduler blocked until a completion drains
    // Replicate activeQueue()'s hysteresis without mutating it. With
    // static queues the drain flag reaches a fixpoint after one update;
    // if a second update disagrees it oscillates cycle-to-cycle (empty
    // read queue, small write backlog) and no cycle is skippable.
    auto drain_step = [this](bool d) {
        if (d) {
            if (static_cast<int>(write_q_.size()) <= cfg_.write_drain_low ||
                write_q_.empty()) {
                d = false;
            }
        } else {
            if (static_cast<int>(write_q_.size()) >= cfg_.write_drain_high ||
                read_q_.empty()) {
                d = true;
            }
        }
        return d;
    };
    const bool d1 = drain_step(draining_writes_);
    if (drain_step(d1) != d1)
        return now;
    if (actMask(d1 && !write_q_.empty() ? 1 : 0) != 0)
        return now;     // activation eligibility is time-independent
    // No activation possible: the next issue is the earliest CAS whose
    // bank timing gates clear. pickCas serves both queues (active +
    // opportunistic), so so does the bound; each bank's open-row hits
    // in one queue share one gate.
    for (const Bank &b : banks_) {
        const Cycle col = std::max(b.col_ready, b.act_done);
        if (b.open_hits[0] > 0) {
            const Cycle t = std::max(col, b.wtr_ready);
            e = std::min(e, t > now ? t : now);
        }
        if (b.open_hits[1] > 0)
            e = std::min(e, col > now ? col : now);
    }
    return e;
}

void
DramChannel::skipIdle(Cycle from, Cycle to)
{
    // Matches what cycle() would have counted on each skipped cycle:
    // nothing when fully idle, the in-flight-cap stall when completions
    // back up, the no-eligible-command stall otherwise. The write-drain
    // flag is left alone: nextWork() only permits a skip when it is at
    // its fixpoint for the current queue state.
    //
    // Window boundaries must match the ticked loop exactly: cycle(t)
    // runs for t in [from, to) there, so the last advance a skip may
    // replicate is to-1 — advancing to `to` would close a window one
    // call early and break byte-identicality across loop modes.
    advanceBusWindows(to - 1);
    if (read_q_.empty() && write_q_.empty())
        return;
    const std::uint64_t k = to - from;
    if (static_cast<int>(completed_.size()) >= cfg_.banks + 8)
        sched_blocked_cap_ += k;
    else
        sched_no_eligible_ += k;
}

void
DramChannel::drainCompleted(Cycle now, std::vector<DramCompletion> *out)
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

double
DramChannel::busUtilization(Cycle elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    return static_cast<double>(bus_busy_q_) /
           (static_cast<double>(elapsed) * 4.0);
}

StatSet
DramChannel::stats() const
{
    StatSet s;
    s.setCounter("row_hits", row_hits_);
    s.setCounter("row_misses", row_misses_);
    s.setCounter("activates", row_misses_);
    s.setCounter("reads", reads_);
    s.setCounter("writes", writes_);
    s.setCounter("bursts", bursts_);
    s.setCounter("data_bursts", data_bursts_);
    s.setCounter("overhead_bursts", overhead_bursts_);
    s.setCounter("queue_wait_cycles", queue_wait_cycles_);
    s.setCounter("reads_enqueued", reads_enqueued_);
    s.setCounter("writes_enqueued", writes_enqueued_);
    s.setCounter("sched_no_eligible", sched_no_eligible_);
    s.setCounter("sched_blocked_inflight_cap", sched_blocked_cap_);
    s.dist("read_queue_depth").merge(read_queue_depth_);
    s.dist("bus_window_busy_quarters").merge(bus_window_busy_);
    return s;
}

void
DramChannel::audit(Audit &a, bool at_drain) const
{
    a.checkEq("dram", "bursts == data_bursts + overhead_bursts", bursts_,
              data_bursts_ + overhead_bursts_);
    a.checkLe("dram", "reads issued <= reads enqueued", reads_,
              reads_enqueued_);
    a.checkLe("dram", "writes issued <= writes enqueued", writes_,
              writes_enqueued_);
    // The scheduler's per-bank tallies against a recount of both queues.
    std::uint64_t tallies_off = 0;
    for (int bank = 0; bank < cfg_.banks; ++bank) {
        const Bank &b = banks_[static_cast<std::size_t>(bank)];
        for (int qi = 0; qi < 2; ++qi) {
            int queued = 0;
            int hits = 0;
            for (const DramCmd &c : queue(qi)) {
                if (c.bank == bank) {
                    ++queued;
                    hits += b.open_row == c.row ? 1 : 0;
                }
            }
            if (queued != b.queued[qi] || hits != b.open_hits[qi])
                ++tallies_off;
        }
    }
    a.checkEq("dram", "per-bank queued/open_hits tallies match a recount",
              tallies_off, 0);
    if (at_drain) {
        a.checkEq("dram", "every enqueued read issued at drain",
                  reads_enqueued_, reads_);
        a.checkEq("dram", "every enqueued write issued at drain",
                  writes_enqueued_, writes_);
        a.checkTrue("dram", "queues empty at drain", !busy());
    }
}

} // namespace caba
