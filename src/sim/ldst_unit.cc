#include "sim/ldst_unit.h"

#include "common/audit.h"
#include "common/log.h"
#include "common/trace.h"
#include "sim/sm_core.h"

namespace caba {

LdstUnit::LdstUnit(int sm_id, const SmConfig &cfg, const CacheConfig &l1_cfg,
                   Hooks *hooks)
    : sm_id_(sm_id), mshr_entries_(cfg.mshr_entries),
      out_queue_(cfg.out_queue), lines_per_cycle_(cfg.lines_per_cycle),
      hooks_(hooks), l1_(l1_cfg),
      mshrs_(static_cast<std::size_t>(cfg.mshr_entries)),
      out_req_(cfg.out_queue)
{
    CABA_CHECK(hooks_, "LDST unit needs core hooks");
    loads_.resize(static_cast<std::size_t>(cfg.max_warps) * 8);
    for (int i = static_cast<int>(loads_.size()) - 1; i >= 0; --i)
        free_load_slots_.push_back(i);
}

MemAccess &
LdstUnit::beginAccess(bool is_store, int warp)
{
    CABA_CHECK(!st_.busy, "LDST unit already busy");
    st_.busy = true;
    st_.is_store = is_store;
    st_.warp = warp;
    st_.cursor = 0;
    return st_.access;
}

void
LdstUnit::armLoad(int warp, std::uint64_t regmask)
{
    st_.load_slot = allocLoadSlot(
        warp, regmask, static_cast<int>(st_.access.lines.size()));
}

int
LdstUnit::allocLoadSlot(int warp, std::uint64_t regmask, int lines)
{
    CABA_CHECK(!free_load_slots_.empty(), "load slot pool exhausted");
    const int slot = free_load_slots_.back();
    free_load_slots_.pop_back();
    PendingLoad &pl = loads_[static_cast<std::size_t>(slot)];
    pl.active = true;
    pl.warp = warp;
    pl.regmask = regmask;
    pl.lines_left = lines;
    return slot;
}

void
LdstUnit::loadLineDone(int slot)
{
    if (slot < 0)
        return;
    PendingLoad &pl = loads_[static_cast<std::size_t>(slot)];
    CABA_CHECK(pl.active, "completion for dead load");
    if (--pl.lines_left == 0) {
        hooks_->clearPending(pl.warp, pl.regmask);
        if (fault_leak_load_slot_) {
            // Seeded fault: the warp proceeds but the slot is never
            // freed -- invisible to drained(). The audit must notice.
            fault_leak_load_slot_ = false;
            return;
        }
        pl.active = false;
        free_load_slots_.push_back(slot);
    }
}

void
LdstUnit::completeFill(Addr line, int bytes)
{
    std::vector<Eviction> evicted;
    l1_.insert(line, bytes, false, &evicted);   // L1 is write-evict: clean
    const Mshr *m = mshrs_.find(line);
    if (m == nullptr)
        return;                                 // e.g. prefetch raced
    for (int w = m->head; w >= 0;) {
        const Waiter done = waiters_[static_cast<std::size_t>(w)];
        waiters_[static_cast<std::size_t>(w)].next = free_waiter_;
        free_waiter_ = w;
        loadLineDone(done.load_slot);
        w = done.next;
    }
    mshrs_.erase(line);
}

void
LdstUnit::addWaiter(Mshr &m, int load_slot)
{
    int w = free_waiter_;
    if (w >= 0) {
        free_waiter_ = waiters_[static_cast<std::size_t>(w)].next;
        waiters_[static_cast<std::size_t>(w)] = {load_slot, -1};
    } else {
        w = static_cast<int>(waiters_.size());
        waiters_.push_back({load_slot, -1});
    }
    if (m.tail >= 0)
        waiters_[static_cast<std::size_t>(m.tail)].next = w;
    else
        m.head = w;
    m.tail = w;
}

bool
LdstUnit::issuePrefetch(Addr line, Cycle now)
{
    if (!l1_.contains(line) && mshrs_.find(line) == nullptr &&
        static_cast<int>(mshrs_.size()) < mshr_entries_ &&
        static_cast<int>(out_req_.size()) < out_queue_) {
        mshrs_.insert(line);            // fill with no waiters
        MemRequest req;
        req.id = hooks_->allocReqId();
        req.line = line;
        req.src_sm = sm_id_;
        req.payload_bytes = 8;
        out_req_.push(req);
        if (audit_)
            audit_->onInject(req, now);
        return true;
    }
    return false;
}

bool
LdstUnit::drain(Cycle now)
{
    if (!st_.busy)
        return false;
    for (int n = 0; n < lines_per_cycle_; ++n) {
        if (st_.cursor >= st_.access.lines.size()) {
            st_.busy = false;
            return false;
        }
        const Addr line = st_.access.lines[st_.cursor];
        if (!st_.is_store) {
            // ---- load line ----
            // Probe without counting first so replayed lines do not
            // inflate hit/miss statistics or churn LRU state.
            if (!l1_.contains(line)) {
                Mshr *m = mshrs_.find(line);
                if (m != nullptr) {
                    if (trace::on(trace::kCache)) {
                        trace::instant(trace::kCache, trace::kPidCache,
                                       sm_id_, "l1_miss", now, "line", line);
                    }
                    l1_.access(line);   // counts the miss
                    addWaiter(*m, st_.load_slot);
                    ++l1_load_misses_;
                    ++mshr_merges_;
                    ++st_.cursor;
                    continue;
                }
                if (static_cast<int>(mshrs_.size()) >= mshr_entries_ ||
                    static_cast<int>(out_req_.size()) >= out_queue_) {
                    // Pure replay: no counter, trace or LRU effect
                    // until an MSHR or out-queue slot frees up.
                    return true;
                }
                if (trace::on(trace::kCache)) {
                    trace::instant(trace::kCache, trace::kPidCache, sm_id_,
                                   "l1_miss", now, "line", line);
                }
                l1_.access(line);       // counts the miss
                ++l1_load_misses_;
                addWaiter(mshrs_.insert(line), st_.load_slot);
                MemRequest req;
                req.id = hooks_->allocReqId();
                req.line = line;
                req.is_write = false;
                req.src_sm = sm_id_;
                req.warp = st_.warp;
                req.created = now;
                req.payload_bytes = 8;  // read request header
                out_req_.push(req);
                if (audit_)
                    audit_->onInject(req, now);
                ++st_.cursor;
                continue;
            }
            if (l1_.access(line)) {
                ++l1_load_hits_;
                if (trace::on(trace::kCache)) {
                    trace::instant(trace::kCache, trace::kPidCache, sm_id_,
                                   "l1_hit", now, "line", line);
                }
                if (!hooks_->onLoadHit(line, st_.load_slot, now)) {
                    // AWT full: retry next cycle (the retry re-counts
                    // the hit).
                    return true;
                }
                ++st_.cursor;
                continue;
            }
            CABA_PANIC("L1 probe/access disagreement");
        } else {
            // ---- store line ----
            if (static_cast<int>(out_req_.size()) >= out_queue_) {
                return true;
            }
            hooks_->commitStore(line);
            // L1 is write-evict for global stores.
            Eviction ev;
            l1_.invalidate(line, &ev);
            hooks_->routeStore(line, st_.access.full_line, st_.warp, now);
            ++st_.cursor;
        }
    }
    if (st_.cursor >= st_.access.lines.size())
        st_.busy = false;
    return false;
}

void
LdstUnit::audit(Audit &a, bool at_drain) const
{
    a.checkEq("l1", "hits + misses == accesses",
              l1_.hits() + l1_.misses(), l1_.accesses());
    std::uint64_t active = 0;
    for (const PendingLoad &pl : loads_)
        active += pl.active ? 1 : 0;
    a.checkEq("ldst", "active + free load slots == pool size",
              active + free_load_slots_.size(), loads_.size());
    if (!at_drain)
        return;
    a.checkEq("ldst", "no active load slots at drain", active, 0);
    a.checkTrue("ldst", "MSHRs empty at drain", mshrs_.empty());
    a.checkTrue("ldst", "out-queue empty at drain", out_req_.empty());
}

} // namespace caba
