#include "common/audit.h"

#include <algorithm>
#include <climits>
#include <sstream>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/log.h"
#include "common/parse.h"

namespace caba {

namespace {

/** Applies the non-empty @p spec to @p *cfg; false (and @p *cfg
 *  untouched) when it names no level or a non-positive period. */
bool
parseSpec(const std::string &s, AuditConfig *cfg)
{
    if (s == "off" || s == "0" || s == "none") {
        cfg->level = AuditLevel::Off;
    } else if (s == "end" || s == "1") {
        cfg->level = AuditLevel::EndOfRun;
    } else if (s == "full") {
        cfg->level = AuditLevel::Periodic;
    } else {
        long period = 0;
        if (!parse::boundedInt(s, 1, LONG_MAX, &period))
            return false;
        cfg->level = AuditLevel::Periodic;
        cfg->period = static_cast<Cycle>(period);
    }
    return true;
}

/** CABA_AUDIT, read once (sweep workers construct GpuSystems from many
 *  threads; getenv after startup is not reliably thread-safe). A spec
 *  parseSpec() rejects is dropped with a warning. */
const char *
auditEnv()
{
    static const char *const spec = [] {
        const char *s = env::raw("CABA_AUDIT");
        AuditConfig probe;
        if (s != nullptr && *s != '\0' && !parseSpec(s, &probe)) {
            env::warnRejected("CABA_AUDIT", s,
                              "off|end|full|<positive period>");
            return static_cast<const char *>(nullptr);
        }
        return s;
    }();
    return spec;
}

} // namespace

AuditConfig
AuditConfig::applySpec(AuditConfig base, const char *spec)
{
    if (spec != nullptr && *spec != '\0')
        parseSpec(spec, &base);  // unknown spec: keep the configured level
    return base;
}

AuditConfig
AuditConfig::resolve(AuditConfig base)
{
    if (base.ignore_env)
        return base;
    return applySpec(base, auditEnv());
}

Audit::Audit(const AuditConfig &cfg) : cfg_(cfg)
{
    if (periodic())
        CABA_CHECK(cfg_.period > 0, "periodic audit needs a period");
}

const char *
reqStageName(ReqStage s)
{
    switch (s) {
      case ReqStage::Injected: return "injected";
      case ReqStage::XbarReq: return "xbar_req";
      case ReqStage::AtPartition: return "at_partition";
      case ReqStage::DramWait: return "dram_wait";
      case ReqStage::Replied: return "replied";
      case ReqStage::XbarReply: return "xbar_reply";
    }
    return "unknown";
}

void
Audit::fail(std::string msg)
{
    failures_.push_back(std::move(msg));
}

void
Audit::checkEq(const char *where, const char *what, std::uint64_t lhs,
               std::uint64_t rhs)
{
    if (lhs == rhs)
        return;
    std::ostringstream os;
    os << where << ": " << what << " (" << lhs << " != " << rhs << ")";
    fail(os.str());
}

void
Audit::checkLe(const char *where, const char *what, std::uint64_t lhs,
               std::uint64_t rhs)
{
    if (lhs <= rhs)
        return;
    std::ostringstream os;
    os << where << ": " << what << " (" << lhs << " > " << rhs << ")";
    fail(os.str());
}

void
Audit::checkTrue(const char *where, const char *what, bool ok)
{
    if (ok)
        return;
    std::ostringstream os;
    os << where << ": " << what;
    fail(os.str());
}

Audit::Tracked *
Audit::claim(int sm, std::uint64_t id)
{
    CABA_CHECK(sm >= 0, "audited request without a source SM");
    const auto i = static_cast<std::size_t>(sm);
    if (i >= rings_.size())
        rings_.resize(i + 1);
    Ring &r = rings_[i];
    if (r.base == r.next)
        r.base = r.next = id;       // empty: the span restarts at id
    const std::uint64_t lo = std::min(r.base, id);
    const std::uint64_t hi = std::max(r.next, id + 1);
    if (hi - lo > r.slots.size()) {
        // Re-home the live span into a ring at least twice the size.
        std::size_t cap = std::max<std::size_t>(16, 2 * r.slots.size());
        while (cap < hi - lo)
            cap *= 2;
        std::vector<Tracked> grown(cap);
        for (std::uint64_t k = r.base; k != r.next; ++k) {
            const Tracked &t = r.slots[k & (r.slots.size() - 1)];
            if (t.live)
                grown[k & (cap - 1)] = t;
        }
        r.slots.swap(grown);
    }
    Tracked &t = r.slots[id & (r.slots.size() - 1)];
    if (id >= r.base && id < r.next && t.live)
        return nullptr;
    r.base = lo;
    r.next = hi;
    t.live = true;
    ++live_;
    return &t;
}

void
Audit::release(int sm, std::uint64_t id)
{
    Ring &r = rings_[static_cast<std::size_t>(sm)];
    const std::uint64_t mask = r.slots.size() - 1;
    r.slots[id & mask].live = false;
    --live_;
    while (r.base != r.next && !r.slots[r.base & mask].live)
        ++r.base;
}

void
Audit::checkLifecycle(Cycle now, bool at_drain)
{
    checkEq("lifecycle", "injected == retired + live", injected_,
            retired_ + static_cast<std::uint64_t>(live_));
    if (!at_drain)
        return;
    // Report orphans in (id, SM) order, the order of the historical
    // (id << 8 | SM) key, so the dump does not depend on ring layout.
    std::vector<std::pair<std::uint64_t, std::size_t>> orphans;
    orphans.reserve(live_);
    for (std::size_t sm = 0; sm < rings_.size(); ++sm) {
        const Ring &r = rings_[sm];
        for (std::uint64_t id = r.base; id != r.next; ++id)
            if (r.slots[id & (r.slots.size() - 1)].live)
                orphans.emplace_back(id, sm);
    }
    std::sort(orphans.begin(), orphans.end());
    for (const auto &[id, sm] : orphans) {
        const Ring &r = rings_[sm];
        const Tracked &t = r.slots[id & (r.slots.size() - 1)];
        std::ostringstream os;
        os << "lifecycle: orphan request (id " << id << ", SM " << sm
           << ", " << (t.is_write ? "store" : "load")
           << " of line 0x" << std::hex << t.line << std::dec
           << ") injected at cycle " << t.injected
           << " still at stage " << reqStageName(t.stage)
           << " when the system drained at cycle " << now;
        fail(os.str());
    }
}

} // namespace caba
