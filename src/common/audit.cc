#include "common/audit.h"

#include <algorithm>
#include <climits>
#include <sstream>
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

void
Audit::checkLifecycle(Cycle now, bool at_drain)
{
    checkEq("lifecycle", "injected == retired + live", injected_,
            retired_ + static_cast<std::uint64_t>(live_.size()));
    if (!at_drain)
        return;
    // Report orphans in key order: live_ is an unordered_map, and the
    // failure dump must not depend on hash-bucket iteration order.
    std::vector<std::uint64_t> keys;
    keys.reserve(live_.size());
    for (const auto &entry : live_) // lint: order-insensitive — keys sorted below
        keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    for (const std::uint64_t k : keys) {
        const Tracked &t = live_.at(k);
        std::ostringstream os;
        os << "lifecycle: orphan request (id " << (k >> 8) << ", SM "
           << (k & 0xff) << ", " << (t.is_write ? "store" : "load")
           << " of line 0x" << std::hex << t.line << std::dec
           << ") injected at cycle " << t.injected
           << " still at stage " << reqStageName(t.stage)
           << " when the system drained at cycle " << now;
        fail(os.str());
    }
}

} // namespace caba
