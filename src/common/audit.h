/**
 * @file
 * gem5-style self-consistency audits. The determinism machinery proves a
 * run is *repeatable*; the audit layer proves it is *self-consistent*:
 * every MemRequest injected by an SM is tracked to retirement (zero
 * orphans at drain), and stat identities that must hold by construction
 * (hits + misses == accesses, packet conservation through the crossbars,
 * burst conservation through the DRAM ledger, AWT triggers ==
 * completions + kills + live) are cross-checked at end of run or every N
 * cycles. The audit reads simulator state but never mutates timing or
 * statistics, so RunResult is bit-identical with audits on or off.
 *
 * Levels (CABA_AUDIT environment variable, or GpuConfig::audit):
 *   off | 0        no auditing
 *   end | 1        checks at drain only (the default; tier-1 cheap)
 *   full           checks every AuditConfig::period cycles and at drain
 *   <N>            checks every N cycles and at drain
 */
#ifndef CABA_COMMON_AUDIT_H
#define CABA_COMMON_AUDIT_H

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/types.h"

namespace caba {

/** How often invariants are evaluated. */
enum class AuditLevel : std::uint8_t { Off, EndOfRun, Periodic };

/** Deliberate faults for the mutation self-test (tests/test_audit.cc):
 *  each one simulates a silent bookkeeping bug the audit must catch. */
enum class AuditFault : std::uint8_t
{
    DropStorePacket,    ///< Crossbar loses the next write packet.
    DoubleCountBurst,   ///< Partition counts the next read's bursts twice.
    LeakLoadSlot,       ///< LDST unit never frees the next finished slot.
    SkewDramBankCount,  ///< DRAM bank tally counts the next command twice.
};

/** Audit knobs (GpuConfig::audit; CABA_AUDIT overrides level/period). */
struct AuditConfig
{
    AuditLevel level = AuditLevel::EndOfRun;

    /** Cycles between in-flight checks at AuditLevel::Periodic. */
    Cycle period = 65536;

    /** Panic on the first failed audit (tests clear this and inspect
     *  Audit::failures() instead). */
    bool fatal = true;

    /** Ignore CABA_AUDIT (tests that pin a level programmatically). */
    bool ignore_env = false;

    /** Applies the CABA_AUDIT environment override (read once). */
    static AuditConfig resolve(AuditConfig base);

    /** Applies one override spec ("off", "end", "full", "<N>" with
     *  N > 0) to @p base. Unknown specs leave @p base alone. */
    static AuditConfig applySpec(AuditConfig base, const char *spec);
};

/** Last place a tracked request was seen alive. */
enum class ReqStage : std::uint8_t
{
    Injected,       ///< Pushed into the SM out-queue.
    XbarReq,        ///< Entered the request crossbar.
    AtPartition,    ///< Accepted by a memory partition.
    DramWait,       ///< Waiting on a DRAM read.
    Replied,        ///< Reply queued at the partition.
    XbarReply,      ///< Reply entered the reply crossbar.
};

const char *reqStageName(ReqStage s);

/**
 * One audit instance per GpuSystem (parallel sweeps each own one).
 * Components call the on*() lifecycle hooks from their hot paths (cheap:
 * one indexed slot per request per stage) and implement an
 * audit(Audit&, bool at_drain) method holding their invariant checks,
 * driven by GpuSystem::runAudit().
 */
class Audit
{
  public:
    explicit Audit(const AuditConfig &cfg);

    bool enabled() const { return cfg_.level != AuditLevel::Off; }
    bool periodic() const { return cfg_.level == AuditLevel::Periodic; }
    const AuditConfig &config() const { return cfg_; }

    // -- request lifecycle --
    //
    // Templated on the request type so common/ stays below mem/ in the
    // layer map (DESIGN.md §14): the audit needs only the id / src_sm /
    // line / is_write fields, which any packet-shaped struct provides.

    /** A new request entered the memory system at @p now. */
    template <typename Req>
    void
    onInject(const Req &req, Cycle now)
    {
        if (!enabled())
            return;
        ++injected_;
        Tracked *t = claim(req.src_sm, req.id);
        if (t == nullptr) {
            std::ostringstream os;
            os << "lifecycle: duplicate injection of request id " << req.id
               << " from SM " << req.src_sm;
            fail(os.str());
            return;
        }
        t->stage = ReqStage::Injected;
        t->injected = now;
        t->line = req.line;
        t->is_write = req.is_write;
    }

    /** The request was seen alive at @p stage. */
    template <typename Req>
    void
    onStage(const Req &req, ReqStage stage)
    {
        if (!enabled())
            return;
        Tracked *t = find(req.src_sm, req.id);
        if (t == nullptr) {
            std::ostringstream os;
            os << "lifecycle: request id " << req.id << " from SM "
               << req.src_sm << " reached stage " << reqStageName(stage)
               << " without being injected";
            fail(os.str());
            return;
        }
        t->stage = stage;
    }

    /** The request left the memory system (reply consumed / store
     *  absorbed). */
    template <typename Req>
    void
    onRetire(const Req &req)
    {
        if (!enabled())
            return;
        Tracked *t = find(req.src_sm, req.id);
        if (t == nullptr) {
            std::ostringstream os;
            os << "lifecycle: request id " << req.id << " from SM "
               << req.src_sm << " retired twice (or never injected)";
            fail(os.str());
            return;
        }
        release(req.src_sm, req.id);
        ++retired_;
    }

    std::size_t liveRequests() const { return live_; }
    std::uint64_t injected() const { return injected_; }
    std::uint64_t retired() const { return retired_; }

    // -- invariant checks (used by per-subsystem audit() methods) --

    void fail(std::string msg);
    void checkEq(const char *where, const char *what, std::uint64_t lhs,
                 std::uint64_t rhs);
    void checkLe(const char *where, const char *what, std::uint64_t lhs,
                 std::uint64_t rhs);
    void checkTrue(const char *where, const char *what, bool ok);

    /** Orphan check over the lifecycle table: at drain no request may
     *  still be live; injected == retired + live always. */
    void checkLifecycle(Cycle now, bool at_drain);

    const std::vector<std::string> &failures() const { return failures_; }

  private:
    struct Tracked
    {
        ReqStage stage = ReqStage::Injected;
        bool live = false;
        bool is_write = false;
        Cycle injected = 0;
        Addr line = 0;
    };

    /**
     * Lifecycle slots of one SM. Ids are a per-SM sequence, so the live
     * ones fall in the span [base, next), which maps one-to-one onto
     * the power-of-two slot array by id & (size - 1). The array doubles
     * when the span outgrows it; stores are not bounded by MSHRs, so
     * there is no fixed cap. Slots outside the span are never live.
     */
    struct Ring
    {
        std::vector<Tracked> slots;
        std::uint64_t base = 0;     ///< Oldest live id (== next: empty).
        std::uint64_t next = 0;     ///< One past the newest id.
    };

    /** Live slot of (@p sm, @p id), or nullptr. */
    Tracked *
    find(int sm, std::uint64_t id)
    {
        const auto i = static_cast<std::size_t>(sm);
        if (i >= rings_.size())
            return nullptr;
        Ring &r = rings_[i];
        if (id - r.base >= r.next - r.base)     // outside [base, next)
            return nullptr;
        Tracked &t = r.slots[id & (r.slots.size() - 1)];
        return t.live ? &t : nullptr;
    }

    /** Marks (@p sm, @p id) live; nullptr when it already is. */
    Tracked *claim(int sm, std::uint64_t id);

    /** Frees the live slot of (@p sm, @p id). */
    void release(int sm, std::uint64_t id);

    AuditConfig cfg_;
    std::vector<Ring> rings_;       ///< By SM id, grown on first inject.
    std::size_t live_ = 0;
    std::vector<std::string> failures_;
    std::uint64_t injected_ = 0;
    std::uint64_t retired_ = 0;
};

} // namespace caba

#endif // CABA_COMMON_AUDIT_H
