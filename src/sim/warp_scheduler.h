/**
 * @file
 * Warp front-end of one SM: per-warp decode state and instruction
 * buffers, the round-robin decode pick, scoreboard readiness, and the
 * greedy-then-oldest (or loose round-robin) issue selection of Table 1.
 * Execution itself stays with SmCore — the scheduler hands it the
 * chosen warp id through an issue callback and keeps its greedy/rotation
 * bookkeeping.
 *
 * Selection is struct-of-arrays: uint64 bitsets (issuable,
 * operand-blocked, decodable, and one per front-instruction issue
 * class — one bit per warp) are kept in lockstep with the per-warp
 * state, so the per-cycle decode and issue picks are rotated
 * word-scans instead of per-warp loops. The issue pick masks out the
 * classes an SM-wide hazard blocks, so it never offers a warp that
 * cannot issue. Any out-of-band mutation of a WarpState must be
 * followed by refreshWarp(); the picks choose exactly the warp the
 * historical offer-each-warp loops did.
 */
#ifndef CABA_SIM_WARP_SCHEDULER_H
#define CABA_SIM_WARP_SCHEDULER_H

#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "workloads/kernel.h"

namespace caba {

struct SmConfig;

/**
 * Issue classes of a front instruction, one per SM-wide structural
 * hazard set (SmCore::blockedIssueClasses). Branch and Exit have no
 * class: nothing blocks them.
 */
enum IssueClass : int {
    kIssueAlu = 0,      ///< AluInt, AluFp, Mov: ALU in-flight cap.
    kIssueSfu,          ///< Sfu: SFU in-flight cap and SFU port.
    kIssueShared,       ///< LdShared, StShared: memory port.
    kIssueGlobalStore,  ///< StGlobal: memory port, LDST drain.
    kIssueGlobalLoad,   ///< LdGlobal: the above and a free load slot.
    kNumIssueClasses,
};

/** Bit set of IssueClass values (bit c = class c). */
using IssueClassMask = unsigned;

/** Classes whose hazards are memory-structural (the rest: compute). */
inline constexpr IssueClassMask kMemIssueClasses =
    1u << kIssueShared | 1u << kIssueGlobalStore | 1u << kIssueGlobalLoad;

/** The IssueClass of @p op, or -1 for Branch/Exit. */
constexpr int
issueClassOf(Opcode op)
{
    switch (op) {
      case Opcode::AluInt:
      case Opcode::AluFp:
      case Opcode::Mov:
        return kIssueAlu;
      case Opcode::Sfu:
        return kIssueSfu;
      case Opcode::LdShared:
      case Opcode::StShared:
        return kIssueShared;
      case Opcode::StGlobal:
        return kIssueGlobalStore;
      case Opcode::LdGlobal:
        return kIssueGlobalLoad;
      case Opcode::Branch:
      case Opcode::Exit:
        break;
    }
    return -1;
}

/** Decode/issue front-end shared by the SmCore pipelines. */
class WarpScheduler
{
  public:
    struct DecodedInst
    {
        const Instruction *inst = nullptr;
        int iter = 0;
    };

    /** Fixed-capacity instruction buffer (2 entries per Table 1). */
    struct IBuf
    {
        DecodedInst slots[4];
        std::uint8_t head = 0;
        std::uint8_t count = 0;

        bool empty() const { return count == 0; }
        int size() const { return count; }
        const DecodedInst &front() const { return slots[head]; }

        void
        push(const DecodedInst &d)
        {
            slots[(head + count) & 3] = d;
            ++count;
        }

        void
        pop()
        {
            head = (head + 1) & 3;
            --count;
        }
    };

    struct WarpState
    {
        bool exists = false;
        bool done = false;
        bool decode_done = false;
        int pc = 0;
        int iter = 0;
        int trips_left = 0;
        int global_id = 0;
        std::uint64_t pending_regs = 0;
        /** Subset of pending_regs whose producer is an outstanding
         *  load (LdGlobal/LdShared). Distinguishes memory-data stalls
         *  from plain scoreboard stalls in the slot taxonomy. */
        std::uint64_t pending_mem_regs = 0;
        IBuf ibuf;
    };

    WarpScheduler(int max_warps, int schedulers, int ibuffer_entries,
                  int decode_width, bool gto);

    /** Initializes warp state for a kernel launch (see SmCore::launch). */
    void launch(const KernelInfo *kernel, int num_warps,
                int warp_global_base, int warp_global_stride);

    const KernelInfo *kernel() const { return kernel_; }

    /** Decode stage: each scheduler picks one warp round-robin. */
    void decodeCycle();

    /** Scoreboard check of the warp's next buffered instruction. */
    bool warpReady(const WarpState &w) const;

    /** Mutable warp state. Callers that change readiness-relevant
     *  fields (pending_regs, ibuf, done) must call refreshWarp() —
     *  pickAndIssue() does so around its try-issue callback. */
    WarpState &
    warp(int w)
    {
        return warps_[static_cast<std::size_t>(w)];
    }

    const WarpState &
    warp(int w) const
    {
        return warps_[static_cast<std::size_t>(w)];
    }

    /** Writeback: clears @p mask from the warp's pending registers.
     *  A pending register has exactly one producer in flight, so the
     *  memory subset can be cleared with the same mask. */
    void
    clearPending(int w, std::uint64_t mask)
    {
        if (w == kInvalidWarp)
            return;
        WarpState &ws = warps_[static_cast<std::size_t>(w)];
        ws.pending_regs &= ~mask;
        ws.pending_mem_regs &= ~mask;
        refreshWarp(w);
    }

    /** Recomputes warp @p w's cached selection bits from its state. */
    void
    refreshWarp(int w)
    {
        const WarpState &ws = warps_[static_cast<std::size_t>(w)];
        const std::uint64_t bit = std::uint64_t{1} << w;
        const bool alive = ws.exists && !ws.done;
        const bool buffered = alive && !ws.ibuf.empty();
        const bool ready = buffered && frontReady(ws);
        setBit(&issuable_, bit, ready);
        setBit(&blocked_, bit, buffered && !ready);
        setBit(&mem_blocked_, bit,
               buffered && !ready &&
                   (frontNeed(ws) & ws.pending_mem_regs) != 0);
        setBit(&live_, bit, alive);
        setBit(&decodable_, bit,
               alive && !ws.decode_done &&
                   static_cast<int>(ws.ibuf.size()) < ibuffer_entries_);
        const int cls =
            buffered ? issueClassOf(ws.ibuf.front().inst->op) : -1;
        for (int c = 0; c < kNumIssueClasses; ++c)
            setBit(&class_[c], bit, c == cls);
    }

    int liveWarps() const { return live_warps_; }

    /** Bookkeeping for a warp issuing its Exit. */
    void noteWarpRetired() { --live_warps_; }

    /**
     * Issue selection for scheduler @p s: greedy-then-oldest over its
     * warp parity (loose round-robin when gto is off), skipping warps
     * whose front instruction is in a class of @p excluded. @p issue is
     * invoked with the chosen warp id and must issue it; the chosen
     * warp is the first one the historical loop, offering each ready
     * warp in turn, would have seen accepted. Returns false when no
     * warp is eligible.
     */
    template <typename Issue>
    bool
    pickAndIssue(int s, IssueClassMask excluded, Issue &&issue)
    {
        const std::size_t si = static_cast<std::size_t>(s);
        std::uint64_t blocked_warps = 0;
        for (int c = 0; c < kNumIssueClasses; ++c) {
            if ((excluded >> c & 1) != 0)
                blocked_warps |= class_[c];
        }
        const std::uint64_t cand =
            issuable_ & parity_mask_[si] & ~blocked_warps;
        if (cand == 0)
            return false;
        const int g = greedy_warp_[si];
        if (gto_ && g != kInvalidWarp && ((cand >> g) & 1)) {
            issue(g);
            refreshWarp(g);
            return true;
        }
        // The first eligible warp in the historical slot order: a
        // rotated word-scan from the rotation point, wrapping.
        const int slots = max_warps_ / schedulers_;
        const int start = gto_ ? 0 : lrr_next_[si];
        const int start_w = start * schedulers_ + s;
        const std::uint64_t hi = cand & (~std::uint64_t{0} << start_w);
        const int w = std::countr_zero(hi != 0 ? hi : cand);
        issue(w);
        refreshWarp(w);
        greedy_warp_[si] = w;
        lrr_next_[si] = (w / schedulers_ + 1) % slots;
        return true;
    }

    /** Issue classes present among scheduler @p s's issuable warps. */
    IssueClassMask
    candidateClasses(int s) const
    {
        const std::uint64_t cand =
            issuable_ & parity_mask_[static_cast<std::size_t>(s)];
        IssueClassMask classes = 0;
        for (int c = 0; c < kNumIssueClasses; ++c) {
            if ((class_[c] & cand) != 0)
                classes |= 1u << c;
        }
        return classes;
    }

    // -- quiescence queries (for SmCore::nextWork / skipIdle) --

    /** True when any warp could accept decoded instructions. */
    bool anyDecodable() const;

    /** True when any warp passes the scoreboard this cycle. */
    bool anyReady() const;

    // -- selection-bitset views (for SmCore's slot taxonomy and the
    //    profiling assist warp's stall-vector samples) --

    std::uint64_t issuableMask() const { return issuable_; }
    std::uint64_t blockedMask() const { return blocked_; }
    std::uint64_t memBlockedMask() const { return mem_blocked_; }
    std::uint64_t liveMask() const { return live_; }

    std::uint64_t
    parityMask(int s) const
    {
        return parity_mask_[static_cast<std::size_t>(s)];
    }

  private:
    void decodeOneWarp(WarpState &w);

    /** Register mask @p w's front instruction waits on (ibuf nonempty). */
    static std::uint64_t
    frontNeed(const WarpState &w)
    {
        const Instruction &inst = *w.ibuf.front().inst;
        std::uint64_t need = 0;
        if (inst.dst >= 0)
            need |= std::uint64_t{1} << inst.dst;
        if (inst.src0 >= 0)
            need |= std::uint64_t{1} << inst.src0;
        if (inst.src1 >= 0)
            need |= std::uint64_t{1} << inst.src1;
        return need;
    }

    /** Scoreboard check of @p w's front instruction (ibuf nonempty). */
    static bool
    frontReady(const WarpState &w)
    {
        return (w.pending_regs & frontNeed(w)) == 0;
    }

    static void
    setBit(std::uint64_t *mask, std::uint64_t bit, bool on)
    {
        *mask = on ? (*mask | bit) : (*mask & ~bit);
    }

    int max_warps_;
    int schedulers_;
    int ibuffer_entries_;
    int decode_width_;
    bool gto_;

    const KernelInfo *kernel_ = nullptr;
    std::vector<WarpState> warps_;
    int live_warps_ = 0;

    std::vector<int> greedy_warp_;
    std::vector<int> decode_rr_;
    std::vector<int> lrr_next_;     ///< Rotation points for LRR mode.

    // Selection bitsets, bit w = warps_[w] (kept in lockstep by
    // refreshWarp; max_warps <= 64 is checked at construction).
    std::uint64_t issuable_ = 0;    ///< exists, buffered, scoreboard-clear
    std::uint64_t blocked_ = 0;     ///< exists, buffered, operand-blocked
    std::uint64_t mem_blocked_ = 0; ///< blocked, waiting on a load result
    std::uint64_t live_ = 0;        ///< exists and not retired
    std::uint64_t decodable_ = 0;   ///< exists, fetchable, ibuf has room

    /** class_[c]: buffered warps whose front instruction is of class c. */
    std::uint64_t class_[kNumIssueClasses] = {};

    /** Bit w set iff w % schedulers == s (scheduler s's warps). */
    std::vector<std::uint64_t> parity_mask_;
};

} // namespace caba

#endif // CABA_SIM_WARP_SCHEDULER_H
