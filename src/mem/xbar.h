/**
 * @file
 * Crossbar interconnect between SMs and memory partitions (Table 1: one
 * crossbar per direction, 15x6, core clock). Each output port moves one
 * 32-byte flit per cycle, so compressed packets (fewer flits) free port
 * time — the effect that separates HW-BDI from HW-BDI-Mem in Figure 7.
 */
#ifndef CABA_MEM_XBAR_H
#define CABA_MEM_XBAR_H

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/audit.h"
#include "common/component.h"
#include "common/stats.h"
#include "common/types.h"
#include "mem/request.h"

namespace caba {

/** Crossbar geometry. */
struct XbarConfig
{
    int latency = 8;            ///< Port-to-port latency in cycles.
    int input_queue = 16;       ///< Packets buffered per input port.
    int output_queue = 16;      ///< Packets buffered at each destination.
};

/**
 * One direction of the crossbar: @p inputs input ports (at most 64),
 * @p outputs output ports, per-output round-robin arbitration at packet
 * granularity, output-port occupancy proportional to flit count. Each
 * output keeps a bitset of the inputs whose head packet targets it, so
 * arbitration is a rotated bit scan, not a loop over every input.
 */
class XbarDirection : public Clocked
{
  public:
    /** @p trace_tid_base offsets output-port tids in trace output so
     *  the request and reply directions land on distinct rows. */
    XbarDirection(int inputs, int outputs, const XbarConfig &cfg,
                  int trace_tid_base = 0);

    /** True when input port @p in can take another packet. */
    bool canPush(int in) const;

    /** Enqueues @p req at input @p in, destined to output @p out. */
    void push(int in, int out, const MemRequest &req);

    /** Advances one cycle: arbitration + transfers. */
    void cycle(Cycle now) override;

    /** True when output @p out has a delivered packet ready. */
    bool hasDelivery(int out, Cycle now) const;

    /** Pops the next delivered packet at output @p out. */
    MemRequest popDelivery(int out);

    bool busy() const override;

    /**
     * Earliest cycle a delivery becomes ready, an in-flight packet
     * lands, or a queued packet can win its output port.
     */
    Cycle nextWork(Cycle now) const override;

    /** packets/flits arbitrated; empty until the first packet. */
    StatSet stats() const;

    /** Registers the lifecycle audit; packets entering this direction
     *  are tagged with @p stage (request vs reply side). */
    void
    attachAudit(Audit *audit, ReqStage stage)
    {
        audit_ = audit;
        stage_ = stage;
    }

    /** Mutation self-test hook: silently lose the next write packet
     *  pushed into any input (simulates a buggy switch). */
    void faultDropNextStore() { fault_drop_next_store_ = true; }

    /** Packet conservation: pushed == arbitrated + input-queued,
     *  arbitrated == popped + in-flight + output-queued; empty at drain. */
    void audit(Audit &a, const char *name, bool at_drain) const;

    /** Destination output port for a packet entering any input (set
     *  once at wiring time: partition interleave / reply routing). */
    void setRouter(std::function<int(const MemRequest &)> router);

    /** Sink view of input port @p in: accept() routes via the router. */
    Sink<MemRequest> &input(int in);

    /** Source view of output port @p out's ready deliveries. */
    Source<MemRequest> &output(int out);

  private:
    class InPort : public Sink<MemRequest>
    {
      public:
        bool canAccept() const override { return x_->canPush(in_); }

        void
        accept(const MemRequest &pkt, Cycle) override
        {
            x_->push(in_, x_->router_(pkt), pkt);
        }

      private:
        friend class XbarDirection;
        XbarDirection *x_ = nullptr;
        int in_ = 0;
    };

    class OutPort : public Source<MemRequest>
    {
      public:
        bool
        hasData(Cycle now) const override
        {
            return x_->hasDelivery(out_, now);
        }

        MemRequest take() override { return x_->popDelivery(out_); }

      private:
        friend class XbarDirection;
        XbarDirection *x_ = nullptr;
        int out_ = 0;
    };

    struct InFlight
    {
        MemRequest req;
        int out = 0;
        Cycle deliver_at = 0;
    };

    struct Delivered
    {
        MemRequest req;
        Cycle at = 0;
    };

    XbarConfig cfg_;
    int inputs_;
    int outputs_;
    int trace_tid_base_;
    /** Arbitration state of one output port. */
    struct Output
    {
        std::uint64_t heads = 0;    ///< Bit in: input in's head targets us.
        Cycle busy_until = 0;       ///< Port reserved for a packet's flits.
        int rr = 0;                 ///< Round-robin start input.
        int flying = 0;             ///< Arbitrated packets still in flight.
    };

    std::vector<std::deque<std::pair<int, MemRequest>>> in_q_;
    std::vector<Output> outs_;
    std::vector<std::deque<Delivered>> out_q_;
    std::vector<InFlight> flying_;
    int queued_packets_ = 0;
    Audit *audit_ = nullptr;
    ReqStage stage_ = ReqStage::XbarReq;
    bool fault_drop_next_store_ = false;

    // conservation counters (audit); arbitrated_ and flits_ are also
    // the exported packets/flits stats
    std::uint64_t pushed_ = 0;
    std::uint64_t arbitrated_ = 0;
    std::uint64_t flits_ = 0;
    std::uint64_t popped_ = 0;
    std::function<int(const MemRequest &)> router_;
    std::vector<InPort> in_ports_;
    std::vector<OutPort> out_ports_;
};

} // namespace caba

#endif // CABA_MEM_XBAR_H
