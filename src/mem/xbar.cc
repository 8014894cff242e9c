#include "mem/xbar.h"

#include <algorithm>
#include <bit>

#include "common/log.h"
#include "common/trace.h"

namespace caba {

XbarDirection::XbarDirection(int inputs, int outputs, const XbarConfig &cfg,
                             int trace_tid_base)
    : cfg_(cfg), inputs_(inputs), outputs_(outputs),
      trace_tid_base_(trace_tid_base),
      in_q_(inputs), outs_(static_cast<std::size_t>(outputs)),
      out_q_(outputs),
      in_ports_(static_cast<std::size_t>(inputs)),
      out_ports_(static_cast<std::size_t>(outputs))
{
    CABA_CHECK(inputs > 0 && inputs <= 64 && outputs > 0,
               "bad crossbar geometry (inputs must fit the head bitsets)");
    for (int i = 0; i < inputs; ++i) {
        in_ports_[static_cast<std::size_t>(i)].x_ = this;
        in_ports_[static_cast<std::size_t>(i)].in_ = i;
    }
    for (int o = 0; o < outputs; ++o) {
        out_ports_[static_cast<std::size_t>(o)].x_ = this;
        out_ports_[static_cast<std::size_t>(o)].out_ = o;
    }
}

void
XbarDirection::setRouter(std::function<int(const MemRequest &)> router)
{
    router_ = std::move(router);
}

Sink<MemRequest> &
XbarDirection::input(int in)
{
    CABA_CHECK(router_ != nullptr, "crossbar input used without a router");
    return in_ports_[static_cast<std::size_t>(in)];
}

Source<MemRequest> &
XbarDirection::output(int out)
{
    return out_ports_[static_cast<std::size_t>(out)];
}

bool
XbarDirection::canPush(int in) const
{
    return static_cast<int>(in_q_[in].size()) < cfg_.input_queue;
}

void
XbarDirection::push(int in, int out, const MemRequest &req)
{
    CABA_CHECK(canPush(in), "crossbar input overflow");
    CABA_CHECK(out >= 0 && out < outputs_, "bad crossbar output");
    ++pushed_;
    if (audit_)
        audit_->onStage(req, stage_);
    if (fault_drop_next_store_ && req.is_write) {
        // Seeded fault: the packet vanishes after being counted in, the
        // way a real lost-update bug would. The audit must notice.
        fault_drop_next_store_ = false;
        return;
    }
    if (in_q_[in].empty())
        outs_[out].heads |= std::uint64_t{1} << in;
    in_q_[in].emplace_back(out, req);
    ++queued_packets_;
}

void
XbarDirection::cycle(Cycle now)
{
    if (flying_.empty() && queued_packets_ == 0)
        return;
    // Deliver in-flight packets whose latency elapsed.
    for (std::size_t i = 0; i < flying_.size();) {
        if (flying_[i].deliver_at <= now) {
            const int out = flying_[i].out;
            out_q_[out].push_back({flying_[i].req, flying_[i].deliver_at});
            --outs_[out].flying;
            flying_[i] = flying_.back();
            flying_.pop_back();
        } else {
            ++i;
        }
    }

    // Per-output round-robin packet arbitration. The output port is
    // reserved for the packet's flit count; a fresh packet starts only
    // when the port is free and the destination queue has room. Outputs
    // go in ascending order: a pop exposes the input's next head, which
    // a later output may take in the same cycle.
    for (int out = 0; out < outputs_; ++out) {
        Output &o = outs_[out];
        if (o.heads == 0 || o.busy_until > now)
            continue;
        if (static_cast<int>(out_q_[out].size()) + o.flying >=
                cfg_.output_queue) {
            continue;
        }
        // The first requesting input at or after the rotation point.
        const std::uint64_t hi = o.heads & (~std::uint64_t{0} << o.rr);
        const int in = std::countr_zero(hi != 0 ? hi : o.heads);
        auto &q = in_q_[in];
        const MemRequest req = q.front().second;
        q.pop_front();
        o.heads &= ~(std::uint64_t{1} << in);
        if (!q.empty())
            outs_[q.front().first].heads |= std::uint64_t{1} << in;
        --queued_packets_;
        const int flits = req.flits();
        o.busy_until = now + flits;
        flying_.push_back({req, out, now + flits + cfg_.latency});
        ++o.flying;
        ++arbitrated_;
        flits_ += static_cast<std::uint64_t>(flits);
        if (trace::on(trace::kXbar)) {
            // Span = output-port occupancy of this packet.
            trace::complete(trace::kXbar, trace::kPidXbar,
                            trace_tid_base_ + out, "packet", now,
                            static_cast<Cycle>(flits), "flits",
                            static_cast<std::uint64_t>(flits));
        }
        o.rr = (in + 1) % inputs_;
    }
}

StatSet
XbarDirection::stats() const
{
    StatSet s;
    if (arbitrated_ > 0) {
        s.setCounter("packets", arbitrated_);
        s.setCounter("flits", flits_);
    }
    return s;
}

bool
XbarDirection::hasDelivery(int out, Cycle now) const
{
    return !out_q_[out].empty() && out_q_[out].front().at <= now;
}

MemRequest
XbarDirection::popDelivery(int out)
{
    CABA_CHECK(!out_q_[out].empty(), "no delivery to pop");
    MemRequest req = out_q_[out].front().req;
    out_q_[out].pop_front();
    ++popped_;
    return req;
}

Cycle
XbarDirection::nextWork(Cycle now) const
{
    // Delivered packets waiting in an output queue pin the clock: the
    // consumer-side Wire drains them the very next moveTraffic(), and
    // even under backpressure the consumer's unblock cycle is cheaper
    // to over-approximate here than to predict.
    for (const auto &q : out_q_)
        if (!q.empty())
            return now;
    Cycle e = kNoWork;
    for (const InFlight &f : flying_)
        e = std::min(e, f.deliver_at > now ? f.deliver_at : now);
    for (std::size_t out = 0; out < outs_.size(); ++out) {
        const Output &o = outs_[out];
        if (o.heads == 0)
            continue;
        // A full destination (queued + flying >= capacity) unblocks via
        // the flying_ term above or the ready-delivery case; otherwise
        // a head packet can start once the port frees up.
        if (static_cast<int>(out_q_[out].size()) + o.flying >=
            cfg_.output_queue) {
            continue;
        }
        e = std::min(e, o.busy_until > now ? o.busy_until : now);
    }
    return e;
}

void
XbarDirection::audit(Audit &a, const char *name, bool at_drain) const
{
    std::uint64_t delivered_waiting = 0;
    for (const auto &q : out_q_)
        delivered_waiting += q.size();
    a.checkEq(name, "pushed == arbitrated + input-queued", pushed_,
              arbitrated_ + static_cast<std::uint64_t>(queued_packets_));
    a.checkEq(name, "arbitrated == popped + flying + output-queued",
              arbitrated_,
              popped_ + static_cast<std::uint64_t>(flying_.size()) +
                  delivered_waiting);
    if (at_drain) {
        a.checkEq(name, "all packets popped at drain", pushed_, popped_);
        a.checkTrue(name, "queues empty at drain", !busy());
    }
}

bool
XbarDirection::busy() const
{
    if (!flying_.empty())
        return true;
    for (const auto &q : in_q_)
        if (!q.empty())
            return true;
    for (const auto &q : out_q_)
        if (!q.empty())
            return true;
    return false;
}

} // namespace caba
