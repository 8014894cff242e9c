/**
 * @file
 * Crossbar unit tests: delivery, latency, per-output port bandwidth in
 * flits (how interconnect compression saves cycles), round-robin
 * fairness, backpressure, the stat keys an idle or busy direction
 * exports, and a differential test of the bitset arbiter against the
 * historical modulo loop.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "mem/xbar.h"

namespace caba {
namespace {

MemRequest
makeReq(int payload, Addr line = 0)
{
    MemRequest r;
    r.line = line;
    r.payload_bytes = payload;
    return r;
}

TEST(Xbar, DeliversAfterLatencyPlusSerialization)
{
    XbarConfig cfg;
    XbarDirection x(2, 2, cfg);
    x.push(0, 1, makeReq(kLineSize));   // 4 flits at 128B
    Cycle now = 0;
    while (!x.hasDelivery(1, now)) {
        x.cycle(now);
        ++now;
        ASSERT_LT(now, 100u);
    }
    // 4 flits of serialization + cfg.latency, plus one cycle of slack
    // for the arbitration step.
    EXPECT_GE(now, static_cast<Cycle>(4 + cfg.latency));
    EXPECT_LE(now, static_cast<Cycle>(4 + cfg.latency + 2));
    EXPECT_EQ(x.popDelivery(1).payload_bytes, kLineSize);
}

TEST(Xbar, CompressedPacketsUseFewerFlitCycles)
{
    XbarConfig cfg;
    auto drain_time = [&](int payload, int packets) {
        XbarDirection x(1, 1, cfg);
        Cycle now = 0;
        int delivered = 0;
        int pushed = 0;
        while (delivered < packets) {
            while (pushed < packets && x.canPush(0)) {
                x.push(0, 0, makeReq(payload));
                ++pushed;
            }
            x.cycle(now);
            while (x.hasDelivery(0, now)) {
                x.popDelivery(0);
                ++delivered;
            }
            ++now;
            EXPECT_LT(now, 10000u);
        }
        return now;
    };
    const Cycle full = drain_time(kLineSize, 64);       // 4 flits each
    const Cycle quarter = drain_time(kLineSize / 4, 64); // 1 flit each
    EXPECT_GT(static_cast<double>(full),
              2.5 * static_cast<double>(quarter));
}

TEST(Xbar, RoundRobinServesAllInputs)
{
    XbarConfig cfg;
    XbarDirection x(4, 1, cfg);
    for (int in = 0; in < 4; ++in)
        for (int k = 0; k < 4; ++k)
            x.push(in, 0, makeReq(32, static_cast<Addr>(in)));
    Cycle now = 0;
    int seen[4] = {0, 0, 0, 0};
    int total = 0;
    while (total < 16) {
        x.cycle(now);
        while (x.hasDelivery(0, now)) {
            ++seen[x.popDelivery(0).line];
            ++total;
        }
        ++now;
        ASSERT_LT(now, 1000u);
    }
    for (int in = 0; in < 4; ++in)
        EXPECT_EQ(seen[in], 4);
}

TEST(Xbar, InputBackpressure)
{
    XbarConfig cfg;
    cfg.input_queue = 4;
    XbarDirection x(1, 1, cfg);
    int pushed = 0;
    while (x.canPush(0)) {
        x.push(0, 0, makeReq(32));
        ++pushed;
    }
    EXPECT_EQ(pushed, 4);
}

TEST(Xbar, FlitsCounted)
{
    XbarConfig cfg;
    XbarDirection x(1, 1, cfg);
    x.push(0, 0, makeReq(kLineSize));       // 4 flits
    x.push(0, 0, makeReq(8));               // header: 1 flit
    Cycle now = 0;
    while (x.busy()) {
        x.cycle(now);
        while (x.hasDelivery(0, now))
            x.popDelivery(0);
        ++now;
        ASSERT_LT(now, 1000u);
    }
    EXPECT_EQ(x.stats().get("flits"), 5u);
    EXPECT_EQ(x.stats().get("packets"), 2u);
}

TEST(Request, FlitMath)
{
    EXPECT_EQ(makeReq(1).flits(), 1);
    EXPECT_EQ(makeReq(32).flits(), 1);
    EXPECT_EQ(makeReq(33).flits(), 2);
    EXPECT_EQ(makeReq(kLineSize).flits(), kLineSize / 32);
    EXPECT_EQ(makeReq(0).flits(), 1);   // header-only packets
}

std::set<std::string>
keysOf(const StatSet &s)
{
    std::set<std::string> keys;
    for (const auto &[name, value] : s.all())
        keys.insert(name);
    return keys;
}

TEST(Xbar, IdleDirectionExportsNoKeys)
{
    XbarDirection x(3, 2, XbarConfig{});
    for (Cycle now = 0; now < 10; ++now)
        x.cycle(now);
    EXPECT_TRUE(x.stats().all().empty());
    EXPECT_TRUE(x.stats().allDists().empty());
}

TEST(Xbar, TrafficExportsPacketsAndFlitsOnly)
{
    XbarDirection x(2, 2, XbarConfig{});
    x.push(1, 0, makeReq(40));              // 2 flits
    for (Cycle now = 0; now < 40; ++now) {
        x.cycle(now);
        while (x.hasDelivery(0, now))
            x.popDelivery(0);
    }
    const StatSet s = x.stats();
    EXPECT_EQ(keysOf(s), (std::set<std::string>{"flits", "packets"}));
    EXPECT_EQ(s.get("packets"), 1u);
    EXPECT_EQ(s.get("flits"), 2u);
    EXPECT_FALSE(s.isGauge("packets"));
}

/**
 * The historical arbiter: every output polls every input, modulo-wise
 * from its rotation point, for a head packet bound to it. Outputs go in
 * ascending order within a cycle, so a pop can expose a head that a
 * later output takes in the same cycle.
 */
class RefXbar
{
  public:
    RefXbar(int inputs, int outputs, const XbarConfig &cfg)
        : cfg_(cfg), in_q_(static_cast<std::size_t>(inputs)),
          busy_until_(static_cast<std::size_t>(outputs), 0),
          rr_(static_cast<std::size_t>(outputs), 0),
          out_q_(static_cast<std::size_t>(outputs)),
          flying_per_out_(static_cast<std::size_t>(outputs), 0)
    {}

    bool
    canPush(int in) const
    {
        return static_cast<int>(in_q_[static_cast<std::size_t>(in)].size()) <
               cfg_.input_queue;
    }

    void
    push(int in, int out, const MemRequest &req)
    {
        in_q_[static_cast<std::size_t>(in)].emplace_back(out, req);
    }

    void
    cycle(Cycle now)
    {
        for (std::size_t i = 0; i < flying_.size();) {
            if (flying_[i].at <= now) {
                const int out = flying_[i].out;
                out_q_[static_cast<std::size_t>(out)].push_back(
                    {flying_[i].req, out, flying_[i].at});
                --flying_per_out_[static_cast<std::size_t>(out)];
                flying_[i] = flying_.back();
                flying_.pop_back();
            } else {
                ++i;
            }
        }
        const int inputs = static_cast<int>(in_q_.size());
        for (std::size_t out = 0; out < out_q_.size(); ++out) {
            if (busy_until_[out] > now ||
                static_cast<int>(out_q_[out].size()) + flying_per_out_[out] >=
                    cfg_.output_queue) {
                continue;
            }
            for (int k = 0; k < inputs; ++k) {
                const int in = (rr_[out] + k) % inputs;
                auto &q = in_q_[static_cast<std::size_t>(in)];
                if (q.empty() || q.front().first != static_cast<int>(out))
                    continue;
                const MemRequest req = q.front().second;
                q.pop_front();
                const int flits = req.flits();
                busy_until_[out] = now + static_cast<Cycle>(flits);
                flying_.push_back({req, static_cast<int>(out),
                                   now + static_cast<Cycle>(flits) +
                                       static_cast<Cycle>(cfg_.latency)});
                ++flying_per_out_[out];
                ++packets;
                this->flits += static_cast<std::uint64_t>(flits);
                rr_[out] = (in + 1) % inputs;
                break;
            }
        }
    }

    bool
    hasDelivery(int out, Cycle now) const
    {
        const auto &q = out_q_[static_cast<std::size_t>(out)];
        return !q.empty() && q.front().at <= now;
    }

    MemRequest
    popDelivery(int out)
    {
        auto &q = out_q_[static_cast<std::size_t>(out)];
        const MemRequest req = q.front().req;
        q.pop_front();
        return req;
    }

    Cycle
    nextWork(Cycle now) const
    {
        for (const auto &q : out_q_)
            if (!q.empty())
                return now;
        Cycle e = kNoWork;
        for (const Flying &f : flying_)
            e = std::min(e, f.at > now ? f.at : now);
        for (const auto &q : in_q_) {
            if (q.empty())
                continue;
            const std::size_t out = static_cast<std::size_t>(q.front().first);
            if (static_cast<int>(out_q_[out].size()) + flying_per_out_[out] >=
                cfg_.output_queue) {
                continue;
            }
            e = std::min(e, busy_until_[out] > now ? busy_until_[out] : now);
        }
        return e;
    }

    std::uint64_t packets = 0;
    std::uint64_t flits = 0;

  private:
    struct Flying
    {
        MemRequest req;
        int out = 0;
        Cycle at = 0;
    };

    XbarConfig cfg_;
    std::vector<std::deque<std::pair<int, MemRequest>>> in_q_;
    std::vector<Cycle> busy_until_;
    std::vector<int> rr_;
    std::vector<std::deque<Flying>> out_q_;
    std::vector<Flying> flying_;
    std::vector<int> flying_per_out_;
};

void
churnAgainstReference(int inputs, int outputs, std::uint64_t seed)
{
    XbarConfig cfg;
    cfg.input_queue = 6;
    cfg.output_queue = 4;
    XbarDirection x(inputs, outputs, cfg);
    RefXbar ref(inputs, outputs, cfg);
    Rng rng(seed);
    std::uint64_t id = 1;
    std::uint64_t delivered = 0;
    for (Cycle now = 0; now < 20000; ++now) {
        ASSERT_EQ(x.nextWork(now), ref.nextWork(now)) << "cycle " << now;
        // Bursty offered load, skewed to low outputs so they contend.
        const int tries = (now / 1000) % 4 == 3 ? 0 : inputs;
        for (int k = 0; k < tries; ++k) {
            const int in = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(inputs)));
            if (!rng.chance(0.5) || !x.canPush(in))
                continue;
            ASSERT_TRUE(ref.canPush(in));
            const int out = static_cast<int>(std::min(
                rng.below(static_cast<std::uint64_t>(outputs)),
                rng.below(static_cast<std::uint64_t>(outputs))));
            MemRequest req = makeReq(
                static_cast<int>(rng.below(kLineSize + 1)));
            req.id = id++;
            x.push(in, out, req);
            ref.push(in, out, req);
        }
        x.cycle(now);
        ref.cycle(now);
        // Consumers stall now and then: full outputs back-pressure.
        for (int out = 0; out < outputs; ++out) {
            while (rng.chance(0.8) && x.hasDelivery(out, now)) {
                ASSERT_TRUE(ref.hasDelivery(out, now));
                ASSERT_EQ(x.popDelivery(out).id, ref.popDelivery(out).id)
                    << "cycle " << now << " output " << out;
                ++delivered;
            }
            ASSERT_EQ(x.hasDelivery(out, now), ref.hasDelivery(out, now));
        }
    }
    EXPECT_EQ(x.stats().get("packets"), ref.packets);
    EXPECT_EQ(x.stats().get("flits"), ref.flits);
    EXPECT_GT(delivered, 1000u);
}

TEST(XbarArbiter, MatchesModuloLoopUnderChurn)
{
    churnAgainstReference(15, 6, 1);    // request direction (Table 1)
    churnAgainstReference(6, 15, 2);    // reply direction
    churnAgainstReference(1, 1, 3);
    churnAgainstReference(64, 3, 4);    // the widest head bitset
}

} // namespace
} // namespace caba
