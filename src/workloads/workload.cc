#include "workloads/workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "common/log.h"
#include "common/rng.h"

namespace caba {

namespace {

/** Loop trips for @p iterations at @p scale: at least one, with a
 *  once-per-process stderr note when the floor lifts the request. */
int
scaledIterations(const AppDescriptor &app, double scale)
{
    const long requested = std::lround(app.iterations * scale);
    if (requested >= 1)
        return static_cast<int>(requested);
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
        std::fprintf(stderr,
                     "note: %s: %d loop trips x scale %g rounds to %ld; "
                     "running 1 (reported once per process)\n",
                     app.name.c_str(), app.iterations, scale, requested);
    }
    return 1;
}

} // namespace

Workload::Workload(AppDescriptor app, double scale, std::uint64_t seed)
    : app_(std::move(app)), iterations_(scaledIterations(app_, scale)),
      seed_(seed)
{
    buildProgram();
}

void
Workload::buildProgram()
{
    // Streams: one per load plus one per store, each in its own address
    // region so different arrays can have distinct behaviour.
    const int n_irregular = static_cast<int>(
        std::lround(app_.irregular_frac * app_.loads));
    for (int i = 0; i < app_.loads; ++i) {
        StreamDesc sd;
        sd.pattern = i < n_irregular ? AccessPattern::Irregular
                                     : app_.pattern;
        sd.base = (static_cast<Addr>(i) + 1) << 33;
        sd.footprint = std::max<std::uint64_t>(app_.footprint, kLineSize);
        sd.stride = app_.stride_bytes;
        streams_.push_back(sd);
    }
    for (int i = 0; i < app_.stores; ++i) {
        StreamDesc sd;
        // Output arrays are written densely (frontier flags, result
        // vectors, row-major products) even when the input access
        // pattern is irregular — the common GPGPU output idiom.
        sd.pattern = AccessPattern::Streaming;
        sd.base = (static_cast<Addr>(app_.loads + i) + 1) << 33 |
                  (Addr{1} << 42);
        sd.footprint = std::max<std::uint64_t>(app_.footprint, kLineSize);
        sd.stride = std::min(app_.stride_bytes, 8);
        sd.is_store = true;
        streams_.push_back(sd);
    }

    // Register plan: r0 scratch/address, r1..rL load results, then a
    // serial ALU/SFU chain so compute depends on memory (the source of
    // the data-dependence stalls of Figure 1).
    ProgramBuilder pb;
    int next_reg = 1;
    std::vector<int> load_regs;
    for (int i = 0; i < app_.loads; ++i) {
        load_regs.push_back(next_reg);
        pb.ldGlobal(next_reg, i, 0);
        ++next_reg;
    }
    int prev = load_regs.empty() ? 0 : load_regs.back();
    for (int i = 0; i < app_.alu; ++i) {
        const int src1 =
            load_regs.empty() ? 0 : load_regs[i % load_regs.size()];
        pb.alu(i % 2 == 0 ? Opcode::AluInt : Opcode::AluFp, next_reg, prev,
               src1);
        prev = next_reg++;
    }
    for (int i = 0; i < app_.sfu; ++i) {
        pb.alu(Opcode::Sfu, next_reg, prev);
        prev = next_reg++;
    }
    for (int i = 0; i < app_.shmem; ++i) {
        if (i % 2 == 0) {
            pb.ldShared(next_reg, prev);
            prev = next_reg++;
        } else {
            pb.stShared(prev, 0);
        }
    }
    for (int i = 0; i < app_.stores; ++i)
        pb.stGlobal(prev, app_.loads + i, 0);
    pb.branchTo(0);
    pb.exit();
    program_ = pb.build();
    CABA_CHECK(program_.numRegs() <= 64,
               "workload exceeds the 64-register scoreboard");
}

int
Workload::iterations(int warp_global) const
{
    (void)warp_global;
    return iterations_;
}

void
Workload::genLines(int stream, int warp_global, int iter,
                   MemAccess *out) const
{
    CABA_CHECK(stream >= 0 &&
               stream < static_cast<int>(streams_.size()),
               "bad stream index");
    const StreamDesc &sd = streams_[static_cast<std::size_t>(stream)];
    // Grid-stride loop indexing (the standard CUDA idiom): in a given
    // iteration, consecutive warps cover consecutive warp-sized chunks.
    const std::uint64_t idx =
        static_cast<std::uint64_t>(iter) *
            static_cast<std::uint64_t>(total_warps_) +
        static_cast<std::uint64_t>(warp_global);

    out->lines.clear();
    auto push_unique = [&](Addr line) {
        for (Addr l : out->lines)
            if (l == line)
                return;
        out->lines.push_back(line);
    };

    for (int lane = 0; lane < kWarpSize; ++lane) {
        std::uint64_t off;
        switch (sd.pattern) {
          case AccessPattern::Streaming:
          case AccessPattern::Strided:
            off = (idx * kWarpSize + static_cast<std::uint64_t>(lane)) *
                  static_cast<std::uint64_t>(sd.stride);
            break;
          case AccessPattern::Irregular:
          default:
            off = mixHash(seed_ ^ (static_cast<std::uint64_t>(stream) *
                                   0x9E3779B9ull) ^
                          (idx * 37 + static_cast<std::uint64_t>(lane)));
            break;
        }
        off %= sd.footprint;
        off &= ~std::uint64_t{3};
        push_unique(lineAddr(sd.base + off));
    }

    // Streaming stores write contiguous elements, overwriting their
    // lines completely; strided/irregular stores are partial-line
    // (Section 4.2.2).
    out->full_line = sd.pattern == AccessPattern::Streaming;
}

void
Workload::outputLine(Addr line, std::uint8_t *out) const
{
    // Store data keeps the app's value structure (results resemble
    // inputs far more than they resemble noise).
    generateMixLine(app_.data, seed_ ^ 0xA11CE5ull, line, out);
}

LineGenerator
Workload::lineGenerator() const
{
    const DataMix mix = app_.data;
    const std::uint64_t seed = seed_;
    return [mix, seed](Addr line, std::uint8_t *out) {
        generateMixLine(mix, seed, line, out);
    };
}

OccupancyResult
Workload::occupancy(int assist_regs) const
{
    OccupancyParams p;
    p.regs_per_thread = app_.regs_per_thread;
    p.threads_per_block = app_.threads_per_block;
    p.assist_regs_per_thread = assist_regs;
    return computeOccupancy(p);
}

int
Workload::warpsPerSm(int assist_regs, int max_warps) const
{
    const OccupancyResult r = occupancy(assist_regs);
    return std::max(1, std::min(max_warps, r.warps_per_sm));
}

} // namespace caba
