#include "workloads/app.h"

#include "common/log.h"

namespace caba {

namespace {

using DP = DataProfile;
using AP = AccessPattern;

/**
 * The application pool. Bounds and suites follow Figure 1 / Section 5;
 * mixes, footprints and data profiles are calibrated stand-ins for the
 * real benchmarks (see DESIGN.md substitution table).
 */
std::vector<AppDescriptor>
buildApps()
{
    std::vector<AppDescriptor> v;

    auto add = [&](AppDescriptor d) { v.push_back(std::move(d)); };

    // ---- Memory-bound, Figure 1 + compression pool ----

    add({.name = "BFS", .suite = "CUDA", .memory_bound = true,
         .regs_per_thread = 16, .threads_per_block = 512,
         .loads = 3, .stores = 1, .alu = 3, .sfu = 0, .shmem = 0,
         .pattern = AP::Irregular, .stride_bytes = 4,
         .irregular_frac = 0.7, .footprint = 24ull << 20, .iterations = 13,
         .data = {DP::Index, DP::Sparse, 0.35, 0.1}});

    add({.name = "CONS", .suite = "CUDA", .memory_bound = true,
         .regs_per_thread = 24, .threads_per_block = 128,
         .loads = 3, .stores = 1, .alu = 5, .sfu = 0, .shmem = 0,
         .pattern = AP::Streaming, .stride_bytes = 4,
         .irregular_frac = 0.0, .footprint = 16ull << 20, .iterations = 16,
         .data = {DP::SmallInt, DP::Fp32, 0.25, 0.15}});

    add({.name = "JPEG", .suite = "CUDA", .memory_bound = true,
         .regs_per_thread = 28, .threads_per_block = 256,
         .loads = 2, .stores = 1, .alu = 6, .sfu = 0, .shmem = 2,
         .pattern = AP::Streaming, .stride_bytes = 4,
         .irregular_frac = 0.0, .footprint = 12ull << 20, .iterations = 16,
         .data = {DP::Text, DP::SmallInt, 0.4, 0.15}});

    add({.name = "LPS", .suite = "CUDA", .memory_bound = true,
         .regs_per_thread = 20, .threads_per_block = 128,
         .loads = 3, .stores = 1, .alu = 4, .sfu = 0, .shmem = 1,
         .pattern = AP::Streaming, .stride_bytes = 4,
         .irregular_frac = 0.0, .footprint = 16ull << 20, .iterations = 16,
         .data = {DP::SmallInt, DP::Fp32, 0.2, 0.2}});

    add({.name = "MUM", .suite = "CUDA", .memory_bound = true,
         .regs_per_thread = 20, .threads_per_block = 128,
         .loads = 3, .stores = 1, .alu = 3, .sfu = 0, .shmem = 0,
         .pattern = AP::Irregular, .stride_bytes = 4,
         .irregular_frac = 0.4, .footprint = 24ull << 20, .iterations = 13,
         .data = {DP::Text, DP::Random, 0.2, 0.1}});

    add({.name = "RAY", .suite = "CUDA", .memory_bound = true,
         .regs_per_thread = 40, .threads_per_block = 128,
         .loads = 3, .stores = 1, .alu = 6, .sfu = 1, .shmem = 0,
         .pattern = AP::Strided, .stride_bytes = 16,
         .irregular_frac = 0.2, .footprint = 640ull << 10, .iterations = 13,
         .data = {DP::Fp32, DP::Pointer, 0.2, 0.05}});

    add({.name = "SCP", .suite = "CUDA", .memory_bound = true,
         .in_compression = false,
         .regs_per_thread = 24, .threads_per_block = 128,
         .loads = 3, .stores = 1, .alu = 4, .sfu = 0, .shmem = 0,
         .pattern = AP::Streaming, .stride_bytes = 4,
         .irregular_frac = 0.0, .footprint = 16ull << 20, .iterations = 16,
         .data = {DP::Random, DP::Random, 0.0, 0.02}});

    add({.name = "MM", .suite = "Mars", .memory_bound = true,
         .regs_per_thread = 21, .threads_per_block = 192,
         .loads = 3, .stores = 1, .alu = 5, .sfu = 0, .shmem = 1,
         .pattern = AP::Strided, .stride_bytes = 8,
         .irregular_frac = 0.0, .footprint = 16ull << 20, .iterations = 16,
         .data = {DP::Pointer, DP::SmallInt, 0.3, 0.1}});

    add({.name = "PVC", .suite = "Mars", .memory_bound = true,
         .regs_per_thread = 18, .threads_per_block = 256,
         .loads = 4, .stores = 2, .alu = 4, .sfu = 0, .shmem = 0,
         .pattern = AP::Streaming, .stride_bytes = 8,
         .irregular_frac = 0.1, .footprint = 24ull << 20, .iterations = 16,
         .data = {DP::Pointer, DP::SmallInt, 0.15, 0.1}});

    add({.name = "PVR", .suite = "Mars", .memory_bound = true,
         .regs_per_thread = 18, .threads_per_block = 256,
         .loads = 4, .stores = 2, .alu = 4, .sfu = 0, .shmem = 0,
         .pattern = AP::Streaming, .stride_bytes = 8,
         .irregular_frac = 0.2, .footprint = 24ull << 20, .iterations = 16,
         .data = {DP::Pointer, DP::Sparse, 0.25, 0.1}});

    add({.name = "SS", .suite = "Mars", .memory_bound = true,
         .regs_per_thread = 24, .threads_per_block = 128,
         .loads = 3, .stores = 1, .alu = 4, .sfu = 0, .shmem = 0,
         .pattern = AP::Streaming, .stride_bytes = 4,
         .irregular_frac = 0.2, .footprint = 16ull << 20, .iterations = 16,
         .data = {DP::Text, DP::Pointer, 0.35, 0.15}});

    add({.name = "sc", .suite = "CUDA", .memory_bound = true,
         .in_compression = false,
         .regs_per_thread = 28, .threads_per_block = 256,
         .loads = 2, .stores = 2, .alu = 4, .sfu = 0, .shmem = 0,
         .pattern = AP::Streaming, .stride_bytes = 4,
         .irregular_frac = 0.1, .footprint = 16ull << 20, .iterations = 16,
         .data = {DP::Random, DP::Random, 0.0, 0.01}});

    add({.name = "bfs", .suite = "Lonestar", .memory_bound = true,
         .regs_per_thread = 16, .threads_per_block = 256,
         .loads = 3, .stores = 1, .alu = 3, .sfu = 0, .shmem = 0,
         .pattern = AP::Irregular, .stride_bytes = 4,
         .irregular_frac = 0.8, .footprint = 320ull << 10, .iterations = 13,
         .data = {DP::Index, DP::Sparse, 0.3, 0.15}});

    add({.name = "bh", .suite = "Lonestar", .memory_bound = true,
         .regs_per_thread = 36, .threads_per_block = 256,
         .loads = 4, .stores = 1, .alu = 6, .sfu = 1, .shmem = 0,
         .pattern = AP::Irregular, .stride_bytes = 8,
         .irregular_frac = 0.6, .footprint = 12ull << 20, .iterations = 11,
         .data = {DP::Pointer, DP::Fp32, 0.35, 0.1}});

    add({.name = "mst", .suite = "Lonestar", .memory_bound = true,
         .regs_per_thread = 20, .threads_per_block = 128,
         .loads = 4, .stores = 1, .alu = 3, .sfu = 0, .shmem = 0,
         .pattern = AP::Irregular, .stride_bytes = 4,
         .irregular_frac = 0.6, .footprint = 20ull << 20, .iterations = 12,
         .data = {DP::Index, DP::Pointer, 0.3, 0.15}});

    add({.name = "sp", .suite = "Lonestar", .memory_bound = true,
         .regs_per_thread = 24, .threads_per_block = 128,
         .loads = 3, .stores = 1, .alu = 4, .sfu = 0, .shmem = 0,
         .pattern = AP::Irregular, .stride_bytes = 4,
         .irregular_frac = 0.5, .footprint = 16ull << 20, .iterations = 13,
         .data = {DP::Index, DP::Sparse, 0.35, 0.1}});

    add({.name = "sssp", .suite = "Lonestar", .memory_bound = true,
         .regs_per_thread = 18, .threads_per_block = 256,
         .loads = 3, .stores = 1, .alu = 3, .sfu = 0, .shmem = 0,
         .pattern = AP::Irregular, .stride_bytes = 4,
         .irregular_frac = 0.7, .footprint = 448ull << 10, .iterations = 13,
         .data = {DP::Index, DP::Sparse, 0.3, 0.15}});

    // ---- Compute-bound, Figure 1 pool ----

    add({.name = "bp", .suite = "Rodinia", .memory_bound = false,
         .in_compression = false,
         .regs_per_thread = 24, .threads_per_block = 128,
         .loads = 1, .stores = 1, .alu = 14, .sfu = 0, .shmem = 2,
         .pattern = AP::Streaming, .stride_bytes = 4,
         .irregular_frac = 0.0, .footprint = 4ull << 20, .iterations = 16,
         .data = {DP::Fp32, DP::SmallInt, 0.2, 0.05}});

    add({.name = "hs", .suite = "Rodinia", .memory_bound = false,
         .regs_per_thread = 28, .threads_per_block = 256,
         .loads = 1, .stores = 1, .alu = 12, .sfu = 0, .shmem = 3,
         .pattern = AP::Streaming, .stride_bytes = 4,
         .irregular_frac = 0.0, .footprint = 4ull << 20, .iterations = 16,
         .data = {DP::Fp32, DP::SmallInt, 0.35, 0.1}});

    add({.name = "dmr", .suite = "Lonestar", .memory_bound = false,
         .in_compression = false,
         .regs_per_thread = 40, .threads_per_block = 128,
         .loads = 1, .stores = 1, .alu = 6, .sfu = 4, .shmem = 0,
         .pattern = AP::Irregular, .stride_bytes = 8,
         .irregular_frac = 0.4, .footprint = 4ull << 20, .iterations = 11,
         .data = {DP::Fp32, DP::Pointer, 0.3, 0.05},
         .memo_hit_rate = 0.4});

    add({.name = "NQU", .suite = "CUDA", .memory_bound = false,
         .in_compression = false,
         .regs_per_thread = 20, .threads_per_block = 96,
         .loads = 1, .stores = 0, .alu = 16, .sfu = 0, .shmem = 2,
         .pattern = AP::Streaming, .stride_bytes = 4,
         .irregular_frac = 0.0, .footprint = 1ull << 20, .iterations = 16,
         .data = {DP::SmallInt, DP::Zeros, 0.3, 0.2}});

    add({.name = "SLA", .suite = "CUDA", .memory_bound = false,
         .regs_per_thread = 24, .threads_per_block = 128,
         .loads = 2, .stores = 1, .alu = 10, .sfu = 0, .shmem = 1,
         .pattern = AP::Streaming, .stride_bytes = 4,
         .irregular_frac = 0.0, .footprint = 8ull << 20, .iterations = 16,
         .data = {DP::SmallInt, DP::Fp32, 0.3, 0.15}});

    add({.name = "pt", .suite = "Lonestar", .memory_bound = false,
         .in_compression = false,
         .regs_per_thread = 32, .threads_per_block = 96,
         .loads = 1, .stores = 1, .alu = 13, .sfu = 1, .shmem = 1,
         .pattern = AP::Strided, .stride_bytes = 8,
         .irregular_frac = 0.1, .footprint = 4ull << 20, .iterations = 13,
         .data = {DP::Fp32, DP::Random, 0.2, 0.05}});

    add({.name = "lc", .suite = "CUDA", .memory_bound = false,
         .in_compression = false,
         .regs_per_thread = 28, .threads_per_block = 96,
         .loads = 1, .stores = 1, .alu = 15, .sfu = 0, .shmem = 0,
         .pattern = AP::Streaming, .stride_bytes = 4,
         .irregular_frac = 0.0, .footprint = 4ull << 20, .iterations = 16,
         .data = {DP::SmallInt, DP::Fp32, 0.3, 0.05}});

    add({.name = "STO", .suite = "CUDA", .memory_bound = false,
         .in_compression = false,
         .regs_per_thread = 24, .threads_per_block = 128,
         .loads = 1, .stores = 1, .alu = 8, .sfu = 0, .shmem = 6,
         .pattern = AP::Streaming, .stride_bytes = 4,
         .irregular_frac = 0.0, .footprint = 2ull << 20, .iterations = 16,
         .data = {DP::Text, DP::SmallInt, 0.3, 0.05}});

    add({.name = "NN", .suite = "CUDA", .memory_bound = false,
         .in_compression = false,
         .regs_per_thread = 24, .threads_per_block = 128,
         .loads = 1, .stores = 1, .alu = 8, .sfu = 3, .shmem = 0,
         .pattern = AP::Streaming, .stride_bytes = 4,
         .irregular_frac = 0.0, .footprint = 4ull << 20, .iterations = 13,
         .data = {DP::Fp32, DP::SmallInt, 0.2, 0.05},
         .memo_hit_rate = 0.5});

    add({.name = "mc", .suite = "CUDA", .memory_bound = false,
         .in_compression = false,
         .regs_per_thread = 32, .threads_per_block = 96,
         .loads = 1, .stores = 1, .alu = 6, .sfu = 5, .shmem = 0,
         .pattern = AP::Streaming, .stride_bytes = 4,
         .irregular_frac = 0.0, .footprint = 2ull << 20, .iterations = 13,
         .data = {DP::Fp32, DP::Random, 0.3, 0.02},
         .memo_hit_rate = 0.35});

    // ---- Compression-pool apps outside Figure 1 ----

    add({.name = "TRA", .suite = "CUDA", .memory_bound = true,
         .in_fig1 = false,
         .regs_per_thread = 16, .threads_per_block = 256,
         .loads = 2, .stores = 2, .alu = 3, .sfu = 0, .shmem = 2,
         .pattern = AP::Strided, .stride_bytes = 32,
         .irregular_frac = 0.0, .footprint = 1536ull << 10, .iterations = 13,
         .data = {DP::SmallInt, DP::Fp32, 0.25, 0.2}});

    add({.name = "nw", .suite = "Rodinia", .memory_bound = true,
         .in_fig1 = false,
         .regs_per_thread = 20, .threads_per_block = 128,
         .loads = 3, .stores = 1, .alu = 5, .sfu = 0, .shmem = 2,
         .pattern = AP::Strided, .stride_bytes = 8,
         .irregular_frac = 0.0, .footprint = 8ull << 20, .iterations = 16,
         .data = {DP::Text, DP::SmallInt, 0.45, 0.2}});

    add({.name = "KM", .suite = "Mars", .memory_bound = true,
         .in_fig1 = false,
         .regs_per_thread = 18, .threads_per_block = 256,
         .loads = 3, .stores = 1, .alu = 6, .sfu = 0, .shmem = 0,
         .pattern = AP::Strided, .stride_bytes = 16,
         .irregular_frac = 0.1, .footprint = 1280ull << 10, .iterations = 16,
         .data = {DP::Pointer, DP::SmallInt, 0.4, 0.1}});

    return v;
}

} // namespace

const std::vector<AppDescriptor> &
allApps()
{
    static const std::vector<AppDescriptor> apps = buildApps();
    return apps;
}

const AppDescriptor *
lookupApp(const std::string &name)
{
    for (const AppDescriptor &app : allApps())
        if (app.name == name)
            return &app;
    return nullptr;
}

const AppDescriptor &
findApp(const std::string &name)
{
    const AppDescriptor *app = lookupApp(name);
    CABA_CHECK(app != nullptr, "unknown application name");
    return *app;
}

std::vector<AppDescriptor>
fig1Apps()
{
    std::vector<AppDescriptor> out;
    for (const AppDescriptor &app : allApps())
        if (app.in_fig1 && app.memory_bound)
            out.push_back(app);
    for (const AppDescriptor &app : allApps())
        if (app.in_fig1 && !app.memory_bound)
            out.push_back(app);
    return out;
}

std::vector<AppDescriptor>
compressionApps()
{
    std::vector<AppDescriptor> out;
    for (const AppDescriptor &app : allApps())
        if (app.in_compression)
            out.push_back(app);
    return out;
}

} // namespace caba
