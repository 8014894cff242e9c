/**
 * @file
 * caba_perfbench: the benchmark's own driver binary (see README.md in
 * this directory). perfbench/run.py builds it and runs one mode per
 * process, so the timed simulation runs never share a process with the
 * traced run or the probes:
 *
 *   sim   --workload W --seed N (--seconds S | --passes K)
 *         [--scale X]
 *         Builds the workload's cells itself, mirroring the harness
 *         runner (Workload(app, scale, seed) -> GpuSystem -> launch ->
 *         run), and runs them one at a time in a fixed order until S
 *         host seconds have passed (or exactly K passes). A timed run
 *         first sets the pass up repeatedly without running it and
 *         prints those set-up times. Then one JSON line per cell: its
 *         result row, the end-of-run audit, the static instruction
 *         count, the host time of each public call (spans) and the
 *         simulated counters the per-layer metrics need.
 *   probe --workload W --seed N --seconds S
 *         Layer probes on lines the workload itself generates: codec
 *         compress/decompress throughput, CompressionModel::lookup,
 *         and a DramChannel replay of the workload's line stream.
 *   prime --socket ADDR [--scale X]
 *         Asks a running caba_sweepd for the fig07_performance grid
 *         once, so that its cell cache holds every cell.
 *   warm  --socket ADDR --seed N --seconds S [--scale X]
 *         Closed-loop client of that daemon: seeded requests for the
 *         grid (by experiment name or as a cell list) or a subset of
 *         it, until S seconds have passed. One JSON line per request.
 *
 * Every mode but prime ends with a {"peak_rss_kb": N} line.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/json_parse.h"
#include "common/parse.h"
#include "common/rng.h"
#include "compress/design.h"
#include "compress/registry.h"
#include "gpu/gpu_system.h"
#include "harness/runner.h"
#include "harness/sweep_service.h"
#include "mem/backing_store.h"
#include "mem/compression_model.h"
#include "mem/dram.h"
#include "workloads/app.h"
#include "workloads/workload.h"

using namespace caba;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "caba_perfbench: %s\n", msg.c_str());
    std::exit(2);
}

/** Peak resident set of this process in KiB (VmHWM), 0 if unknown. */
std::uint64_t
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    return 0;
}

void
printRss()
{
    std::printf("{\"peak_rss_kb\":%llu}\n",
                static_cast<unsigned long long>(peakRssKb()));
}

// ---------------------------------------------------------------------------
// Workloads

/** One simulation cell: an app on a design, optionally warp-capped. */
struct Cell
{
    AppDescriptor app;
    DesignConfig design;
    int max_warps = 0;
};

/**
 * One cell per app, the designs assigned round-robin (app i runs on
 * design i mod D), so one pass touches every app and every design.
 * The full app x design grid costs several times a run's budget.
 */
std::vector<Cell>
roundRobin(const std::vector<AppDescriptor> &apps,
           const std::vector<DesignConfig> &designs, int max_warps)
{
    std::vector<Cell> cells;
    for (std::size_t a = 0; a < apps.size(); ++a)
        cells.push_back({apps[a], designs[a % designs.size()], max_warps});
    return cells;
}

std::vector<DesignConfig>
fig07Designs()
{
    return {DesignConfig::base(), DesignConfig::hwMem(), DesignConfig::hw(),
            DesignConfig::caba(), DesignConfig::ideal()};
}

/** Resident-warp cap of the low_occ workload. */
constexpr int kLowOccWarps = 4;

/** The cells of one pass of simulation workload @p name. */
std::vector<Cell>
workloadCells(const std::string &name)
{
    if (name == "fig07")
        return roundRobin(compressionApps(), fig07Designs(), 0);
    if (name == "algos")
        return roundRobin(compressionApps(),
                          {DesignConfig::caba(Algorithm::Fpc),
                           DesignConfig::caba(Algorithm::CPack),
                           DesignConfig::caba(Algorithm::BestOfAll)},
                          0);
    if (name == "low_occ") {
        std::vector<AppDescriptor> compute;
        for (const AppDescriptor &a : fig1Apps())
            if (!a.memory_bound)
                compute.push_back(a);
        return roundRobin(compute, {DesignConfig::base()}, kLowOccWarps);
    }
    die("unknown simulation workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// sim mode

/** Counters summed into the per-layer "simulated counts". */
const char *const kCounters[] = {
    "awc_triggers",
    "awc_awt_full_rejections",
    "sm_assist_instructions",
    "l2_hits",
    "l2_misses",
    "md_hits",
    "md_misses",
    "dram_queue_wait_cycles",
    "dram_reads",
    "dram_sched_no_eligible",
    "model_lines_compressed",
};

/** Instructions every warp retires: the loop body (branch included)
 *  once per trip, then the exit. */
std::uint64_t
staticInstructions(const Workload &wl, int warps_per_sm, int num_sms)
{
    const std::uint64_t body =
        static_cast<std::uint64_t>(wl.program().size() - 1);
    const std::uint64_t warps =
        static_cast<std::uint64_t>(warps_per_sm) *
        static_cast<std::uint64_t>(num_sms);
    std::uint64_t total = 0;
    for (std::uint64_t w = 0; w < warps; ++w)
        total += body * static_cast<std::uint64_t>(
                            wl.iterations(static_cast<int>(w))) + 1;
    return total;
}

/** One cell set up as the harness runner (simulateApp) has it just
 *  before GpuSystem::run, with the host time of each public call. */
struct Launched
{
    std::unique_ptr<Workload> wl;
    GpuConfig cfg;
    int warps = 0;
    std::unique_ptr<GpuSystem> gpu;
    std::int64_t build_ns = 0;      ///< Workload construction + grid.
    std::int64_t construct_ns = 0;  ///< GpuSystem construction.
    std::int64_t launch_ns = 0;     ///< GpuSystem::launch.

    std::int64_t setupNs() const
    {
        return build_ns + construct_ns + launch_ns;
    }

    /** Destroys the GpuSystem, then the Workload it points into. */
    void tearDown()
    {
        gpu.reset();
        wl.reset();
    }
};

Launched
setUp(const Cell &cell, double scale, std::uint64_t seed)
{
    ExperimentOptions opts;
    opts.max_warps = cell.max_warps;

    // Audits stay on (end of run) but report instead of aborting.
    Launched l;
    const std::int64_t t0 = nowNs();
    l.wl = std::make_unique<Workload>(cell.app, scale, seed);
    l.cfg = makeGpuConfig(opts);
    l.cfg.audit.fatal = false;
    const int assist = cell.design.usesCaba() ? opts.assist_regs : 0;
    l.warps = l.wl->warpsPerSm(assist, l.cfg.sm.max_warps);
    if (opts.max_warps > 0 && l.warps > opts.max_warps)
        l.warps = opts.max_warps;
    l.wl->bindGrid(l.warps * l.cfg.num_sms);
    const std::int64_t t1 = nowNs();
    l.gpu = std::make_unique<GpuSystem>(l.cfg, cell.design,
                                        l.wl->lineGenerator());
    const std::int64_t t2 = nowNs();
    l.gpu->launch(l.wl.get(), l.warps);
    const std::int64_t t3 = nowNs();
    l.build_ns = t1 - t0;
    l.construct_ns = t2 - t1;
    l.launch_ns = t3 - t2;
    return l;
}

void
runCell(const Cell &cell, std::size_t index, double scale,
        std::uint64_t seed)
{
    // The cell's host time is set-up + run + tear-down; the checks in
    // between are the benchmark's own work and stay out of it.
    const std::int64_t t0 = nowNs();
    Launched l = setUp(cell, scale, seed);
    const std::int64_t t1 = nowNs();
    const RunResult r = l.gpu->run();
    const std::int64_t t2 = nowNs();
    const std::uint64_t static_instructions =
        staticInstructions(*l.wl, l.warps, l.cfg.num_sms);
    const std::vector<std::string> audit = l.gpu->auditFailures();
    const std::int64_t t3 = nowNs();
    l.tearDown();
    const std::int64_t t4 = nowNs();

    JsonWriter w;
    w.beginObject()
        .kv("cell", static_cast<std::uint64_t>(index))
        .kv("app", cell.app.name)
        .kv("design", cell.design.name)
        .kv("cycles", static_cast<std::uint64_t>(r.cycles))
        .kv("instructions", r.instructions)
        .kv("static_instructions", static_instructions)
        .kv("audit_failures", static_cast<std::uint64_t>(audit.size()))
        .kv("build_ns", l.build_ns)
        .kv("construct_ns", l.construct_ns)
        .kv("launch_ns", l.launch_ns)
        .kv("run_ns", t2 - t1)
        .kv("cell_ns", (t2 - t0) + (t4 - t3));
    w.key("counters").beginObject();
    for (const char *name : kCounters)
        w.kv(name, r.stats.get(name));
    w.endObject().endObject();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
    for (const std::string &f : audit)
        std::fprintf(stderr, "audit: %s %s: %s\n", cell.app.name.c_str(),
                     cell.design.name.c_str(), f.c_str());
}

/** Host seconds (and fewest repetitions) of the set-up phase. */
constexpr double kSetupSeconds = 0.5;
constexpr std::size_t kSetupMinReps = 15;

/**
 * Sets up every cell of the pass and tears it down again, without
 * running it, for kSetupSeconds and at least kSetupMinReps times.
 * Prints each repetition's total set-up time (Workload construction,
 * GpuSystem construction, launch) of the whole pass.
 */
void
setupPhase(const std::vector<Cell> &cells, double scale, std::uint64_t seed)
{
    std::vector<std::int64_t> totals;
    const std::int64_t end =
        nowNs() + static_cast<std::int64_t>(kSetupSeconds * 1e9);
    do {
        std::int64_t total = 0;
        for (const Cell &cell : cells) {
            Launched l = setUp(cell, scale, seed);
            total += l.setupNs();
            l.tearDown();
        }
        totals.push_back(total);
    } while (nowNs() < end || totals.size() < kSetupMinReps);
    JsonWriter w;
    w.beginObject().key("setup_pass_ns").beginArray();
    for (std::int64_t t : totals)
        w.value(t);
    w.endArray().endObject();
    std::printf("%s\n", w.str().c_str());
}

void
simMode(const std::string &workload, std::uint64_t seed, double seconds,
        long passes, double scale)
{
    // Timed runs first time the pass's set-up on its own, then repeat
    // the pass until the budget is spent, finishing at least one whole
    // pass; --passes runs exactly that many passes and nothing else.
    const std::vector<Cell> cells = workloadCells(workload);
    if (passes < 0)
        setupPhase(cells, scale, seed);
    const long cells_exact =
        passes < 0 ? -1 : passes * static_cast<long>(cells.size());
    const std::int64_t start = nowNs();
    const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t i = 0;; ++i) {
        if (cells_exact >= 0 ? static_cast<long>(i) >= cells_exact
                             : i >= cells.size() && nowNs() - start >= budget)
            break;
        runCell(cells[i % cells.size()], i, scale, seed);
    }
    printRss();
}

// ---------------------------------------------------------------------------
// probe mode

/** Warps of the grid the probes walk (15 SMs x 48 warps). */
constexpr int kProbeGridWarps = 720;

/** The first @p want line addresses the workload touches, in access
 *  order: iteration-major, warps across the grid, every stream, each
 *  warp access coalesced into its distinct lines. */
std::vector<Addr>
workloadLines(const Workload &wl, int streams, std::size_t want)
{
    std::vector<Addr> out;
    MemAccess acc;
    for (int iter = 0; iter < wl.iterations(0) && out.size() < want; ++iter)
        for (int w = 0; w < kProbeGridWarps && out.size() < want; ++w)
            for (int s = 0; s < streams; ++s) {
                wl.genLines(s, w, iter, &acc);
                for (Addr l : acc.lines)
                    out.push_back(l);
            }
    if (out.size() > want)
        out.resize(want);
    return out;
}

struct ProbeInput
{
    std::vector<Addr> lines;                  ///< Access order.
    std::vector<std::uint8_t> data;           ///< 64 B per line.
    std::vector<LineGenerator> gens;          ///< Per-app generators.
    std::vector<std::size_t> app_of;          ///< Line -> generator.
};

/** Lines drawn from every app of the workload (each pass runs every
 *  app once), with their data. */
ProbeInput
probeInput(const std::string &workload, std::uint64_t seed, double scale)
{
    ProbeInput in;
    constexpr std::size_t kLinesPerApp = 4096;
    for (const Cell &cell : workloadCells(workload)) {
        const AppDescriptor &app = cell.app;
        Workload wl(app, scale, seed);
        wl.bindGrid(kProbeGridWarps);
        const std::vector<Addr> lines =
            workloadLines(wl, app.loads + app.stores, kLinesPerApp);
        in.gens.push_back(wl.lineGenerator());
        for (Addr l : lines) {
            in.lines.push_back(l);
            in.app_of.push_back(in.gens.size() - 1);
            const std::size_t off = in.data.size();
            in.data.resize(off + kLineSize);
            in.gens.back()(l, in.data.data() + off);
        }
    }
    return in;
}

/** Repeats @p fn (one pass over the probe set, returning the bytes or
 *  items it processed) for about @p seconds; returns the median
 *  per-pass rate in items per second. */
template <typename Fn>
double
medianRate(double seconds, Fn &&fn)
{
    std::vector<double> rates;
    const std::int64_t end =
        nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    do {
        const std::int64_t t0 = nowNs();
        const double items = fn();
        const std::int64_t dt = std::max<std::int64_t>(1, nowNs() - t0);
        rates.push_back(items * 1e9 / static_cast<double>(dt));
    } while (nowNs() < end || rates.size() < 3);
    std::sort(rates.begin(), rates.end());
    return rates[rates.size() / 2];
}

void
probeMode(const std::string &workload, std::uint64_t seed, double seconds,
          double scale)
{
    const ProbeInput in = probeInput(workload, seed, scale);
    const std::size_t n = in.lines.size();
    const double slice = seconds / 6.0;
    JsonWriter w;
    w.beginObject().kv("lines", static_cast<std::uint64_t>(n));

    // Codecs: compress every line, then decompress every image.
    std::uint64_t sink = 0;
    const std::pair<const char *, Algorithm> codecs[] = {
        {"bdi", Algorithm::Bdi},
        {"fpc", Algorithm::Fpc},
        {"cpack", Algorithm::CPack}};
    for (const auto &[name, algo] : codecs) {
        const Codec &codec = getCodec(algo);
        std::vector<CompressedLine> images(n);
        const double c_rate = medianRate(slice / 2, [&] {
            for (std::size_t i = 0; i < n; ++i)
                images[i] = codec.compress(&in.data[i * kLineSize]);
            return static_cast<double>(n * kLineSize);
        });
        std::uint8_t out[kLineSize];
        const double d_rate = medianRate(slice / 2, [&] {
            for (std::size_t i = 0; i < n; ++i) {
                codec.decompress(images[i], out);
                sink += out[i % kLineSize];
            }
            return static_cast<double>(n * kLineSize);
        });
        for (std::size_t i = 0; i < n; ++i) {
            codec.decompress(images[i], out);
            if (std::memcmp(out, &in.data[i * kLineSize], kLineSize) != 0)
                die(std::string(name) + " probe: round trip mismatch");
        }
        w.kv(std::string(name) + "_compress_mb_s", c_rate / 1e6)
            .kv(std::string(name) + "_decompress_mb_s", d_rate / 1e6);
    }

    // CompressionModel::lookup over the workload's access stream, one
    // model per app (its own backing store), as the partitions use it.
    // Each repetition builds fresh models (untimed), then times one
    // pass in access order: every miss compresses, every hit is a memo
    // hit, in the proportion the stream itself has.
    {
        std::vector<double> ns_per_lookup;
        std::uint64_t compressed = 0;
        const std::int64_t end =
            nowNs() + static_cast<std::int64_t>(slice * 1e9);
        do {
            std::vector<std::unique_ptr<BackingStore>> stores;
            std::vector<std::unique_ptr<CompressionModel>> models;
            for (const LineGenerator &g : in.gens) {
                stores.push_back(std::make_unique<BackingStore>(g));
                models.push_back(std::make_unique<CompressionModel>(
                    *stores.back(), Algorithm::Bdi, false));
            }
            const std::int64_t t0 = nowNs();
            for (std::size_t i = 0; i < n; ++i)
                sink += static_cast<std::uint64_t>(
                    models[in.app_of[i]]->lookup(in.lines[i]).size());
            const std::int64_t dt = nowNs() - t0;
            ns_per_lookup.push_back(static_cast<double>(dt) /
                                    static_cast<double>(n));
            compressed = 0;
            for (const auto &m : models)
                compressed += m->stats().get("lines_compressed");
        } while (nowNs() < end || ns_per_lookup.size() < 3);
        std::sort(ns_per_lookup.begin(), ns_per_lookup.end());
        w.kv("model_lookup_ns", ns_per_lookup[ns_per_lookup.size() / 2])
            .kv("model_lookups", static_cast<std::uint64_t>(n))
            .kv("model_lines_compressed", compressed);
    }

    // DramChannel replay: the workload's lines, in access order, as
    // reads fed as fast as the read queue accepts them.
    {
        DramConfig dcfg;
        std::uint64_t cycles = 0;
        StatSet dstats;
        const double rate = medianRate(slice, [&] {
            DramChannel ch(dcfg);
            std::vector<DramCompletion> done;
            std::size_t next = 0;
            std::size_t completed = 0;
            Cycle now = 0;
            while (completed < n) {
                while (next < n && ch.canAccept(false)) {
                    DramCmd cmd;
                    cmd.id = next;
                    cmd.line = in.lines[next];
                    cmd.enqueued = now;
                    ch.enqueue(cmd);
                    ++next;
                }
                ch.cycle(now);
                done.clear();
                ch.drainCompleted(now, &done);
                completed += done.size();
                ++now;
            }
            cycles = now;
            dstats = ch.stats();
            return static_cast<double>(now);
        });
        w.kv("dram_ns_per_cycle", 1e9 / rate)
            .kv("dram_cycles", cycles)
            .kv("dram_row_hits", dstats.get("row_hits"))
            .kv("dram_row_misses", dstats.get("row_misses"));
    }
    w.kv("sink", sink & 1).endObject();
    std::printf("%s\n", w.str().c_str());
    printRss();
}

// ---------------------------------------------------------------------------
// warm mode

/** Writes the rows [app, design, cycles, instructions] of the
 *  caba-bench-v1 document @p payload into @p w as an array. */
void
writeRows(JsonWriter &w, const std::string &payload)
{
    json::Value doc;
    std::string err;
    if (!json::parse(payload, &doc, &err))
        die("warm: payload is not JSON: " + err);
    const json::Value *cells = doc.find("cells");
    if (cells == nullptr || !cells->isArray())
        die("warm: payload has no cells array");
    w.beginArray();
    for (const json::Value &c : cells->array) {
        const json::Value *app = c.find("app");
        const json::Value *design = c.find("design");
        const json::Value *res = c.find("result");
        if (app == nullptr || design == nullptr || res == nullptr ||
            res->find("cycles") == nullptr ||
            res->find("instructions") == nullptr)
            die("warm: malformed cell in payload");
        w.beginArray()
            .value(app->string)
            .value(design->string)
            .value(static_cast<std::uint64_t>(res->find("cycles")->number))
            .value(static_cast<std::uint64_t>(
                res->find("instructions")->number))
            .endArray();
    }
    w.endArray();
}

/** The experiment whose grid the warm workload serves. */
const char *const kWarmExperiment = "fig07_performance";

void
submit(const std::string &socket, const SweepRequestSpec &spec,
       SweepReply *reply)
{
    std::string err;
    if (!submitSweepRequest(socket, buildSweepRequestJson(spec), reply, &err))
        die("warm: transport: " + err);
}

/** Primes the daemon: the experiment's whole grid, simulated once on
 *  all of the daemon's workers, as `caba_sweep --experiment` asks. */
void
primeMode(const std::string &socket, double scale)
{
    SweepRequestSpec prime;
    prime.experiment = kWarmExperiment;
    prime.scale = scale;
    SweepReply reply;
    submit(socket, prime, &reply);
    if (!reply.ok)
        die("warm: prime failed: " + reply.code + ": " + reply.message);
    JsonWriter w;
    w.beginObject().kv("prime_simulations", reply.simulations);
    w.key("prime_rows");
    writeRows(w, reply.payload);
    w.endObject();
    std::printf("%s\n", w.str().c_str());
}

/** Request shapes of the warm mix, one per way the repository's own
 *  clients ask for cells: `caba_sweep --experiment` (README, CI
 *  service-smoke), the same grid as an explicit cell list, and a
 *  `caba_sweep --apps ... --designs ...` subset of it. */
enum class WarmKind { Experiment, Grid, Subset };

const char *
kindName(WarmKind k)
{
    switch (k) {
    case WarmKind::Experiment:
        return "experiment";
    case WarmKind::Grid:
        return "grid";
    case WarmKind::Subset:
        return "subset";
    }
    return "?";
}

void
warmMode(const std::string &socket, std::uint64_t seed, double seconds,
         double scale)
{
    std::vector<std::string> apps;
    for (const AppDescriptor &a : compressionApps())
        apps.push_back(a.name);
    std::vector<std::string> designs;
    for (const DesignConfig &d : fig07Designs())
        designs.push_back(d.name);

    // Closed loop, one client. Each request draws its shape uniformly;
    // a subset takes 1..20 apps x 1..5 designs of the grid, every size
    // the cell-list form can ask of it equally likely. Cells run
    // serially (jobs 1): fanning cache hits across the pool would
    // measure the scheduler.
    Rng rng(seed);
    const std::int64_t start = nowNs();
    const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
    for (std::uint64_t i = 0; nowNs() - start < budget; ++i) {
        const auto kind = static_cast<WarmKind>(rng.below(3));
        SweepRequestSpec spec;
        spec.scale = scale;
        spec.jobs = 1;
        std::vector<std::string> a = apps;
        std::vector<std::string> d = designs;
        if (kind == WarmKind::Experiment) {
            spec.experiment = kWarmExperiment;
        } else {
            if (kind == WarmKind::Subset) {
                for (std::size_t k = a.size(); k > 1; --k)
                    std::swap(a[k - 1], a[rng.below(k)]);
                for (std::size_t k = d.size(); k > 1; --k)
                    std::swap(d[k - 1], d[rng.below(k)]);
                a.resize(1 + rng.below(a.size()));
                d.resize(1 + rng.below(d.size()));
            }
            spec.apps = a;
            spec.designs = d;
        }
        const std::int64_t t0 = nowNs();
        SweepReply r;
        submit(socket, spec, &r);
        const std::int64_t t1 = nowNs();
        JsonWriter w;
        w.beginObject()
            .kv("request", i)
            .kv("kind", kindName(kind))
            .kv("ok", r.ok)
            .kv("rtt_ns", t1 - t0)
            .kv("server_ms", r.wall_ms)
            .kv("cells", static_cast<std::uint64_t>(a.size() * d.size()))
            .kv("simulations", r.simulations)
            .kv("cache_served", r.cache_served)
            .kv("payload_bytes", static_cast<std::uint64_t>(r.payload.size()));
        w.key("apps").beginArray();
        for (const std::string &x : a)
            w.value(x);
        w.endArray().key("designs").beginArray();
        for (const std::string &x : d)
            w.value(x);
        w.endArray().key("rows");
        if (r.ok)
            writeRows(w, r.payload);
        else
            w.beginArray().endArray();
        w.endObject();
        std::printf("%s\n", w.str().c_str());
    }
    printRss();
}

// ---------------------------------------------------------------------------

void
usage()
{
    std::fprintf(stderr,
        "usage: caba_perfbench sim   --workload W --seed N "
        "(--seconds S | --passes K) [--scale X]\n"
        "       caba_perfbench probe --workload W --seed N --seconds S "
        "[--scale X]\n"
        "       caba_perfbench prime --socket ADDR [--scale X]\n"
        "       caba_perfbench warm  --socket ADDR --seed N --seconds S "
        "[--scale X]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string mode = argv[1];
    std::string workload;
    std::string socket;
    std::uint64_t seed = 0;
    bool have_seed = false;
    double seconds = -1.0;
    long passes = -1;
    double scale = 0.1;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage();
        const std::string v = argv[++i];
        if (flag == "--workload") {
            workload = v;
        } else if (flag == "--socket") {
            socket = v;
        } else if (flag == "--seed") {
            char *end = nullptr;
            seed = std::strtoull(v.c_str(), &end, 10);
            if (end == v.c_str() || *end != '\0')
                usage();
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!parse::finitePositiveReal(v, &seconds))
                usage();
        } else if (flag == "--passes") {
            int k = 0;
            if (!parse::intInRange(v, 1, &k))
                usage();
            passes = k;
        } else if (flag == "--scale") {
            if (!parse::finitePositiveReal(v, &scale))
                usage();
        } else {
            usage();
        }
    }
    if (mode == "prime" && !socket.empty())
        primeMode(socket, scale);
    else if (!have_seed)
        usage();
    else if (mode == "sim" && !workload.empty() && (seconds > 0) != (passes > 0))
        simMode(workload, seed, seconds, passes, scale);
    else if (mode == "probe" && !workload.empty() && seconds > 0)
        probeMode(workload, seed, seconds, scale);
    else if (mode == "warm" && !socket.empty() && seconds > 0)
        warmMode(socket, seed, seconds, scale);
    else
        usage();
    return 0;
}
