#include "common/env.h"

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/log.h"
#include "common/parse.h"

namespace caba {
namespace env {

namespace {

/* The registry proper. Adding a variable means adding a row here —
 * nothing else: snapshotting, raw(), typed accessors and --help-env all
 * derive from this table. Keep rows in the order users should read
 * them. */
constexpr std::array<Var, 10> kVars{{
    {"CABA_SCALE", Type::Real, "1.0",
     "Workload loop-trip multiplier, applied on top of any --scale flag; "
     "non-positive or unset keeps the configured scale."},
    {"CABA_JOBS", Type::Int, "hardware concurrency",
     "Sweep worker threads (1 = serial); ExperimentOptions::jobs wins "
     "when positive."},
    {"CABA_AUDIT", Type::Str, "end",
     "Self-consistency audit level: off|end|full|<period-cycles>."},
    {"CABA_TRACE", Type::Str, "(unset: tracing off)",
     "Chrome trace-event output path; presence enables tracing for the "
     "whole process."},
    {"CABA_TRACE_CATEGORIES", Type::Str, "all",
     "Comma-separated trace categories: "
     "warp,assist,cache,dram,xbar,slots,counter,all."},
    {"CABA_CACHE_DIR", Type::Str, "(unset: cell cache off)",
     "Content-addressed RunResult cache directory for sweep cells "
     "(harness/cell_cache.h). Hits are byte-identical to recomputation; "
     "entries are keyed on every semantic input plus a code version and "
     "self-checked under CABA_AUDIT=full."},
    {"CABA_PROF", Type::Str, "(unset: profiler off)",
     "In-loop wall-clock profiler output path: attributes host time per "
     "component class and phase, writes caba-prof-v1 JSON at exit plus "
     "a top-N table on stderr. Simulation results are bit-identical "
     "profiler on/off."},
    {"CABA_SWEEPD_SOCKET", Type::Str, "caba_sweepd.sock",
     "caba_sweepd/caba_sweep listen/connect address: a Unix-domain "
     "socket path, or tcp:HOST:PORT for multi-machine use."},
    {"CABA_SWEEPD_QUEUE", Type::Int, "64",
     "caba_sweepd admission-queue bound; requests beyond it are "
     "rejected immediately with a queue_full error (backpressure)."},
    {"CABA_SWEEPD_TIMEOUT_MS", Type::Int, "0",
     "caba_sweepd default per-request deadline in milliseconds "
     "(0 = none); a request's own timeout_ms field overrides."},
}};

std::size_t
indexOf(const char *name)
{
    for (std::size_t i = 0; i < kVars.size(); ++i)
        if (std::strcmp(kVars[i].name, name) == 0)
            return i;
    CABA_PANIC("env: variable not in registry (add it to common/env.cc)");
}

const char *
typeName(Type t)
{
    switch (t) {
      case Type::Int: return "int";
      case Type::Real: return "real";
      case Type::Str: return "string";
    }
    return "?";
}

/** One warning per variable and process (CABA_JOBS is re-read per
 *  sweep; repeating the same complaint would only add noise). */
std::array<std::atomic<bool>, kVars.size()> g_warned{};

/** The set, non-empty value of @p name, or nullptr (empty = unset). */
const char *
valueOf(const char *name)
{
    const char *v = raw(name);
    return v != nullptr && *v != '\0' ? v : nullptr;
}

} // namespace

const std::vector<Var> &
registry()
{
    static const std::vector<Var> vars(kVars.begin(), kVars.end());
    return vars;
}

const char *
raw(const char *name)
{
    return std::getenv(kVars[indexOf(name)].name);
}

void
warnRejected(const char *name, const char *value, const char *want)
{
    const std::size_t i = indexOf(name);
    if (g_warned[i].exchange(true))
        return;
    std::fprintf(stderr,
                 "warning: ignoring %s='%s' (need %s); using the default "
                 "(%s)\n",
                 name, value, want, kVars[i].fallback);
}

int
intOr(const char *name, int fallback)
{
    const char *v = valueOf(name);
    int n = fallback;
    if (v != nullptr && !parse::intInRange(v, 0, &n))
        warnRejected(name, v, "a non-negative integer");
    return n;
}

int
positiveIntOr(const char *name, int fallback)
{
    const char *v = valueOf(name);
    int n = fallback;
    if (v != nullptr && !parse::intInRange(v, 1, &n))
        warnRejected(name, v, "a positive integer");
    return n;
}

const char *
strOr(const char *name, const char *fallback)
{
    const char *v = raw(name);
    return v != nullptr ? v : fallback;
}

double
positiveRealOr(const char *name, double fallback)
{
    const char *v = valueOf(name);
    double x = fallback;
    if (v != nullptr && !parse::finitePositiveReal(v, &x))
        warnRejected(name, v, "a finite positive number");
    return x;
}

void
printHelp(std::FILE *out)
{
    std::fprintf(out, "Environment variables (all optional):\n");
    for (const Var &v : registry()) {
        std::fprintf(out, "  %-22s %-7s default: %s\n", v.name,
                     typeName(v.type), v.fallback);
        std::fprintf(out, "      %s\n", v.doc);
    }
}

} // namespace env
} // namespace caba
