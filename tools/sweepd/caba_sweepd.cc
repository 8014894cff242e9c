/**
 * @file
 * caba_sweepd: the sweep-as-a-service daemon (DESIGN.md §13). Binds a
 * Unix-domain (or tcp:HOST:PORT) socket, then serves caba-sweep-req-v1
 * requests — registered experiments by name, or explicit app x design
 * cell lists — as byte-identical caba-bench-v1 documents, answering
 * warm repeats entirely from the cell cache. SIGTERM/SIGINT stop
 * admission and drain every already-admitted request before exit.
 *
 * Configuration comes from CABA_SWEEPD_SOCKET / CABA_SWEEPD_QUEUE /
 * CABA_SWEEPD_TIMEOUT_MS (see --help-env), each overridable by flag.
 */
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/parse.h"
#include "harness/sweep_service.h"

namespace {

using namespace caba;

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

void
usage(std::FILE *out)
{
    std::fprintf(out,
        "usage: caba_sweepd [options]\n"
        "\n"
        "Long-running sweep service: accepts caba-sweep-req-v1 requests\n"
        "(see caba_sweep) and streams back the same caba-bench-v1 bytes\n"
        "caba_bench --json writes. Repeated requests are answered from\n"
        "the cell cache without simulating.\n"
        "\n"
        "options:\n"
        "  --socket ADDR    listen address: UDS path or tcp:HOST:PORT\n"
        "                   (default: $CABA_SWEEPD_SOCKET)\n"
        "  --queue N        admission queue bound; over-limit requests\n"
        "                   get queue_full (default: $CABA_SWEEPD_QUEUE)\n"
        "  --timeout-ms N   default per-request deadline, 0 = none\n"
        "                   (default: $CABA_SWEEPD_TIMEOUT_MS)\n"
        "  --help-env       list environment variables and exit\n"
        "  -h, --help       this help\n");
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "caba_sweepd: %s\n\n", msg.c_str());
    usage(stderr);
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    SweepServiceConfig cfg;
    cfg.address = env::strOr("CABA_SWEEPD_SOCKET", "caba_sweepd.sock");
    cfg.max_queue = env::intOr("CABA_SWEEPD_QUEUE", 64);
    cfg.default_timeout_ms = env::intOr("CABA_SWEEPD_TIMEOUT_MS", 0);

    const auto valueOf = [&](const std::string &flag, int &i) {
        if (i + 1 >= argc)
            usageError("flag " + flag + " needs a value");
        return std::string(argv[++i]);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            usage(stdout);
            return 0;
        } else if (arg == "--help-env") {
            env::printHelp(stdout);
            return 0;
        } else if (arg == "--socket") {
            cfg.address = valueOf(arg, i);
        } else if (arg == "--queue") {
            int n = 0;
            if (!parse::intInRange(valueOf(arg, i), 0, &n))
                usageError("--queue needs a non-negative integer");
            cfg.max_queue = n;
        } else if (arg == "--timeout-ms") {
            int n = 0;
            if (!parse::intInRange(valueOf(arg, i), 0, &n))
                usageError("--timeout-ms needs a non-negative integer");
            cfg.default_timeout_ms = n;
        } else {
            usageError("unknown flag '" + arg + "'");
        }
    }
    SweepService service(cfg);
    std::string error;
    if (!service.start(&error)) {
        std::fprintf(stderr, "caba_sweepd: %s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "[sweepd] listening on %s (queue=%d, timeout_ms=%lld)\n",
                 cfg.address.c_str(), cfg.max_queue,
                 static_cast<long long>(cfg.default_timeout_ms));

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    while (g_stop == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::fprintf(stderr, "[sweepd] signal received; draining...\n");
    service.shutdown();

    std::fprintf(stderr, "[sweepd] final stats:\n");
    // Keep the snapshot alive across the loop: all() returns a
    // reference into the StatSet, and a temporary would be gone by the
    // first iteration.
    const StatSet final_stats = service.stats();
    for (const auto &[name, value] : final_stats.all())
        std::fprintf(stderr, "[sweepd]   %-26s %llu\n", name.c_str(),
                     static_cast<unsigned long long>(value));
    std::fprintf(stderr, "[sweepd] drained; bye\n");
    return 0;
}
