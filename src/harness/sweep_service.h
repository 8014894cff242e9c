/**
 * @file
 * Sweep-as-a-service core (DESIGN.md §13): the library behind the
 * caba_sweepd daemon and the caba_sweep client. The ROADMAP's
 * "heavy traffic" shape — repeated, overlapping app x design sweeps —
 * becomes a long-running server answering `caba-sweep-req-v1` requests
 * over a Unix-domain (or TCP) socket with the exact `caba-bench-v1`
 * documents caba_bench writes, byte for byte.
 *
 * Protocol (framing in common/socket.h):
 *   client -> server: one kFrameRequest frame carrying the request JSON
 *   server -> client: one kFrameResponseHeader frame
 *                     (`caba-sweep-resp-v1` JSON: status + per-request
 *                     stats, or a structured error), then — on success
 *                     only — one kFrameResponsePayload frame with the
 *                     raw caba-bench-v1 bytes.
 *
 * Request JSON (`caba-sweep-req-v1`): exactly one of
 *   {"schema":"caba-sweep-req-v1","experiment":"fig07_performance",...}
 *   {"schema":"caba-sweep-req-v1","apps":[...],"designs":[...],...}
 * plus optional {"options":{"scale":X,"jobs":N,"warps":N}} and
 * "timeout_ms". Validation reuses the CLI's strict numeric rules
 * (common/parse.h), so "nan" scales and LONG_MAX jobs are rejected at
 * the door with a structured error — a malformed request never reaches
 * the executor and never kills the daemon.
 *
 * Execution model: one acceptor thread validates and admits requests
 * into a bounded queue (admission control / backpressure: over-limit
 * requests get an immediate `queue_full` error); one executor thread
 * drains the queue serially, and each sweep fans its cells across the
 * existing ThreadPool — the worker pool shards cells, not requests, so
 * per-request cache accounting stays exact. Every cell goes through
 * runApp and therefore the CellCache (the service enables the
 * in-process layer; CABA_CACHE_DIR adds the disk layer), so repeated
 * figure regenerations simulate zero cells. beginShutdown() (SIGTERM in
 * the daemon) stops admission and drains everything already admitted
 * before the threads exit.
 */
#ifndef CABA_HARNESS_SWEEP_SERVICE_H
#define CABA_HARNESS_SWEEP_SERVICE_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "common/stats.h"
#include "harness/runner.h"

namespace caba {

/** Frame types of the caba-sweep protocol (see file comment). */
enum SweepFrameType : std::uint32_t {
    kFrameRequest = 1,
    kFrameResponseHeader = 2,
    kFrameResponsePayload = 3,
};

/** Schema identifiers, spelled once. */
extern const char *const kSweepRequestSchema;   ///< "caba-sweep-req-v1"
extern const char *const kSweepResponseSchema;  ///< "caba-sweep-resp-v1"

/** Service knobs; the daemon fills them from CABA_SWEEPD_* env vars. */
struct SweepServiceConfig
{
    /** Listen address: UDS path, or "tcp:HOST:PORT". */
    std::string address = "caba_sweepd.sock";

    /** Bounded admission queue: requests waiting behind the executor.
     *  Over-limit submissions are rejected with `queue_full`; 0 rejects
     *  every request (useful to test the backpressure path). */
    int max_queue = 64;

    /** Default per-request deadline in ms (0 = none). A request's own
     *  "timeout_ms" overrides. Expired requests are answered with
     *  `deadline_exceeded`; a sweep already running is not killed
     *  mid-cell (cells are memoized, so the work is not wasted). */
    std::int64_t default_timeout_ms = 0;

    /** Largest accepted request frame. */
    std::uint64_t max_request_bytes = 1 << 20;

    /** Per-syscall send/recv guard against stalled peers (acceptor
     *  side only; clients may wait arbitrarily long for results). */
    int io_timeout_ms = 10000;

    /** Test-only: sleep this long before executing each request, so
     *  deadline and drain tests are deterministic. */
    int test_dequeue_delay_ms = 0;
};

/** One validated request. Exactly one of experiment / (apps+designs). */
struct SweepRequest
{
    std::string experiment;             ///< Registered experiment name.
    std::vector<std::string> apps;      ///< Cell-list form: app names.
    std::vector<std::string> designs;   ///< Cell-list form: design names.
    ExperimentOptions opts;             ///< scale / jobs / warps.
    std::int64_t timeout_ms = -1;       ///< -1 = service default.
};

/**
 * Parses and validates @p text as a caba-sweep-req-v1 document.
 * @return false with a structured error: @p *code is one of
 * "bad_request", "unknown_experiment", "unknown_app", "unknown_design"
 * and @p *message names the offending field/value.
 */
bool parseSweepRequest(const std::string &text, SweepRequest *out,
                       std::string *code, std::string *message);

/** The design points a cell-list request may name (Base, HW-*-Mem,
 *  HW-*, CABA-*, Ideal-* over all algorithms, plus the Figure 13
 *  compressed-cache variants), unique by name. */
const std::vector<DesignConfig> &servableDesigns();

// ---------------------------------------------------------------------------
// Client side (used by the caba_sweep binary and the tests)

/** Convenience builder for the common request shapes. */
struct SweepRequestSpec
{
    std::string experiment;
    std::vector<std::string> apps;
    std::vector<std::string> designs;
    double scale = 1.0;
    int jobs = 0;
    int warps = 0;
    std::int64_t timeout_ms = -1;
};

/** Renders @p spec as caba-sweep-req-v1 JSON. */
std::string buildSweepRequestJson(const SweepRequestSpec &spec);

/** A server's answer to one request. */
struct SweepReply
{
    bool ok = false;
    std::string code;          ///< Error code when !ok.
    std::string message;       ///< Error message when !ok.
    std::string header_json;   ///< Raw caba-sweep-resp-v1 header.
    std::uint64_t queue_depth = 0;   ///< Requests ahead at admission.
    std::uint64_t simulations = 0;   ///< Cells actually simulated.
    std::uint64_t cache_served = 0;  ///< Cells served by the caches.
    std::uint64_t wall_ms = 0;       ///< Executor wall time.
    std::string payload;       ///< caba-bench-v1 bytes when ok.
};

/**
 * Submits @p request_json (any bytes — the server rejects malformed
 * text with a structured error, which lands in @p *reply) to the
 * daemon at @p address and blocks for the reply. @return false with
 * @p *error set only on transport failures (cannot connect, peer died
 * mid-reply); a server-side error is a successful round-trip with
 * reply->ok == false.
 */
bool submitSweepRequest(const std::string &address,
                        const std::string &request_json, SweepReply *reply,
                        std::string *error);

// ---------------------------------------------------------------------------
// Server side

/** The daemon core: acceptor + bounded queue + draining executor. */
class SweepService
{
  public:
    explicit SweepService(SweepServiceConfig cfg);
    ~SweepService();

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    /** Binds the socket and starts the acceptor and executor threads.
     *  @return false with @p *error set when the address is bad or the
     *  bind fails. */
    bool start(std::string *error);

    /** Stops accepting new requests and lets the executor drain every
     *  already-admitted request; returns immediately. Idempotent. */
    void beginShutdown();

    /** beginShutdown() + joins both threads (blocks until drained). */
    void shutdown();

    /** True between a successful start() and shutdown(). */
    bool running();

    /** Aggregate counters (snake_case, via the stats machinery):
     *  requests_{accepted,admitted,completed,bad,queue_full,deadline,
     *  shutdown_rejected}, cells_{simulated,cache_served}, io_errors. */
    StatSet stats();

  private:
    struct Pending
    {
        int fd = -1;
        SweepRequest req;
        std::int64_t admit_ns = 0;   ///< steady-clock admission stamp.
        int depth_at_admit = 0;      ///< Requests ahead in the queue.
        std::uint64_t id = 0;
    };

    void acceptorLoop();
    void executorLoop();
    void handleConnection(int fd);
    void execute(Pending p);
    void replyError(int fd, const std::string &code,
                    const std::string &message);
    void bump(const char *counter, std::uint64_t delta = 1);

    SweepServiceConfig cfg_;
    net::Address addr_;
    int listen_fd_ = -1;

    std::mutex mu_;
    std::condition_variable exec_cv_;
    std::deque<Pending> queue_;
    bool stop_ = false;           ///< Admission closed.
    bool acceptor_done_ = false;
    bool started_ = false;
    std::uint64_t next_id_ = 1;
    StatSet stats_;

    std::thread acceptor_;
    std::thread executor_;
};

} // namespace caba

#endif // CABA_HARNESS_SWEEP_SERVICE_H
