#include "harness/sweep_service.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/json.h"
#include "common/json_parse.h"
#include "common/log.h"
#include "harness/cell_cache.h"
#include "harness/experiment.h"
#include "workloads/app.h"

namespace caba {

const char *const kSweepRequestSchema = "caba-sweep-req-v1";
const char *const kSweepResponseSchema = "caba-sweep-resp-v1";

namespace {

/** Steady-clock nanoseconds: deadlines and per-request wall time only —
 *  never simulation state (this file is whitelisted in caba-lint's
 *  determinism rule for exactly this use). */
std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Largest timeout we accept: ~11 days, plenty and overflow-safe. */
constexpr double kMaxTimeoutMs = 1e9;

bool
findServableDesign(const std::string &name, DesignConfig *out)
{
    for (const DesignConfig &d : servableDesigns()) {
        if (d.name == name) {
            *out = d;
            return true;
        }
    }
    return false;
}

/** Integral-valued JSON number in [0, @p max]; false otherwise. */
bool
jsonNonNegativeInt(const json::Value &v, double max, std::int64_t *out)
{
    if (!v.isNumber() || !std::isfinite(v.number))
        return false;
    if (v.number < 0.0 || v.number > max ||
        v.number != std::floor(v.number))
        return false;
    *out = static_cast<std::int64_t>(v.number);
    return true;
}

std::string
errorHeaderJson(const std::string &code, const std::string &message)
{
    JsonWriter w;
    w.beginObject()
        .kv("schema", kSweepResponseSchema)
        .kv("status", "error");
    w.key("error")
        .beginObject()
        .kv("code", code)
        .kv("message", message)
        .endObject()
        .endObject();
    return w.str();
}

std::uint64_t
statsFieldU64(const json::Value &header, const char *field)
{
    const json::Value *stats = header.find("stats");
    if (stats == nullptr)
        return 0;
    const json::Value *v = stats->find(field);
    return v != nullptr && v->isNumber() && v->number >= 0.0
               ? static_cast<std::uint64_t>(v->number)
               : 0;
}

} // namespace

const std::vector<DesignConfig> &
servableDesigns()
{
    static const std::vector<DesignConfig> designs = [] {
        std::vector<DesignConfig> v;
        v.push_back(DesignConfig::base());
        for (const Algorithm algo :
             {Algorithm::Bdi, Algorithm::Fpc, Algorithm::CPack,
              Algorithm::BestOfAll}) {
            v.push_back(DesignConfig::hwMem(algo));
            v.push_back(DesignConfig::hw(algo));
            v.push_back(DesignConfig::caba(algo));
            v.push_back(DesignConfig::ideal(algo));
        }
        // Figure 13 compressed-cache variants.
        v.push_back(DesignConfig::cabaCompressedCache(2, 1));
        v.push_back(DesignConfig::cabaCompressedCache(4, 1));
        v.push_back(DesignConfig::cabaCompressedCache(1, 2));
        v.push_back(DesignConfig::cabaCompressedCache(1, 4));
        return v;
    }();
    return designs;
}

bool
parseSweepRequest(const std::string &text, SweepRequest *out,
                  std::string *code, std::string *message)
{
    *code = "bad_request";
    const auto failed = [&](const std::string &why) {
        *message = why;
        return false;
    };

    json::Value root;
    std::string jerr;
    if (!json::parse(text, &root, &jerr))
        return failed("request is not valid JSON: " + jerr);
    if (!root.isObject())
        return failed("request must be a JSON object");

    for (const auto &[key, value] : root.object) {
        (void)value;
        if (key != "schema" && key != "experiment" && key != "apps" &&
            key != "designs" && key != "options" && key != "timeout_ms")
            return failed("unknown request field \"" + key + "\"");
    }

    const json::Value *schema = root.find("schema");
    if (schema == nullptr || !schema->isString())
        return failed("missing \"schema\" field");
    if (schema->string != kSweepRequestSchema)
        return failed("unsupported schema \"" + schema->string +
                      "\" (this server speaks " +
                      std::string(kSweepRequestSchema) + ")");

    const json::Value *exp = root.find("experiment");
    const json::Value *apps = root.find("apps");
    const json::Value *designs = root.find("designs");
    if (exp != nullptr && (apps != nullptr || designs != nullptr))
        return failed("\"experiment\" and \"apps\"/\"designs\" are "
                      "mutually exclusive");
    if (exp == nullptr && (apps == nullptr || designs == nullptr))
        return failed("request needs either \"experiment\" or both "
                      "\"apps\" and \"designs\"");

    SweepRequest r;
    if (exp != nullptr) {
        if (!exp->isString() || exp->string.empty())
            return failed("\"experiment\" must be a non-empty string");
        if (ExperimentRegistry::instance().find(exp->string) == nullptr) {
            *code = "unknown_experiment";
            return failed("unknown experiment \"" + exp->string +
                          "\" (caba_bench --list names them)");
        }
        r.experiment = exp->string;
    } else {
        const auto takeNames = [&](const json::Value *arr,
                                   const char *what,
                                   std::vector<std::string> *into) {
            if (!arr->isArray() || arr->array.empty())
                return failed(std::string("\"") + what +
                              "\" must be a non-empty array of strings");
            for (const json::Value &v : arr->array) {
                if (!v.isString() || v.string.empty())
                    return failed(std::string("\"") + what +
                                  "\" must contain non-empty strings");
                into->push_back(v.string);
            }
            return true;
        };
        if (!takeNames(apps, "apps", &r.apps) ||
            !takeNames(designs, "designs", &r.designs))
            return false;
        for (const std::string &name : r.apps) {
            if (lookupApp(name) == nullptr) {
                *code = "unknown_app";
                return failed("unknown app \"" + name + "\"");
            }
        }
        DesignConfig scratch;
        for (const std::string &name : r.designs) {
            if (!findServableDesign(name, &scratch)) {
                *code = "unknown_design";
                return failed("unknown design \"" + name + "\"");
            }
        }
    }

    if (const json::Value *options = root.find("options")) {
        if (!options->isObject())
            return failed("\"options\" must be an object");
        for (const auto &[key, v] : options->object) {
            if (key == "scale") {
                // The same rule the CLI enforces (common/parse.h): a
                // finite, strictly positive multiplier.
                if (!v.isNumber() || !std::isfinite(v.number) ||
                    v.number <= 0.0)
                    return failed("options.scale must be a finite "
                                  "positive number");
                r.opts.scale = v.number;
            } else if (key == "jobs" || key == "warps") {
                std::int64_t n = 0;
                if (!jsonNonNegativeInt(v, 2147483647.0, &n))
                    return failed("options." + key +
                                  " must be a non-negative integer in "
                                  "int range");
                (key == "jobs" ? r.opts.jobs : r.opts.max_warps) =
                    static_cast<int>(n);
            } else {
                return failed("unknown option \"" + key + "\"");
            }
        }
    }

    if (const json::Value *timeout = root.find("timeout_ms")) {
        std::int64_t ms = 0;
        if (!jsonNonNegativeInt(*timeout, kMaxTimeoutMs, &ms))
            return failed("timeout_ms must be a non-negative integer "
                          "number of milliseconds");
        r.timeout_ms = ms;
    }

    *out = std::move(r);
    return true;
}

std::string
buildSweepRequestJson(const SweepRequestSpec &spec)
{
    JsonWriter w;
    w.beginObject().kv("schema", kSweepRequestSchema);
    if (!spec.experiment.empty()) {
        w.kv("experiment", spec.experiment);
    } else {
        w.key("apps").beginArray();
        for (const std::string &a : spec.apps)
            w.value(a);
        w.endArray();
        w.key("designs").beginArray();
        for (const std::string &d : spec.designs)
            w.value(d);
        w.endArray();
    }
    w.key("options")
        .beginObject()
        .kv("scale", spec.scale)
        .kv("jobs", spec.jobs)
        .kv("warps", spec.warps)
        .endObject();
    if (spec.timeout_ms >= 0)
        w.kv("timeout_ms", static_cast<std::int64_t>(spec.timeout_ms));
    w.endObject();
    return w.str();
}

bool
submitSweepRequest(const std::string &address,
                   const std::string &request_json, SweepReply *reply,
                   std::string *error)
{
    net::Address addr;
    if (!net::parseAddress(address, &addr, error))
        return false;
    const int fd = net::connectTo(addr, error);
    if (fd < 0)
        return false;

    const auto transportFail = [&](const std::string &why) {
        *error = why;
        net::closeFd(fd);
        return false;
    };

    if (!net::writeFrame(fd, kFrameRequest, request_json))
        return transportFail("failed to send request to " + addr.str());

    std::uint32_t type = 0;
    std::string header;
    std::string ferr;
    if (!net::readFrame(fd, &type, &header, 1u << 20, &ferr))
        return transportFail("no response header: " + ferr);
    if (type != kFrameResponseHeader)
        return transportFail("unexpected frame type " +
                             std::to_string(type) + " (wanted header)");

    json::Value parsed;
    if (!json::parse(header, &parsed, &ferr))
        return transportFail("unparseable response header: " + ferr);

    SweepReply r;
    r.header_json = header;
    const json::Value *status = parsed.find("status");
    r.ok = status != nullptr && status->isString() &&
           status->string == "ok";
    if (r.ok) {
        r.queue_depth = statsFieldU64(parsed, "queue_depth");
        r.simulations = statsFieldU64(parsed, "simulations");
        r.cache_served = statsFieldU64(parsed, "cache_served");
        r.wall_ms = statsFieldU64(parsed, "wall_ms");
        if (!net::readFrame(fd, &type, &r.payload,
                            std::uint64_t(1) << 32, &ferr))
            return transportFail("no response payload: " + ferr);
        if (type != kFrameResponsePayload)
            return transportFail("unexpected frame type " +
                                 std::to_string(type) +
                                 " (wanted payload)");
    } else {
        if (const json::Value *e = parsed.find("error")) {
            if (const json::Value *c = e->find("code"))
                r.code = c->string;
            if (const json::Value *m = e->find("message"))
                r.message = m->string;
        }
        if (r.code.empty())
            r.code = "internal";
    }
    net::closeFd(fd);
    *reply = std::move(r);
    return true;
}

// ---------------------------------------------------------------------------

SweepService::SweepService(SweepServiceConfig cfg) : cfg_(std::move(cfg)) {}

SweepService::~SweepService()
{
    shutdown();
}

bool
SweepService::start(std::string *error)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (started_) {
            *error = "service already started";
            return false;
        }
    }
    if (!net::parseAddress(cfg_.address, &addr_, error))
        return false;
    listen_fd_ = net::listenOn(addr_, error);
    if (listen_fd_ < 0)
        return false;

    // Warm requests must simulate nothing: every cell flows through
    // runApp and therefore this cache (plus the CABA_CACHE_DIR disk
    // layer when configured).
    CellCache::instance().enableInProcess();

    {
        std::lock_guard<std::mutex> lk(mu_);
        started_ = true;
        stop_ = false;
        acceptor_done_ = false;
    }
    acceptor_ = std::thread(&SweepService::acceptorLoop, this);
    executor_ = std::thread(&SweepService::executorLoop, this);
    return true;
}

void
SweepService::beginShutdown()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!started_ || stop_)
            return;
        stop_ = true;
    }
    exec_cv_.notify_all();
}

void
SweepService::shutdown()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!started_)
            return;
    }
    beginShutdown();
    if (acceptor_.joinable())
        acceptor_.join();
    if (executor_.joinable())
        executor_.join();
    std::lock_guard<std::mutex> lk(mu_);
    started_ = false;
}

bool
SweepService::running()
{
    std::lock_guard<std::mutex> lk(mu_);
    return started_;
}

StatSet
SweepService::stats()
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

// lint: stat-producer every service counter is registered through here
void
SweepService::bump(const char *counter, std::uint64_t delta)
{
    std::lock_guard<std::mutex> lk(mu_);
    stats_.add(counter, delta);
}

void
SweepService::replyError(int fd, const std::string &code,
                         const std::string &message)
{
    if (!net::writeFrame(fd, kFrameResponseHeader,
                         errorHeaderJson(code, message)))
        bump("io_errors");
}

void
SweepService::acceptorLoop()
{
    for (;;) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (stop_)
                break;
        }
        // Short poll so beginShutdown() is noticed promptly.
        const int cfd = net::acceptClient(listen_fd_, 200);
        if (cfd == -2)
            break;
        if (cfd < 0)
            continue;
        bump("requests_accepted");
        handleConnection(cfd);
    }
    net::closeFd(listen_fd_);
    listen_fd_ = -1;
    net::unlinkIfUds(addr_);
    {
        std::lock_guard<std::mutex> lk(mu_);
        acceptor_done_ = true;
    }
    exec_cv_.notify_all();
}

void
SweepService::handleConnection(int fd)
{
    // A stalled peer may hold the acceptor for at most io_timeout_ms.
    net::setIoTimeout(fd, cfg_.io_timeout_ms);

    std::uint32_t type = 0;
    std::string payload;
    std::string err;
    if (!net::readFrame(fd, &type, &payload, cfg_.max_request_bytes,
                        &err)) {
        bump("requests_bad");
        replyError(fd, "bad_request", err);
        net::closeFd(fd);
        return;
    }
    if (type != kFrameRequest) {
        bump("requests_bad");
        replyError(fd, "bad_request",
                   "unexpected frame type " + std::to_string(type) +
                       " (wanted request)");
        net::closeFd(fd);
        return;
    }

    Pending p;
    std::string code;
    std::string msg;
    if (!parseSweepRequest(payload, &p.req, &code, &msg)) {
        bump("requests_bad");
        replyError(fd, code, msg);
        net::closeFd(fd);
        return;
    }

    p.fd = fd;
    p.admit_ns = nowNs();
    const char *reject = nullptr;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stop_) {
            reject = "shutting_down";
            stats_.add("requests_shutdown_rejected");
        } else if (static_cast<int>(queue_.size()) >= cfg_.max_queue) {
            reject = "queue_full";
            stats_.add("requests_queue_full");
        } else {
            p.depth_at_admit = static_cast<int>(queue_.size());
            p.id = next_id_++;
            stats_.add("requests_admitted");
            queue_.push_back(std::move(p));
        }
    }
    if (reject != nullptr) {
        replyError(fd,
                   reject,
                   std::string(reject) == "queue_full"
                       ? "admission queue is full (" +
                             std::to_string(cfg_.max_queue) +
                             " requests); retry later"
                       : "server is draining for shutdown");
        net::closeFd(fd);
        return;
    }
    exec_cv_.notify_one();
}

void
SweepService::executorLoop()
{
    for (;;) {
        Pending p;
        {
            std::unique_lock<std::mutex> lk(mu_);
            exec_cv_.wait(lk, [&] {
                return !queue_.empty() || (stop_ && acceptor_done_);
            });
            if (queue_.empty())
                break; // Admission closed and everything drained.
            p = std::move(queue_.front());
            queue_.pop_front();
        }
        execute(std::move(p));
    }
}

void
SweepService::execute(Pending p)
{
    if (cfg_.test_dequeue_delay_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(cfg_.test_dequeue_delay_ms));

    const char *kind = p.req.experiment.empty() ? "cells" : "experiment";
    const std::string name =
        p.req.experiment.empty()
            ? std::to_string(p.req.apps.size()) + "x" +
                  std::to_string(p.req.designs.size())
            : p.req.experiment;
    const auto logLine = [&](const char *status, std::uint64_t sims,
                             std::uint64_t served, std::int64_t wall_ms) {
        std::fprintf(stderr,
                     "[sweepd] req=%llu kind=%s name=%s status=%s "
                     "queue_depth=%d simulations=%llu cache_served=%llu "
                     "wall_ms=%lld\n",
                     static_cast<unsigned long long>(p.id), kind,
                     name.c_str(), status, p.depth_at_admit,
                     static_cast<unsigned long long>(sims),
                     static_cast<unsigned long long>(served),
                     static_cast<long long>(wall_ms));
    };

    const std::int64_t timeout_ms =
        p.req.timeout_ms >= 0 ? p.req.timeout_ms : cfg_.default_timeout_ms;
    const std::int64_t queued_ms = (nowNs() - p.admit_ns) / 1000000;
    if (timeout_ms > 0 && queued_ms > timeout_ms) {
        bump("requests_deadline");
        replyError(p.fd, "deadline_exceeded",
                   "request spent " + std::to_string(queued_ms) +
                       " ms queued, past its " +
                       std::to_string(timeout_ms) + " ms deadline");
        net::closeFd(p.fd);
        logLine("deadline_exceeded", 0, 0, 0);
        return;
    }

    const CellCacheStats before = CellCache::instance().stats();
    const std::int64_t t0 = nowNs();
    std::string doc;
    std::string fail;
    try {
        if (!p.req.experiment.empty()) {
            const Experiment *e =
                ExperimentRegistry::instance().find(p.req.experiment);
            CABA_CHECK(e != nullptr,
                       "sweepd: experiment vanished after validation");
            doc = runExperimentCaptured(*e, p.req.opts);
        } else {
            std::vector<AppDescriptor> apps;
            for (const std::string &a : p.req.apps)
                apps.push_back(findApp(a));
            std::vector<DesignConfig> designs;
            for (const std::string &d : p.req.designs) {
                DesignConfig cfg;
                CABA_CHECK(findServableDesign(d, &cfg),
                           "sweepd: design vanished after validation");
                designs.push_back(cfg);
            }
            BenchJson json = BenchJson::capturing("custom_cells");
            const Sweep sweep(apps, designs, p.req.opts);
            json.addSweep(sweep);
            doc = json.document();
        }
    } catch (const std::exception &ex) {
        fail = ex.what();
    } catch (...) {
        fail = "unknown exception while running the sweep";
    }
    const std::int64_t wall_ms = (nowNs() - t0) / 1000000;
    const CellCacheStats after = CellCache::instance().stats();
    const std::uint64_t sims = after.simulations - before.simulations;
    const std::uint64_t served =
        (after.inproc_hits - before.inproc_hits) +
        (after.disk_hits - before.disk_hits);
    {
        std::lock_guard<std::mutex> lk(mu_);
        stats_.add("cells_simulated", sims);
        stats_.add("cells_cache_served", served);
    }

    if (!fail.empty()) {
        bump("requests_internal_error");
        replyError(p.fd, "internal", fail);
        net::closeFd(p.fd);
        logLine("internal", sims, served, wall_ms);
        return;
    }
    const std::int64_t total_ms = (nowNs() - p.admit_ns) / 1000000;
    if (timeout_ms > 0 && total_ms > timeout_ms) {
        // The sweep finished, but past its deadline. The cells are
        // memoized, so an immediate retry is answered from cache.
        bump("requests_deadline");
        replyError(p.fd, "deadline_exceeded",
                   "sweep completed in " + std::to_string(total_ms) +
                       " ms, past its " + std::to_string(timeout_ms) +
                       " ms deadline (cells are cached; retry is "
                       "near-free)");
        net::closeFd(p.fd);
        logLine("deadline_exceeded", sims, served, wall_ms);
        return;
    }

    JsonWriter w;
    w.beginObject()
        .kv("schema", kSweepResponseSchema)
        .kv("status", "ok");
    w.key("stats")
        .beginObject()
        .kv("queue_depth", static_cast<std::uint64_t>(p.depth_at_admit))
        .kv("simulations", sims)
        .kv("cache_served", served)
        .kv("wall_ms", static_cast<std::uint64_t>(wall_ms))
        .kv("payload_bytes", static_cast<std::uint64_t>(doc.size()))
        .endObject()
        .endObject();
    if (!net::writeFrame(p.fd, kFrameResponseHeader, w.str()) ||
        !net::writeFrame(p.fd, kFrameResponsePayload, doc)) {
        bump("io_errors");
    } else {
        bump("requests_completed");
    }
    net::closeFd(p.fd);
    logLine("ok", sims, served, wall_ms);
}

} // namespace caba
