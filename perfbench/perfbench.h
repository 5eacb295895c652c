#ifndef MDES_PERFBENCH_PERFBENCH_H
#define MDES_PERFBENCH_PERFBENCH_H

/**
 * @file
 * Shared pieces of the end-to-end benchmark: the generated workloads with
 * their oracle answers, the service targets the closed-loop clients drive,
 * and the result printer.
 *
 * A workload is a list of distinct requests (Input) and the order in
 * which the clients walk them. Every input carries its expected answer,
 * computed in set-up without the optimizer under test: the request's
 * program is scheduled against the PipelineConfig::none() description
 * (the paper's Section 4 invariant says every transform preserves the
 * schedule), so an optimized response must hash to the same fingerprint.
 */

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <sys/types.h>
#include <utility>
#include <vector>

#include "service/service.h"

namespace mdes::perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t. */
double secondsSince(Clock::time_point t);

/** One distinct request of a workload and its expected answer. */
struct Input
{
    service::ScheduleRequest req;
    /** The request as a wire line; empty when it carries inline source
     * (the request grammar names files, so it cannot be rendered). */
    std::string line;
    /** Shard-routing hint for the line. */
    uint64_t route = 0;

    /** Expected scheduleFingerprint() of the response. */
    uint64_t fingerprint = 0;
    /** Expected total schedule length. */
    uint64_t cycles = 0;
    /** Operations in the request's program. */
    uint64_t ops = 0;

    /** Portfolio inputs only: the program and unoptimized description
     * their answer is proven legal against, and the answer's block and
     * proven-optimal counts. */
    std::shared_ptr<const sched::Program> program;
    std::shared_ptr<const lmdes::LowMdes> none_low;
    uint64_t blocks = 0;
    uint64_t proven = 0;
};

/** A named workload: its inputs, their order, and how it is served. */
struct Workload
{
    std::string name;
    std::vector<Input> inputs;
    /** The request sequence (indices into inputs) the clients walk. */
    std::vector<uint32_t> order;
    /** Service configuration (in-process, or each shard's). */
    service::ServiceConfig service;
    /** Closed-loop client threads (one connection each over a socket). */
    unsigned clients = 2;
    /** Served by an `mdesc serve --shards 2` child process. */
    bool fleet = false;
    /** Socket clients reconnect after this many requests (0 = never). */
    unsigned reconnect_every = 0;
};

/** The description source @p req compiles (inline or built-in). */
std::string_view sourceOf(const service::ScheduleRequest &req);

/** @p req's program, generated or parsed against @p low. */
sched::Program programOf(const service::ScheduleRequest &req,
                         const lmdes::LowMdes &low);

/**
 * Generate workload @p name from @p seed and compute every input's
 * oracle answer. @p root is the repository checkout (for the committed
 * description files). Throws MdesError on an unknown name.
 */
Workload makeWorkload(const std::string &name, uint64_t seed,
                      const std::string &root);

/** What one request returned, whichever transport carried it. */
struct Reply
{
    bool ok = false;
    uint64_t fingerprint = 0;
    uint64_t cycles = 0;
};

/** One client's conversation with the system under test. */
class Session
{
  public:
    virtual ~Session() = default;
    virtual Reply request(const Input &in) = 0;
};

/** Where closed-loop clients send requests. */
class Target
{
  public:
    virtual ~Target() = default;
    /** A fresh session (a new connection, for socket targets). */
    virtual std::unique_ptr<Session> open() = 0;
};

/** Target backed by an in-process MdesService. */
class ServiceTarget : public Target
{
  public:
    explicit ServiceTarget(service::MdesService &svc) : svc_(svc) {}
    std::unique_ptr<Session> open() override;

  private:
    service::MdesService &svc_;
};

/** Target speaking the binary protocol to a server on loopback. */
class SocketTarget : public Target
{
  public:
    explicit SocketTarget(uint16_t port) : port_(port) {}
    std::unique_ptr<Session> open() override;

  private:
    uint16_t port_;
};

/**
 * An `mdesc serve --shards 2 --workers 1 --store <dir>` child process.
 * The constructor starts it and waits until it listens; the destructor
 * sends SIGTERM and reaps it (SIGKILL after a grace period).
 */
class Fleet
{
  public:
    Fleet(const std::string &mdesc, const std::string &store_dir,
          const std::string &log_path);
    ~Fleet();

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    uint16_t port() const { return port_; }
    pid_t pid() const { return pid_; }

  private:
    void stop();

    pid_t pid_ = -1;
    uint16_t port_ = 0;
};

/** What a closed-loop run observed. */
struct LoopResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double elapsed_s = 0;
    /** Per-request latency, submit to response. */
    std::vector<double> latency_ms;
    /** Connect to first response, per fresh connection after the
     * first (socket targets with reconnect_every only). */
    std::vector<double> conn_setup_ms;
    /** Completion time of each request, seconds from the start. */
    std::vector<double> done_s;
};

/** Drive @p target closed-loop with @p w's clients for @p seconds. */
LoopResult closedLoop(Target &target, const Workload &w, double seconds);

// --- Statistics and reporting -------------------------------------------

/** Linear-interpolated @p q-quantile of @p v (sorted copy; 0 if empty). */
double quantile(std::vector<double> v, double q);

/** Peak resident set (VmHWM) of process @p pid in kB; 0 if unreadable. */
uint64_t peakRssKb(pid_t pid);

/** User plus system CPU seconds of process @p pid; 0 if unreadable. */
double processCpuS(pid_t pid);

/** Processes whose parent is @p pid. */
std::vector<pid_t> childPids(pid_t pid);

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Print the result object as the last line of stdout. */
void printResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric> &metrics);

// --- The traced run (layers.cpp) ----------------------------------------

/** Everything the traced run needs from set-up. */
struct TraceContext
{
    const Workload *workload = nullptr;
    /** The workload's warm in-process service (null for the fleet). */
    service::MdesService *service = nullptr;
    /** The fleet's warm store (empty for in-process workloads). */
    std::string store_dir;
    /** Fleet port for the socket leg (0 = start an in-process server). */
    uint16_t fleet_port = 0;
    /** Scratch directory for the replay's own store. */
    std::string workdir;
    double seconds = 1;
};

/** Outcome of the traced run: per-layer metrics plus its checks. */
struct TraceResult
{
    std::vector<Metric> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

/** Replay the workload's inputs through every layer, timing each call. */
TraceResult runTraced(const TraceContext &ctx);

} // namespace mdes::perfbench

#endif // MDES_PERFBENCH_PERFBENCH_H
