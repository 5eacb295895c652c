#include "service/service.h"

#include <algorithm>
#include <chrono>

#include <new>
#include <optional>

#include "exact/exact_scheduler.h"
#include "machines/machines.h"
#include "sched/backward_scheduler.h"
#include "sched/verify.h"
#include "support/faultsim.h"
#include "support/flightrec.h"
#include "support/fnv.h"
#include "support/trace.h"
#include "workload/sasm.h"
#include "workload/workload.h"

namespace mdes::service {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t
elapsedUs(Clock::time_point since)
{
    return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - since)
                        .count());
}

} // namespace

const char *
schedulerKindName(SchedulerKind kind)
{
    switch (kind) {
    case SchedulerKind::List: return "list";
    case SchedulerKind::Backward: return "backward";
    case SchedulerKind::Modulo: return "modulo";
    case SchedulerKind::Exact: return "exact";
    case SchedulerKind::Portfolio: return "portfolio";
    }
    return "?";
}

std::optional<SchedulerKind>
parseSchedulerKind(std::string_view name)
{
    for (SchedulerKind kind :
         {SchedulerKind::List, SchedulerKind::Backward, SchedulerKind::Modulo,
          SchedulerKind::Exact, SchedulerKind::Portfolio})
        if (name == schedulerKindName(kind))
            return kind;
    return std::nullopt;
}

uint64_t
scheduleFingerprint(const ScheduleResponse &response)
{
    uint64_t h = fnv::kOffsetBasis;
    for (const auto &s : response.schedules) {
        fnv::mixU64(h, uint64_t(s.length));
        for (int32_t c : s.cycles)
            fnv::mixU64(h, uint64_t(uint32_t(c)));
        for (uint8_t u : s.used_cascade)
            fnv::mixU64(h, u);
    }
    for (const auto &m : response.modulo) {
        fnv::mixU64(h, uint64_t(m.success));
        fnv::mixU64(h, uint64_t(uint32_t(m.ii)));
        for (int32_t t : m.times)
            fnv::mixU64(h, uint64_t(uint32_t(t)));
    }
    return h;
}

MdesService::MdesService(ServiceConfig config)
    : cache_(config.cache_capacity), max_queue_(config.max_queue)
{
    cache_.setBreakerPolicy(
        {config.breaker_threshold, config.breaker_cooldown_ms});
    if (!config.store_dir.empty()) {
        store::StoreConfig sc;
        sc.dir = config.store_dir;
        sc.max_bytes = config.store_max_bytes;
        sc.creator = "mdes-service";
        cache_.attachStore(std::make_shared<store::ArtifactStore>(sc));
    }
    unsigned n = config.num_workers;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 1;
    }
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.push_back(std::make_unique<Worker>());
    // Threads start only after the vector is fully built so workerLoop
    // never observes a resizing container.
    for (auto &w : workers_)
        w->thread = std::thread([this, worker = w.get()] {
            workerLoop(*worker);
        });
}

MdesService::~MdesService()
{
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        stopping_ = true;
    }
    queue_cv_.notify_all();
    for (auto &w : workers_) {
        if (w->thread.joinable())
            w->thread.join();
    }
}

MdesService::RequestId
MdesService::submit(ScheduleRequest request, Completion on_complete)
{
    auto job = std::make_shared<Job>();
    job->id = next_id_.fetch_add(1, std::memory_order_relaxed);
    job->deadline = request.deadline_ms > 0
                        ? Clock::now() + std::chrono::milliseconds(
                                             request.deadline_ms)
                        : Clock::time_point::max();
    job->request = std::move(request);
    job->completion = std::move(on_complete);
    job->enqueued = Clock::now();
    {
        std::lock_guard<std::mutex> lock(jobs_mu_);
        jobs_.emplace(job->id, job);
    }
    bool shed = false;
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        // Load shedding: beyond the admission bound, rejecting now (a
        // cheap, typed error the client can retry elsewhere) beats
        // queueing work whose deadline will be dead by the time a
        // worker reaches it.
        if (max_queue_ > 0 && queue_.size() >= max_queue_)
            shed = true;
        else
            queue_.push_back(job);
    }
    if (shed) {
        requests_shed_.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(shed_windows_mu_);
            shed_windows_.recordShed(windowNowS(), 1);
        }
        ScheduleResponse resp;
        resp.machine = job->request.machine;
        resp.error = {ErrorCode::Overloaded,
                      "admission queue full (" +
                          std::to_string(max_queue_) + " waiting)"};
        deliver(*job, std::move(resp));
        return job->id;
    }
    queue_cv_.notify_one();
    return job->id;
}

void
MdesService::deliver(Job &job, ScheduleResponse resp)
{
    if (job.completion) {
        // Callback-style jobs are never waited on; retire the id before
        // the callback so a cancel() racing the delivery misses cleanly.
        {
            std::lock_guard<std::mutex> lock(jobs_mu_);
            jobs_.erase(job.id);
        }
        job.completion(std::move(resp));
        return;
    }
    job.promise.set_value(std::move(resp));
}

ScheduleResponse
MdesService::wait(RequestId id)
{
    std::shared_ptr<Job> job;
    {
        std::lock_guard<std::mutex> lock(jobs_mu_);
        auto it = jobs_.find(id);
        if (it == jobs_.end()) {
            ScheduleResponse resp;
            resp.error = {ErrorCode::BadRequest,
                          "unknown or already-waited request id"};
            return resp;
        }
        job = it->second;
        jobs_.erase(it);
    }
    return job->promise.get_future().get();
}

bool
MdesService::cancel(RequestId id)
{
    std::lock_guard<std::mutex> lock(jobs_mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    it->second->cancelled.store(true, std::memory_order_relaxed);
    return true;
}

std::vector<ScheduleResponse>
MdesService::runBatch(std::vector<ScheduleRequest> requests)
{
    std::vector<RequestId> ids;
    ids.reserve(requests.size());
    for (auto &r : requests)
        ids.push_back(submit(std::move(r)));
    std::vector<ScheduleResponse> responses;
    responses.reserve(ids.size());
    for (RequestId id : ids)
        responses.push_back(wait(id));
    return responses;
}

ServiceMetrics
MdesService::metricsSnapshot() const
{
    ServiceMetrics merged;
    for (const auto &w : workers_) {
        std::lock_guard<std::mutex> lock(w->metrics_mu);
        merged.merge(w->metrics);
    }
    merged.cache = cache_.stats();
    // Shed submissions never reach a worker, so fold them in here
    // through the single authority for the shed/Overloaded pairing.
    merged.recordShed(requests_shed_.load(std::memory_order_relaxed));
    {
        std::lock_guard<std::mutex> lock(shed_windows_mu_);
        merged.windows.merge(shed_windows_);
    }
    // Injection-site telemetry (all zero when faultsim is disarmed and
    // nothing fired since the last install).
    auto site_counters = faultsim::counters();
    for (size_t i = 0; i < faultsim::kNumSites; ++i) {
        if (site_counters[i].evaluations == 0)
            continue;
        merged.fault_sites[faultsim::siteName(faultsim::Site(i))] = {
            site_counters[i].evaluations, site_counters[i].fires};
    }
    return merged;
}

void
MdesService::workerLoop(Worker &worker)
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(queue_mu_);
            queue_cv_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping_ and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        ScheduleResponse resp =
            process(*job, worker.metrics, worker.metrics_mu);
        const ErrorCode code = resp.error.code;
        const uint64_t latency_us = elapsedUs(job->enqueued);
        deliver(*job, std::move(resp));
        // Tail capture after delivery so spool I/O never adds to the
        // caller-observed latency. The request's spans (including the
        // "request" span process() just closed) are still in this
        // thread's flight-recorder ring.
        maybeSpoolFlight(job->id, code, latency_us);
    }
}

void
MdesService::maybeSpoolFlight(RequestId id, ErrorCode code,
                              uint64_t latency_us)
{
    if (!flightrec::spoolArmed())
        return;
    const char *reason = nullptr;
    if (code != ErrorCode::Ok) {
        reason = errorCodeName(code);
    } else {
        const uint64_t slow_us = flightrec::slowThresholdUs();
        if (slow_us != 0 && latency_us > slow_us)
            reason = "slow";
    }
    if (reason != nullptr)
        flightrec::spool(id, reason);
}

ScheduleResponse
MdesService::process(Job &job, ServiceMetrics &metrics,
                     std::mutex &metrics_mu)
{
    const ScheduleRequest &req = job.request;
    ScheduleResponse resp;
    resp.machine = req.machine;

    // Every span recorded while this job runs - including compile passes
    // other requests wait on through the cache's single-flight - carries
    // the request id, so one slow request is traceable end to end. The
    // fault token makes injected faults a function of the request, not
    // of which worker thread happens to run it.
    trace::IdScope trace_scope(job.id);
    faultsim::TokenScope fault_scope(job.id);
    TRACE_SPAN_F(req_span, "request");
    if (req_span.active()) {
        req_span.label("machine", req.machine);
        req_span.label("scheduler", schedulerKindName(req.scheduler));
    }

    uint64_t queue_wait_us = elapsedUs(job.enqueued);
    uint64_t compile_us = 0, workload_us = 0, schedule_us = 0,
             verify_us = 0;
    bool timed_compile = false, timed_workload = false,
         timed_schedule = false, timed_verify = false;
    // Transform effects from this request's own compile (cache misses
    // only; hits reuse an already-optimized artifact).
    PipelineStats pipeline_stats;
    bool compiled = false;
    Clock::time_point t_start = Clock::now();

    // True (and resp.error set) when the job was cancelled or ran past
    // its deadline; checked at every stage boundary.
    auto interrupted = [&]() -> bool {
        if (job.cancelled.load(std::memory_order_relaxed)) {
            resp.error = {ErrorCode::Cancelled, "request cancelled"};
            return true;
        }
        if (Clock::now() > job.deadline) {
            resp.error = {ErrorCode::DeadlineExceeded,
                          "deadline exceeded"};
            return true;
        }
        return false;
    };
    // Record the outcome into the worker's metrics. The lock is per
    // worker and taken once per job, never on the scheduling hot path.
    auto finish = [&] {
        uint64_t total_us = elapsedUs(t_start);
        std::lock_guard<std::mutex> lock(metrics_mu);
        metrics.recordOutcome(resp.error.code);
        metrics.queue_wait.record(queue_wait_us);
        if (resp.degraded)
            ++metrics.degraded_responses;
        if (timed_compile)
            metrics.compile.record(compile_us);
        if (timed_workload)
            metrics.workload.record(workload_us);
        if (timed_schedule)
            metrics.schedule.record(schedule_us);
        if (timed_verify)
            metrics.verify.record(verify_us);
        metrics.total.record(total_us);
        metrics.windows.record(windowNowS(), resp.error.code, total_us);
        metrics.ops_scheduled += resp.stats.ops_scheduled;
        metrics.blocks_scheduled +=
            resp.schedules.size() + resp.modulo.size();
        metrics.total_schedule_length +=
            resp.stats.total_schedule_length;
        metrics.attempts += resp.stats.checks.attempts;
        metrics.resource_checks += resp.stats.checks.resource_checks;
        metrics.prefilter_hits += resp.stats.checks.prefilter_hits;
        metrics.probe_fastpath += resp.stats.checks.probe_fastpath;
        metrics.exact += resp.exact;
        if (compiled)
            metrics.transform_effects.add(pipeline_stats);
        metrics.attempts_per_op.merge(resp.stats.attempts_per_op);
        if (resp.low &&
            !resp.stats.checks.conflicts_per_resource.empty()) {
            metrics.recordConflicts(
                *resp.low, resp.stats.checks.conflicts_per_resource);
        }
    };
    auto fail = [&](ErrorCode code, std::string message) {
        resp.error = {code, std::move(message)};
    };

    // Stage driver: runs the request to completion or first error, so
    // the single finish()/return below records every path uniformly.
    auto stages = [&] {
        if (interrupted())
            return;

        // --- Resolve the description source ---------------------------
        const machines::MachineInfo *builtin = nullptr;
        std::string_view source;
        if (!req.source.empty()) {
            source = req.source;
        } else {
            builtin = machines::byName(req.machine);
            if (!builtin)
                return fail(ErrorCode::UnknownMachine,
                            "unknown machine '" + req.machine + "'");
            source = builtin->source;
        }

        // --- Compile (through the shared cache) -----------------------
        // The cancel predicate lets a compile whose requester's
        // deadline has expired release its worker between transform
        // passes and inside store retry backoffs, instead of finishing
        // work nobody will collect.
        auto cancel = [&]() -> bool {
            return job.cancelled.load(std::memory_order_relaxed) ||
                   Clock::now() > job.deadline;
        };
        Clock::time_point t = Clock::now();
        try {
            DescriptionCache::Key key = DescriptionCache::makeKey(
                source, req.transforms, req.bit_vector);
            DescriptionCache::Lookup lookup;
            resp.low = cache_.getOrCompile(
                key,
                [&]() -> CompileResult {
                    compiled = true;
                    CompileResult result;
                    bool degraded = false;
                    result.artifact =
                        std::make_shared<const lmdes::LowMdes>(
                            exp::compileSourceToLow(
                                source, req.transforms, req.bit_vector,
                                exp::Rep::AndOrTree, &pipeline_stats,
                                &degraded, cancel));
                    result.degraded = degraded;
                    return result;
                },
                &lookup,
                store::configFingerprint(req.transforms,
                                         req.bit_vector),
                cancel);
            resp.cache_hit = lookup.hit;
            resp.disk_hit = lookup.disk;
            resp.degraded = lookup.degraded;
        } catch (const CircuitOpenError &e) {
            return fail(ErrorCode::CircuitOpen, e.what());
        } catch (const CancelledError &e) {
            if (!interrupted())
                resp.error = {ErrorCode::Cancelled, e.what()};
            return;
        } catch (const MdesError &e) {
            return fail(ErrorCode::CompileFailed, e.what());
        } catch (const std::bad_alloc &) {
            return fail(ErrorCode::CompileFailed,
                        "allocation failure during compile");
        }
        compile_us = elapsedUs(t);
        timed_compile = true;
        resp.machine = resp.low->machineName();
        if (interrupted())
            return;

        // --- Build the workload ---------------------------------------
        t = Clock::now();
        sched::Program program;
        {
            TRACE_SPAN("workload/build");
            if (!req.sasm.empty()) {
                DiagnosticEngine diags;
                program = workload::parseSasm(req.sasm, *resp.low, diags);
                if (diags.hasErrors())
                    return fail(ErrorCode::BadWorkload, diags.toString());
            } else if (builtin) {
                if (req.synth_ops > kMaxSynthOps)
                    return fail(ErrorCode::BadRequest,
                                "ops=" + std::to_string(req.synth_ops) +
                                    " is above the limit of " +
                                    std::to_string(kMaxSynthOps));
                workload::WorkloadSpec spec = builtin->workload;
                if (req.synth_ops != 0)
                    spec.num_ops = req.synth_ops;
                if (req.seed != 0)
                    spec.seed = req.seed;
                try {
                    program =
                        req.scheduler == SchedulerKind::Modulo
                            ? workload::generateLoops(spec, *resp.low)
                            : workload::generate(spec, *resp.low);
                } catch (const MdesError &e) {
                    return fail(ErrorCode::BadWorkload, e.what());
                }
            } else {
                return fail(ErrorCode::BadRequest,
                            "inline-source requests need a .sasm "
                            "workload (the synthetic generator requires "
                            "a built-in machine's class mix)");
            }
        }
        workload_us = elapsedUs(t);
        timed_workload = true;
        if (interrupted())
            return;

        // --- Schedule -------------------------------------------------
        // All state below (schedulers, checkers, RU maps, stats) is
        // created fresh per request: nothing mutable crosses jobs.
        // For the verify pass, the schedulers record the options they
        // chose beside the schedules; one verifier checks them - the
        // portfolio's modulo candidates and the verify pass - built on
        // first use.
        sched::Certificate certificate;
        sched::Certificate *const record =
            req.verify ? &certificate : nullptr;
        std::optional<sched::Verifier> verifier;
        auto verify = [&](const sched::Block &block, const auto &...s) {
            if (!verifier)
                verifier.emplace(*resp.low);
            return verifier->verify(block, s...);
        };
        t = Clock::now();
        try {
            switch (req.scheduler) {
            case SchedulerKind::List: {
                sched::ListScheduler scheduler(*resp.low);
                resp.schedules =
                    scheduler.scheduleProgram(program, resp.stats, record);
                break;
            }
            case SchedulerKind::Backward: {
                sched::BackwardListScheduler scheduler(*resp.low);
                resp.schedules =
                    scheduler.scheduleProgram(program, resp.stats, record);
                break;
            }
            case SchedulerKind::Modulo: {
                sched::ModuloScheduler scheduler(*resp.low);
                for (const auto &block : program.blocks) {
                    resp.modulo.push_back(
                        scheduler.schedule(block, resp.stats));
                    if (!resp.modulo.back().success)
                        return fail(ErrorCode::ScheduleFailed,
                                    "modulo scheduling found no II");
                }
                break;
            }
            case SchedulerKind::Exact:
            case SchedulerKind::Portfolio: {
                // Exact mode: list incumbent + branch-and-bound per block.
                // Portfolio mode: additionally race backward (and, on
                // branch-free blocks, a verified flat modulo schedule) and
                // keep the shortest result, so the response is never longer
                // than plain list scheduling. The request deadline only
                // truncates the searches - the response still carries the
                // best schedules found.
                const bool portfolio =
                    req.scheduler == SchedulerKind::Portfolio;
                sched::ListScheduler list(*resp.low);
                sched::BackwardListScheduler backward(*resp.low);
                sched::ModuloScheduler mod(*resp.low);
                exact::ExactScheduler search(*resp.low);
                exact::ExactOptions eopts;
                if (req.exact_nodes)
                    eopts.max_nodes = req.exact_nodes;
                eopts.time_budget_us =
                    req.exact_ms > 0 ? req.exact_ms * 1000 : 0;
                // The deadline needs no budget of its own: cancel() is
                // true once it passes, and the search polls it first.
                eopts.cancel = cancel;
                // Each candidate's certificate; the winner's joins the
                // request's.
                std::vector<uint32_t> list_options, backward_options,
                    modulo_options;
                auto recorded = [&](std::vector<uint32_t> &options) {
                    options.clear();
                    return record ? &options : nullptr;
                };
                for (const auto &block : program.blocks) {
                    TRACE_SPAN_F(block_span, "exact/block");
                    // Every backend runs with local stats: the response's
                    // ops_scheduled/total_schedule_length describe the kept
                    // schedules, checks describe all work spent.
                    sched::SchedStats local;
                    // Each candidate keeps its own schedule; best points at
                    // the shortest so far and is moved into the response.
                    sched::BlockSchedule incumbent = list.scheduleBlock(
                        block, local, recorded(list_options));
                    sched::BlockSchedule back, flat;

                    SchedulerKind winner = SchedulerKind::List;
                    sched::BlockSchedule *best = &incumbent;
                    const std::vector<uint32_t> *best_options =
                        &list_options;

                    if (portfolio) {
                        back = backward.scheduleBlock(
                            block, local, recorded(backward_options));
                        if (back.length < best->length) {
                            best = &back;
                            best_options = &backward_options;
                            winner = SchedulerKind::Backward;
                        }
                        bool branch_free = !block.instrs.empty();
                        for (const auto &in : block.instrs)
                            if (in.is_branch)
                                branch_free = false;
                        if (branch_free) {
                            // A modulo schedule's flat issue times are a
                            // candidate linear schedule, certified by its
                            // modulo reservation table's options: a flat
                            // collision would also collide mod II. Admit
                            // it only when the certificate checks.
                            sched::ModuloSchedule ms =
                                mod.schedule(block, local);
                            if (ms.success && !ms.times.empty()) {
                                flat.cycles = std::move(ms.times);
                                int32_t lo = *std::min_element(
                                    flat.cycles.begin(), flat.cycles.end());
                                int32_t hi = *std::max_element(
                                    flat.cycles.begin(), flat.cycles.end());
                                for (int32_t &c : flat.cycles)
                                    c -= lo;
                                flat.used_cascade.assign(
                                    block.instrs.size(), 0);
                                flat.length = hi - lo + 1;
                                if (flat.length < best->length &&
                                    verify(block, flat, ms.options).ok()) {
                                    best = &flat;
                                    modulo_options = std::move(ms.options);
                                    best_options = &modulo_options;
                                    winner = SchedulerKind::Modulo;
                                }
                            }
                        }
                    }

                    eopts.incumbent = &incumbent;
                    exact::ExactResult er =
                        search.scheduleBlock(block, local, eopts);
                    if (er.schedule.length < best->length) {
                        // Shorter than the incumbent: the search's own.
                        best = &er.schedule;
                        best_options = &er.options;
                        winner = SchedulerKind::Exact;
                    }
                    if (record) {
                        certificate.options.insert(
                            certificate.options.end(),
                            best_options->begin(), best_options->end());
                        certificate.endBlock();
                    }
                    resp.stats.checks.merge(local.checks);
                    resp.stats.attempts_per_op.merge(local.attempts_per_op);
                    if (job.cancelled.load(std::memory_order_relaxed))
                        return fail(ErrorCode::Cancelled,
                                    "request cancelled");

                    BlockOutcome out;
                    out.winner = winner;
                    out.length = best->length;
                    out.lower_bound = std::min(er.lower_bound, best->length);
                    out.proven_optimal = best->length <= er.lower_bound;
                    out.budget_exhausted = er.budget_exhausted;
                    out.nodes = er.nodes;

                    auto &tot = resp.exact;
                    ++tot.blocks;
                    tot.proven_optimal += out.proven_optimal ? 1 : 0;
                    tot.budget_exhausted += out.budget_exhausted ? 1 : 0;
                    tot.nodes += er.nodes;
                    tot.bound_prunes += er.bound_prunes;
                    tot.dominance_prunes += er.dominance_prunes;
                    tot.probes += er.probes;
                    tot.gap_cycles +=
                        uint64_t(out.length - out.lower_bound);
                    if (portfolio) {
                        switch (winner) {
                        case SchedulerKind::Backward:
                            ++tot.wins_backward;
                            break;
                        case SchedulerKind::Modulo:
                            ++tot.wins_modulo;
                            break;
                        case SchedulerKind::Exact:
                            ++tot.wins_exact;
                            break;
                        default:
                            ++tot.wins_list;
                            break;
                        }
                    }

                    if (block_span.active()) {
                        block_span.label("winner",
                                         schedulerKindName(winner));
                        block_span.counter("length", uint64_t(out.length));
                        block_span.counter("lower_bound",
                                           uint64_t(out.lower_bound));
                        block_span.counter(
                            "gap", uint64_t(out.length - out.lower_bound));
                        block_span.counter("nodes", er.nodes);
                    }

                    resp.stats.ops_scheduled += block.instrs.size();
                    resp.stats.total_schedule_length +=
                        uint64_t(best->length);
                    resp.outcomes.push_back(out);
                    resp.schedules.push_back(std::move(*best));
                }
                break;
            }
            }
        } catch (const MdesError &e) {
            // The description can never issue some operation.
            return fail(ErrorCode::ScheduleFailed, e.what());
        }
        schedule_us = elapsedUs(t);
        timed_schedule = true;

        for (const auto &s : resp.schedules)
            resp.total_cycles += uint64_t(s.length);
        for (const auto &m : resp.modulo)
            resp.total_cycles += uint64_t(m.ii);

        // --- Optional re-verification ---------------------------------
        if (req.verify) {
            t = Clock::now();
            for (size_t b = 0; b < program.blocks.size(); ++b) {
                const sched::Block &block = program.blocks[b];
                // A modulo schedule carries its own certificate.
                const sched::VerifyResult v =
                    resp.modulo.empty()
                        ? verify(block, resp.schedules[b],
                                 certificate.block(b))
                        : verify(block, resp.modulo[b]);
                if (!v.ok())
                    return fail(ErrorCode::ScheduleFailed,
                                "block " + std::to_string(b) + ": " +
                                    v.message);
            }
            verify_us = elapsedUs(t);
            timed_verify = true;
        }
    };

    try {
        stages();
    } catch (const std::exception &e) {
        resp.error = {ErrorCode::Internal, e.what()};
    } catch (...) {
        resp.error = {ErrorCode::Internal, "unknown exception"};
    }

    finish();
    return resp;
}

} // namespace mdes::service
