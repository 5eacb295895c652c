/**
 * @file
 * mdesc - the MDES translator command-line tool.
 *
 * The paper's two-tier model in executable form: compile a high-level
 * machine description into the optimized low-level representation the
 * compiler loads at start-up, or inspect either form.
 *
 * Usage:
 *   mdesc compile <file.hmdes> [-o <file.lmdes>] [--or-form]
 *                 [--no-optimize] [--no-bit-vector] [--backward]
 *                 [--store <dir>]
 *   mdesc info <file.hmdes | file.lmdes>
 *   mdesc dump <file.hmdes> [operation]
 *   mdesc export <machine-name>         (PA7100 | Pentium | SuperSPARC | K5)
 *
 * `compile` reports sizes before/after; `info` summarizes either tier;
 * `dump` prints reservation tables; `stats` walks the description
 * through every optimization stage reporting options/checks/bytes;
 * `export` writes a built-in description's source to stdout so it can
 * be edited and recompiled; `batch` reads N scheduling requests from a
 * .req file and answers them with M service worker threads through the
 * shared compiled-description cache (see src/service/), printing
 * per-request results plus service metrics as a table or JSON.
 *
 * The persistent store (src/store/) shows up twice: `--store <dir>`
 * turns `compile` and `batch` into users of the content-addressed disk
 * cache (a second run against the same directory compiles nothing),
 * and `mdesc store stat|prune|warm <dir>` administers one.
 *
 * `--trace <file.json>` on `compile` and `batch` records every
 * mdes::trace span the command produced (compile passes, cache/store
 * tiers, per-block scheduling) as a Chrome trace-event file - open it
 * in chrome://tracing or Perfetto.
 *
 * `--faults <spec>` on `compile` and `batch` arms the deterministic
 * fault-injection layer (src/support/faultsim.h) for the command's
 * lifetime, and `mdesc chaos` sweeps seeded fault schedules against a
 * live service asserting the robustness invariants in
 * src/service/chaos.h - the same gate CI runs.
 */

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/expand.h"
#include "core/lint.h"
#include "core/print.h"
#include "core/transforms.h"
#include "hmdes/compile.h"
#include "lmdes/low_mdes.h"
#include "machines/machines.h"
#include "exp/runner.h"
#include "net/chaos_socket.h"
#include "net/crash_chaos.h"
#include "net/client.h"
#include "net/server.h"
#include "exact/exact_scheduler.h"
#include "sched/backward_scheduler.h"
#include "sched/list_scheduler.h"
#include "sched/verify.h"
#include "service/chaos.h"
#include "service/request_parse.h"
#include "service/service.h"
#include "service/stats.h"
#include "store/store.h"
#include "support/faultsim.h"
#include "support/flightrec.h"
#include "support/json.h"
#include "support/text_table.h"
#include "support/trace.h"
#include "workload/sasm.h"

using namespace mdes;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  mdesc compile <file.hmdes> [-o <file.lmdes>] [--or-form]\n"
        "                [--no-optimize] [--no-bit-vector] [--backward]\n"
        "                [--store <dir>] [--trace <file.json>]\n"
        "                [--faults <spec>]\n"
        "  mdesc info <file.hmdes | file.lmdes>\n"
        "  mdesc dump <file.hmdes> [operation]\n"
        "  mdesc stats <file.hmdes>\n"
        "  mdesc lint <file.hmdes> [--deep]\n"
        "  mdesc schedule <machine-name | file.hmdes> <file.sasm>\n"
        "                [--mode list|backward|exact|portfolio]\n"
        "                [--exact-ms N]\n"
        "                (portfolio: list, backward, exact; batch's\n"
        "                portfolio also races a modulo candidate)\n"
        "  mdesc batch <file.req | --stdin> [--workers N] [--json]\n"
        "              [--mode list|backward|modulo|exact|portfolio]\n"
        "              [--store <dir>] [--store-max-bytes N]\n"
        "              [--trace <file.json>] [--faults <spec>]\n"
        "              [--max-queue N]\n"
        "  mdesc chaos [--seeds N] [--first-seed N] [--workers N]\n"
        "              [--requests N] [--store-dir <dir>]\n"
        "              [--report <file.json>] [--socket]\n"
        "              [--flightrec <dir>] [--no-flightrec]\n"
        "  mdesc chaos --crash [--seeds N] [--first-seed N]\n"
        "              [--shards N] [--workers N] [--requests N]\n"
        "              [--kill-rounds N] [--store-dir <dir>]\n"
        "              [--report <file.json>] [--no-quarantine-probe]\n"
        "  mdesc serve [--listen <host:port>] [--workers N]\n"
        "              [--max-queue N] [--store <dir>] [--shards N]\n"
        "              [--json] [--flightrec <dir>] (spool off unless given)\n"
        "              [--flightrec-max-bytes N] [--flightrec-slow-ms N]\n"
        "              [--drain-ms N] [--backoff-base-ms N]\n"
        "              [--backoff-max-ms N] [--rapid-window-ms N]\n"
        "              [--quarantine-after N] [--heartbeat-ms N]\n"
        "              [--heartbeat-timeout-ms N]\n"
        "  mdesc flight decode <file.mdcr> [-o <file.json>]\n"
        "  mdesc stat --socket <host:port> [--json] [--json-mode]\n"
        "  mdesc top <host:port> [--interval-ms N] [--count N]\n"
        "  mdesc netbatch <host:port> <file.req | --stdin>\n"
        "              [--json-mode] [--deadline-ms N]\n"
        "              [--check-inprocess]\n"
        "  mdesc store stat <dir> [--json]\n"
        "  mdesc store prune <dir> --max-bytes <N>\n"
        "  mdesc store warm <dir> [machine...]\n"
        "  mdesc export <PA7100 | Pentium | SuperSPARC | K5>\n"
        "\n"
        "--faults spec: seed=N,<site>=<prob>[:<delay_us>[:<max_fires>]]\n"
        "(site names in src/support/faultsim.h; e.g.\n"
        " 'seed=7,store/open-read=0.5:0:2,compile/pass-throw=0.1')\n");
    return 2;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw MdesError("cannot open '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

bool
looksLikeLmdes(const std::string &data)
{
    return data.size() >= 4 && data.compare(0, 4, "LMDS") == 0;
}

/**
 * --trace support: runs a trace for the command's lifetime and writes
 * its spans as Chrome trace-event JSON on scope exit, so every return
 * path (including the store-hit early exit) produces a trace file.
 */
class TraceFile
{
  public:
    explicit TraceFile(std::string path) : path_(std::move(path))
    {
        if (!path_.empty())
            trace::setEnabled(true);
    }

    ~TraceFile()
    {
        if (path_.empty())
            return;
        trace::setEnabled(false);
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "mdesc: cannot write trace file '%s'\n",
                         path_.c_str());
            return;
        }
        uint64_t dropped = 0;
        const std::vector<flightrec::Event> spans = trace::spans(&dropped);
        out << flightrec::toChromeJson(spans, 0, "trace", dropped) << "\n";
        std::fprintf(stderr, "wrote trace %s (%zu spans)\n",
                     path_.c_str(), spans.size());
    }

    TraceFile(const TraceFile &) = delete;
    TraceFile &operator=(const TraceFile &) = delete;

  private:
    std::string path_;
};

/**
 * --faults support: installs a deterministic fault plan for the
 * command's lifetime and reports what fired on exit, so a run can be
 * reproduced exactly from its seed and spec.
 */
class FaultScope
{
  public:
    explicit FaultScope(const std::string &spec)
    {
        if (spec.empty())
            return;
        armed_ = true;
        faultsim::install(faultsim::Plan::parse(spec));
    }

    ~FaultScope()
    {
        if (!armed_)
            return;
        uint64_t evaluations = 0, fires = 0;
        for (const auto &c : faultsim::counters()) {
            evaluations += c.evaluations;
            fires += c.fires;
        }
        faultsim::uninstall();
        std::fprintf(stderr,
                     "faultsim: %llu of %llu probes fired\n",
                     (unsigned long long)fires,
                     (unsigned long long)evaluations);
    }

    FaultScope(const FaultScope &) = delete;
    FaultScope &operator=(const FaultScope &) = delete;

  private:
    bool armed_ = false;
};

Mdes
compileFile(const std::string &path)
{
    std::string text = readFile(path);
    DiagnosticEngine diags;
    auto m = hmdes::compile(text, diags);
    // Surface warnings even on success.
    for (const auto &d : diags.diagnostics())
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     d.toString().c_str());
    if (!m)
        throw MdesError("compilation of '" + path + "' failed");
    return std::move(*m);
}

int
cmdCompile(const std::vector<std::string> &args)
{
    std::string input, output, store_dir, trace_path, faults_spec;
    bool or_form = false, optimize = true, bit_vector = true;
    SchedDirection direction = SchedDirection::Forward;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "-o" && i + 1 < args.size()) {
            output = args[++i];
        } else if (args[i] == "--store" && i + 1 < args.size()) {
            store_dir = args[++i];
        } else if (args[i] == "--trace" && i + 1 < args.size()) {
            trace_path = args[++i];
        } else if (args[i] == "--faults" && i + 1 < args.size()) {
            faults_spec = args[++i];
        } else if (args[i] == "--or-form") {
            or_form = true;
        } else if (args[i] == "--no-optimize") {
            optimize = false;
        } else if (args[i] == "--no-bit-vector") {
            bit_vector = false;
        } else if (args[i] == "--backward") {
            direction = SchedDirection::Backward;
        } else if (!args[i].empty() && args[i][0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n",
                         args[i].c_str());
            return usage();
        } else if (input.empty()) {
            input = args[i];
        } else {
            return usage();
        }
    }
    if (input.empty())
        return usage();
    TraceFile trace_file(trace_path);
    FaultScope fault_scope(faults_spec);

    PipelineConfig config =
        optimize ? PipelineConfig::all() : PipelineConfig::none();
    config.direction = direction;
    exp::Rep rep = or_form ? exp::Rep::OrTree : exp::Rep::AndOrTree;

    auto writeOutput = [&](const lmdes::LowMdes &low) {
        if (output.empty())
            return;
        std::ofstream out(output, std::ios::binary);
        if (!out)
            throw MdesError("cannot write '" + output + "'");
        low.save(out);
        std::printf("wrote %s\n", output.c_str());
    };

    // With a store attached the translation is content-addressed: a
    // prior run (any process) with the same source and config already
    // paid the compile.
    std::unique_ptr<mdes::store::ArtifactStore> artifact_store;
    uint64_t key = 0;
    if (!store_dir.empty()) {
        std::string text = readFile(input);
        key = mdes::store::artifactKey(text, config, bit_vector, rep);
        mdes::store::StoreConfig sc;
        sc.dir = store_dir;
        sc.creator = "mdesc";
        artifact_store =
            std::make_unique<mdes::store::ArtifactStore>(sc);
        if (auto low = artifact_store->load(key)) {
            std::printf("%s: store hit %s/%s (no compilation)\n",
                        low->machineName().c_str(), store_dir.c_str(),
                        mdes::store::artifactFileName(key).c_str());
            std::printf("resource-constraint size: %zu bytes (%s "
                        "representation%s)\n",
                        low->memory().total(),
                        or_form ? "OR-tree" : "AND/OR-tree",
                        optimize ? ", fully optimized" : "");
            writeOutput(*low);
            return 0;
        }
    }

    Mdes m = compileFile(input);
    if (or_form)
        m = expandToOrForm(m);

    lmdes::LowerOptions lopts;
    lopts.pack_bit_vector = false;
    size_t before = lmdes::LowMdes::lower(m, lopts).memory().total();

    if (optimize)
        runPipeline(m, config);
    lopts.pack_bit_vector = bit_vector;
    lmdes::LowMdes low = lmdes::LowMdes::lower(m, lopts);

    std::printf("%s: %u resources, %zu operation classes, %zu tables\n",
                m.name().c_str(), m.numResources(),
                m.opClasses().size(), m.trees().size());
    std::printf("resource-constraint size: %zu bytes (was %zu, %s "
                "representation%s)\n",
                low.memory().total(), before,
                or_form ? "OR-tree" : "AND/OR-tree",
                optimize ? ", fully optimized" : "");

    if (artifact_store) {
        if (artifact_store->store(
                key, low,
                mdes::store::configFingerprint(config, bit_vector, rep)))
            std::printf("published %s/%s\n", store_dir.c_str(),
                        mdes::store::artifactFileName(key).c_str());
        else
            std::fprintf(stderr, "warning: could not publish to '%s'\n",
                         store_dir.c_str());
    }
    writeOutput(low);
    return 0;
}

int
cmdInfo(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        return usage();
    std::string data = readFile(args[0]);
    if (looksLikeLmdes(data)) {
        std::istringstream in(data);
        lmdes::LowMdes low = lmdes::LowMdes::load(in);
        std::printf("low-level MDES '%s'\n", low.machineName().c_str());
        std::printf("  resources:        %u\n", low.numResources());
        std::printf("  operation classes:%zu\n", low.opClasses().size());
        std::printf("  AND/OR trees:     %zu\n", low.trees().size());
        std::printf("  OR-trees:         %zu\n", low.orTrees().size());
        std::printf("  options:          %zu\n", low.options().size());
        std::printf("  checks:           %zu (%s encoding)\n",
                    low.checks().size(),
                    low.packed() ? "bit-vector" : "scalar pair");
        std::printf("  constraint bytes: %zu\n", low.memory().total());
        return 0;
    }
    DiagnosticEngine diags;
    auto m = hmdes::compile(data, diags);
    std::fprintf(stderr, "%s", diags.toString().c_str());
    if (!m)
        return 1;
    std::printf("high-level MDES '%s'\n", m->name().c_str());
    std::printf("  resources:        %u", m->numResources());
    std::printf(" (");
    for (size_t i = 0; i < m->resourceClasses().size(); ++i) {
        const auto &rc = m->resourceClasses()[i];
        std::printf("%s%s", i ? ", " : "", rc.name.c_str());
        if (rc.count > 1)
            std::printf("[%u]", rc.count);
    }
    std::printf(")\n");
    std::printf("  operation classes:%zu\n", m->opClasses().size());
    std::printf("  tables:           %zu\n", m->trees().size());
    TextTable table;
    table.setHeader({"Operation", "Table", "Options", "Latency", "Note"});
    for (const auto &oc : m->opClasses()) {
        table.addRow({oc.name, m->tree(oc.tree).name,
                      std::to_string(m->expandedOptionCount(oc.tree)),
                      std::to_string(oc.latency), oc.comment});
    }
    std::printf("%s", table.toString().c_str());
    return 0;
}

int
cmdDump(const std::vector<std::string> &args)
{
    if (args.empty() || args.size() > 2)
        return usage();
    Mdes m = compileFile(args[0]);
    if (args.size() == 2) {
        OpClassId cls = m.findOpClass(args[1]);
        if (cls == kInvalidId) {
            std::fprintf(stderr, "no operation '%s' in '%s'\n",
                         args[1].c_str(), m.name().c_str());
            return 1;
        }
        std::printf("%s", printTree(m, m.opClass(cls).tree).c_str());
        return 0;
    }
    for (TreeId t = 0; t < m.trees().size(); ++t)
        std::printf("%s\n", printTree(m, t).c_str());
    return 0;
}

int
cmdStats(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        return usage();
    struct StageSpec
    {
        const char *label;
        bool cse, bitvec, timeshift, hoist_sort;
    };
    const StageSpec stages[] = {
        {"original", false, false, false, false},
        {"+ redundancy elimination (Sec. 5)", true, false, false, false},
        {"+ bit-vector packing (Sec. 6)", true, true, false, false},
        {"+ usage-time shift & sort (Sec. 7)", true, true, true, false},
        {"+ hoist & subtree sort (Sec. 8)", true, true, true, true},
    };
    std::string text = readFile(args[0]);

    TextTable table;
    table.setHeader({"Stage", "Options", "Checks", "Bytes"});
    for (const auto &stage : stages) {
        DiagnosticEngine diags;
        auto m = hmdes::compile(text, diags);
        if (!m) {
            std::fprintf(stderr, "%s", diags.toString().c_str());
            return 1;
        }
        PipelineConfig config;
        config.cse = stage.cse;
        config.redundant_options = stage.cse;
        config.time_shift = stage.timeshift;
        config.sort_usages = stage.timeshift;
        config.hoist = stage.hoist_sort;
        config.sort_or_trees = stage.hoist_sort;
        runPipeline(*m, config);
        lmdes::LowerOptions lopts;
        lopts.pack_bit_vector = stage.bitvec;
        lmdes::LowMdes low = lmdes::LowMdes::lower(*m, lopts);
        table.addRow({stage.label,
                      std::to_string(low.options().size()),
                      std::to_string(low.checks().size()),
                      std::to_string(low.memory().total())});
    }
    std::printf("%s", table.toString().c_str());
    return 0;
}

int
cmdLint(const std::vector<std::string> &args)
{
    if (args.empty() || args.size() > 2)
        return usage();
    LintOptions options;
    std::string input;
    for (const auto &arg : args) {
        if (arg == "--deep")
            options.removable_usages = true;
        else if (!arg.empty() && arg[0] == '-')
            return usage();
        else
            input = arg;
    }
    if (input.empty())
        return usage();

    Mdes m = compileFile(input);
    auto findings = lint(m, options);
    if (findings.empty()) {
        std::printf("%s: clean (no findings)\n", m.name().c_str());
        return 0;
    }
    for (const auto &f : findings) {
        std::printf("[%s] %s\n", lintKindName(f.kind),
                    f.message.c_str());
    }
    std::printf("%zu finding(s). The translator's transformations fix "
                "all of these at\ncompile time; fixing the source keeps "
                "the description honest.\n",
                findings.size());
    return 0;
}

int
cmdSchedule(const std::vector<std::string> &args)
{
    std::vector<std::string> pos;
    std::string mode = "list";
    int64_t exact_ms = 50;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--mode" && i + 1 < args.size()) {
            mode = args[++i];
        } else if (args[i] == "--exact-ms" && i + 1 < args.size()) {
            const std::string &w = args[++i];
            auto [end, ec] =
                std::from_chars(w.data(), w.data() + w.size(), exact_ms);
            if (ec != std::errc() || end != w.data() + w.size()) {
                std::fprintf(stderr, "mdesc: bad --exact-ms value '%s'\n",
                             w.c_str());
                return 1;
            }
        } else if (!args[i].empty() && args[i][0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n",
                         args[i].c_str());
            return usage();
        } else {
            pos.push_back(args[i]);
        }
    }
    if (pos.size() != 2)
        return usage();
    if (mode != "list" && mode != "backward" && mode != "exact" &&
        mode != "portfolio") {
        std::fprintf(stderr, "mdesc: unknown schedule mode '%s'\n",
                     mode.c_str());
        return usage();
    }
    // The machine: a built-in name or a .hmdes file.
    Mdes model = [&] {
        const machines::MachineInfo *builtin = machines::byName(pos[0]);
        if (builtin)
            return hmdes::compileOrThrow(builtin->source);
        return compileFile(pos[0]);
    }();
    runPipeline(model, PipelineConfig::all());
    lmdes::LowerOptions lopts;
    lopts.pack_bit_vector = true;
    lmdes::LowMdes low = lmdes::LowMdes::lower(model, lopts);

    std::string text = readFile(pos[1]);
    DiagnosticEngine diags;
    sched::Program program = workload::parseSasm(text, low, diags);
    for (const auto &d : diags.diagnostics())
        std::fprintf(stderr, "%s: %s\n", pos[1].c_str(),
                     d.toString().c_str());
    if (diags.hasErrors())
        return 1;

    sched::SchedStats stats;
    std::vector<sched::BlockSchedule> schedules;
    // Per-block annotation for the exact/portfolio modes.
    std::vector<std::string> notes(program.blocks.size());
    if (mode == "backward") {
        sched::BackwardListScheduler scheduler(low);
        schedules = scheduler.scheduleProgram(program, stats);
    } else {
        sched::ListScheduler scheduler(low);
        schedules = scheduler.scheduleProgram(program, stats);
    }
    if (mode == "exact" || mode == "portfolio") {
        exact::ExactScheduler search(low);
        sched::BackwardListScheduler backward(low);
        for (size_t b = 0; b < program.blocks.size(); ++b) {
            const auto &block = program.blocks[b];
            const char *winner = "list";
            sched::BlockSchedule best = schedules[b];
            if (mode == "portfolio") {
                sched::BlockSchedule back =
                    backward.scheduleBlock(block, stats);
                if (back.length < best.length) {
                    best = std::move(back);
                    winner = "backward";
                }
            }
            exact::ExactOptions eopts;
            eopts.time_budget_us = exact_ms > 0 ? exact_ms * 1000 : 0;
            eopts.incumbent = &schedules[b];
            exact::ExactResult er =
                search.scheduleBlock(block, stats, eopts);
            if (er.schedule.length < best.length) {
                best = er.schedule;
                winner = "exact";
            }
            char note[160];
            int32_t lb = std::min(er.lower_bound, best.length);
            std::snprintf(note, sizeof note,
                          "  winner=%s lower_bound=%d gap=%d %s"
                          " (nodes %llu)",
                          winner, lb, best.length - lb,
                          best.length <= er.lower_bound
                              ? "proven-optimal"
                              : er.budget_exhausted ? "budget-exhausted"
                                                    : "unproven",
                          (unsigned long long)er.nodes);
            notes[b] = note;
            schedules[b] = std::move(best);
        }
    }

    sched::Verifier verifier(low);
    for (size_t b = 0; b < program.blocks.size(); ++b) {
        sched::VerifyResult v =
            verifier.verify(program.blocks[b], schedules[b]);
        if (!v.ok()) {
            std::fprintf(stderr, "block %zu: %s: %s\n", b,
                         sched::verifyFaultName(v.fault),
                         v.message.c_str());
            return 1;
        }
        std::printf("block %zu (%d cycles):\n", b,
                    schedules[b].length);
        for (int32_t cycle = 0; cycle < schedules[b].length; ++cycle) {
            std::printf("  %3d |", cycle);
            for (size_t i = 0; i < program.blocks[b].instrs.size();
                 ++i) {
                if (schedules[b].cycles[i] != cycle)
                    continue;
                std::printf(
                    " %s%s",
                    low.opClasses()[program.blocks[b].instrs[i].op_class]
                        .name.c_str(),
                    schedules[b].used_cascade[i] ? "(cascaded)" : "");
            }
            std::printf("\n");
        }
        if (!notes[b].empty())
            std::printf("%s\n", notes[b].c_str());
    }
    std::printf("\n%llu operations, %llu scheduling attempts (%.2f per "
                "op), %.2f checks per attempt.\n",
                (unsigned long long)stats.ops_scheduled,
                (unsigned long long)stats.checks.attempts,
                stats.avgAttemptsPerOp(),
                stats.checks.avgChecksPerAttempt());
    return 0;
}

int
cmdBatch(const std::vector<std::string> &args)
{
    std::string input, store_dir, trace_path, faults_spec, mode;
    unsigned workers = 0;
    uint64_t store_max_bytes = 0;
    size_t max_queue = 0;
    bool json = false;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--trace" && i + 1 < args.size()) {
            trace_path = args[++i];
        } else if (args[i] == "--mode" && i + 1 < args.size()) {
            mode = args[++i];
        } else if (args[i] == "--faults" && i + 1 < args.size()) {
            faults_spec = args[++i];
        } else if (args[i] == "--workers" && i + 1 < args.size()) {
            const std::string &w = args[++i];
            auto [end, ec] =
                std::from_chars(w.data(), w.data() + w.size(), workers);
            if (ec != std::errc() || end != w.data() + w.size()) {
                std::fprintf(stderr, "mdesc: bad --workers value '%s'\n",
                             w.c_str());
                return 1;
            }
        } else if (args[i] == "--max-queue" && i + 1 < args.size()) {
            const std::string &w = args[++i];
            auto [end, ec] =
                std::from_chars(w.data(), w.data() + w.size(), max_queue);
            if (ec != std::errc() || end != w.data() + w.size()) {
                std::fprintf(stderr,
                             "mdesc: bad --max-queue value '%s'\n",
                             w.c_str());
                return 1;
            }
        } else if (args[i] == "--store" && i + 1 < args.size()) {
            store_dir = args[++i];
        } else if (args[i] == "--store-max-bytes" && i + 1 < args.size()) {
            const std::string &w = args[++i];
            auto [end, ec] = std::from_chars(
                w.data(), w.data() + w.size(), store_max_bytes);
            if (ec != std::errc() || end != w.data() + w.size()) {
                std::fprintf(stderr,
                             "mdesc: bad --store-max-bytes value '%s'\n",
                             w.c_str());
                return 1;
            }
        } else if (args[i] == "--json") {
            json = true;
        } else if (args[i] == "--stdin" || args[i] == "-") {
            input = "-";
        } else if (!args[i].empty() && args[i][0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n",
                         args[i].c_str());
            return usage();
        } else if (input.empty()) {
            input = args[i];
        } else {
            return usage();
        }
    }
    if (input.empty())
        return usage();
    TraceFile trace_file(trace_path);
    FaultScope fault_scope(faults_spec);

    // Read N requests (from stdin with --stdin/-, same grammar).
    std::string text;
    if (input == "-") {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        text = buf.str();
    } else {
        text = readFile(input);
    }
    std::vector<service::ScheduleRequest> requests =
        service::parseRequestText(text).requests;
    if (requests.empty()) {
        std::fprintf(stderr, "%s: no requests\n",
                     input == "-" ? "<stdin>" : input.c_str());
        return 1;
    }
    if (!mode.empty()) {
        // Override every request's scheduler from the command line.
        service::SchedulerKind kind;
        if (mode == "list")
            kind = service::SchedulerKind::List;
        else if (mode == "backward")
            kind = service::SchedulerKind::Backward;
        else if (mode == "modulo")
            kind = service::SchedulerKind::Modulo;
        else if (mode == "exact")
            kind = service::SchedulerKind::Exact;
        else if (mode == "portfolio")
            kind = service::SchedulerKind::Portfolio;
        else {
            std::fprintf(stderr, "mdesc: unknown batch mode '%s'\n",
                         mode.c_str());
            return usage();
        }
        for (auto &req : requests)
            req.scheduler = kind;
    }

    // ...answer with M threads.
    service::ServiceConfig config;
    config.num_workers = workers;
    config.store_dir = store_dir;
    config.store_max_bytes = store_max_bytes;
    config.max_queue = max_queue;
    service::MdesService svc(config);
    std::vector<service::ScheduleResponse> responses =
        svc.runBatch(std::move(requests));

    int failures = 0;
    std::map<service::ErrorCode, int> by_code;
    for (size_t i = 0; i < responses.size(); ++i) {
        const auto &r = responses[i];
        const char *name =
            r.machine.empty() ? "<inline>" : r.machine.c_str();
        if (r.ok()) {
            std::printf("[%zu] %s: ok%s, %llu ops in %llu cycles "
                        "(%zu blocks%s, cache %s)\n",
                        i, name, r.degraded ? " (degraded)" : "",
                        (unsigned long long)r.stats.ops_scheduled,
                        (unsigned long long)r.total_cycles,
                        r.schedules.size() + r.modulo.size(),
                        r.modulo.empty() ? "" : ", modulo",
                        r.cache_hit    ? "hit"
                        : r.disk_hit   ? "store hit"
                                       : "miss");
        } else {
            ++failures;
            ++by_code[r.error.code];
            std::printf("[%zu] %s: %s: %s\n", i, name,
                        service::errorCodeName(r.error.code),
                        r.error.message.c_str());
        }
    }
    if (failures) {
        std::printf("%d of %zu request(s) failed:", failures,
                    responses.size());
        for (const auto &[code, count] : by_code)
            std::printf(" %s=%d", service::errorCodeName(code), count);
        std::printf("\n");
    }

    const service::StatsDocument doc{.now_s = service::windowNowS(),
                                     .metrics = svc.metricsSnapshot()};
    if (json)
        std::printf("%s\n", service::statsToJson(doc).c_str());
    else
        std::printf("\n%s", service::renderStats(doc).c_str());
    return failures == 0 ? 0 : 1;
}

/**
 * `mdesc chaos`: the robustness gate. Sweeps seeded fault schedules
 * against a live service (see src/service/chaos.h for the invariants)
 * and exits non-zero on any violation; --report dumps the JSON verdict
 * CI uploads when a seed fails.
 */
/**
 * `mdesc chaos --crash`: the supervision-plane gate (DESIGN.md §15).
 * Seeded process-level faults - SIGKILL, SIGSEGV, SIGSTOP - against a
 * live sharded fleet, asserting restart/backoff/watchdog/drain/crash-
 * capture invariants (src/net/crash_chaos.h). Exits non-zero on any
 * violation; --report dumps the JSON verdict CI uploads on failure.
 */
int
cmdCrashChaos(const std::vector<std::string> &args)
{
    net::CrashChaosConfig config;
    std::string report_path;
    auto number = [](const std::string &flag, const std::string &w,
                     auto &out) {
        auto [end, ec] =
            std::from_chars(w.data(), w.data() + w.size(), out);
        if (ec != std::errc() || end != w.data() + w.size()) {
            std::fprintf(stderr, "mdesc: bad %s value '%s'\n",
                         flag.c_str(), w.c_str());
            return false;
        }
        return true;
    };
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--seeds" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1], config.num_seeds))
                return 1;
            ++i;
        } else if (args[i] == "--first-seed" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1], config.first_seed))
                return 1;
            ++i;
        } else if (args[i] == "--shards" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1], config.shards))
                return 1;
            ++i;
        } else if (args[i] == "--workers" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1], config.workers))
                return 1;
            ++i;
        } else if (args[i] == "--requests" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1], config.requests))
                return 1;
            ++i;
        } else if (args[i] == "--kill-rounds" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1], config.kill_rounds))
                return 1;
            ++i;
        } else if (args[i] == "--store-dir" && i + 1 < args.size()) {
            config.store_base_dir = args[++i];
        } else if (args[i] == "--report" && i + 1 < args.size()) {
            report_path = args[++i];
        } else if (args[i] == "--no-quarantine-probe") {
            config.quarantine_probe = false;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         args[i].c_str());
            return usage();
        }
    }
    if (config.store_base_dir.empty()) {
        config.store_base_dir =
            (std::filesystem::temp_directory_path() /
             "mdesc-crash-chaos")
                .string();
    }
    net::CrashSweepReport report = net::runCrashSweep(config);
    std::printf("%s", report.toText().c_str());
    if (!report_path.empty()) {
        std::ofstream out(report_path,
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "mdesc: cannot write report '%s'\n",
                         report_path.c_str());
            return 1;
        }
        out << report.toJson() << "\n";
        std::printf("wrote %s\n", report_path.c_str());
    }
    return report.ok() ? 0 : 1;
}

int
cmdChaos(const std::vector<std::string> &args)
{
    // --crash anywhere in the arguments selects the process-level
    // sweep; the remaining flags are its own.
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--crash") {
            std::vector<std::string> rest = args;
            rest.erase(rest.begin() + long(i));
            return cmdCrashChaos(rest);
        }
    }
    service::chaos::ChaosConfig config;
    std::string report_path;
    std::string flightrec_dir = "flightrec";
    auto number = [](const std::string &flag, const std::string &w,
                     auto &out) {
        auto [end, ec] =
            std::from_chars(w.data(), w.data() + w.size(), out);
        if (ec != std::errc() || end != w.data() + w.size()) {
            std::fprintf(stderr, "mdesc: bad %s value '%s'\n",
                         flag.c_str(), w.c_str());
            return false;
        }
        return true;
    };
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--seeds" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1], config.num_seeds))
                return 1;
            ++i;
        } else if (args[i] == "--first-seed" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1], config.first_seed))
                return 1;
            ++i;
        } else if (args[i] == "--workers" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1], config.workers))
                return 1;
            ++i;
        } else if (args[i] == "--requests" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1], config.requests))
                return 1;
            ++i;
        } else if (args[i] == "--store-dir" && i + 1 < args.size()) {
            config.store_base_dir = args[++i];
        } else if (args[i] == "--report" && i + 1 < args.size()) {
            report_path = args[++i];
        } else if (args[i] == "--socket") {
            config.driver = net::chaosSocketDriver();
            config.driver_name = "socket";
        } else if (args[i] == "--flightrec" && i + 1 < args.size()) {
            flightrec_dir = args[++i];
        } else if (args[i] == "--no-flightrec") {
            flightrec_dir.clear();
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         args[i].c_str());
            return usage();
        }
    }
    // Tail capture for the sweep: a failing seed leaves its offending
    // requests' traces in the spool, which CI uploads as an artifact.
    if (!flightrec_dir.empty()) {
        flightrec::SpoolConfig frcfg;
        frcfg.dir = flightrec_dir;
        flightrec::armSpool(frcfg);
    }
    if (config.store_base_dir.empty()) {
        config.store_base_dir =
            (std::filesystem::temp_directory_path() /
             "mdesc-chaos-stores")
                .string();
    }

    service::chaos::SweepReport report =
        service::chaos::runSweep(config);
    std::printf("%s", report.toText().c_str());
    if (!report_path.empty()) {
        std::ofstream out(report_path,
                          std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr,
                         "mdesc: cannot write report '%s'\n",
                         report_path.c_str());
            return 1;
        }
        out << report.toJson() << "\n";
        std::printf("wrote %s\n", report_path.c_str());
    }
    return report.ok() ? 0 : 1;
}


/**
 * `mdesc serve`: the socket serving tier. Listens until SIGINT/SIGTERM
 * and answers requests over the mdes::net protocol (binary frames or
 * JSON lines, auto-detected per connection); --shards forks N workers
 * that share the listen socket and one on-disk store, each accepting
 * its own connections, under a one-thread supervisor.
 */
int
cmdServe(const std::vector<std::string> &args)
{
    net::ServeOptions opts;
    opts.server.port = 7433; // default mdesc port
    auto number = [](const std::string &flag, const std::string &w,
                     auto &out) {
        auto [end, ec] =
            std::from_chars(w.data(), w.data() + w.size(), out);
        if (ec != std::errc() || end != w.data() + w.size()) {
            std::fprintf(stderr, "mdesc: bad %s value '%s'\n",
                         flag.c_str(), w.c_str());
            return false;
        }
        return true;
    };
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--listen" && i + 1 < args.size()) {
            std::string ep = args[++i];
            size_t colon = ep.rfind(':');
            if (colon == std::string::npos) {
                std::fprintf(stderr,
                             "mdesc: --listen wants host:port, got "
                             "'%s'\n",
                             ep.c_str());
                return 1;
            }
            opts.server.host = ep.substr(0, colon);
            if (!number("--listen", ep.substr(colon + 1),
                        opts.server.port))
                return 1;
        } else if (args[i] == "--workers" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1],
                        opts.server.service.num_workers))
                return 1;
            ++i;
        } else if (args[i] == "--max-queue" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1],
                        opts.server.service.max_queue))
                return 1;
            ++i;
        } else if (args[i] == "--store" && i + 1 < args.size()) {
            opts.server.service.store_dir = args[++i];
        } else if (args[i] == "--store-max-bytes" &&
                   i + 1 < args.size()) {
            if (!number(args[i], args[i + 1],
                        opts.server.service.store_max_bytes))
                return 1;
            ++i;
        } else if (args[i] == "--shards" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1], opts.shards))
                return 1;
            ++i;
        } else if (args[i] == "--max-inflight" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1],
                        opts.server.max_inflight_per_conn))
                return 1;
            ++i;
        } else if (args[i] == "--json") {
            opts.json_metrics = true;
        } else if (args[i] == "--flightrec" && i + 1 < args.size()) {
            opts.flightrec_dir = args[++i];
        } else if (args[i] == "--no-flightrec") {
            opts.flightrec_dir.clear();
        } else if (args[i] == "--flightrec-max-bytes" &&
                   i + 1 < args.size()) {
            if (!number(args[i], args[i + 1], opts.flightrec_max_bytes))
                return 1;
            ++i;
        } else if (args[i] == "--flightrec-slow-ms" &&
                   i + 1 < args.size()) {
            if (!number(args[i], args[i + 1], opts.flightrec_slow_ms))
                return 1;
            ++i;
        } else if (args[i] == "--drain-ms" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1], opts.drain_deadline_ms))
                return 1;
            ++i;
        } else if (args[i] == "--backoff-base-ms" &&
                   i + 1 < args.size()) {
            if (!number(args[i], args[i + 1],
                        opts.restart_backoff_base_ms))
                return 1;
            ++i;
        } else if (args[i] == "--backoff-max-ms" &&
                   i + 1 < args.size()) {
            if (!number(args[i], args[i + 1],
                        opts.restart_backoff_max_ms))
                return 1;
            ++i;
        } else if (args[i] == "--rapid-window-ms" &&
                   i + 1 < args.size()) {
            if (!number(args[i], args[i + 1],
                        opts.rapid_crash_window_ms))
                return 1;
            ++i;
        } else if (args[i] == "--quarantine-after" &&
                   i + 1 < args.size()) {
            if (!number(args[i], args[i + 1], opts.quarantine_after))
                return 1;
            ++i;
        } else if (args[i] == "--heartbeat-ms" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1],
                        opts.heartbeat_interval_ms))
                return 1;
            ++i;
        } else if (args[i] == "--heartbeat-timeout-ms" &&
                   i + 1 < args.size()) {
            if (!number(args[i], args[i + 1],
                        opts.heartbeat_timeout_ms))
                return 1;
            ++i;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         args[i].c_str());
            return usage();
        }
    }
    return net::runServe(opts);
}

/**
 * `mdesc netbatch`: the client side of `serve` - push a .req file
 * through a running server and (with --check-inprocess) assert each
 * response's schedule fingerprint is bit-identical to an in-process
 * run of the same requests, the CI smoke gate for the socket path.
 */
int
cmdNetbatch(const std::vector<std::string> &args)
{
    std::string endpoint, input;
    bool json_mode = false, check_inprocess = false;
    uint32_t deadline_ms = 0;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--json-mode") {
            json_mode = true;
        } else if (args[i] == "--check-inprocess") {
            check_inprocess = true;
        } else if (args[i] == "--deadline-ms" && i + 1 < args.size()) {
            const std::string &w = args[++i];
            auto [end, ec] = std::from_chars(
                w.data(), w.data() + w.size(), deadline_ms);
            if (ec != std::errc() || end != w.data() + w.size()) {
                std::fprintf(stderr,
                             "mdesc: bad --deadline-ms value '%s'\n",
                             w.c_str());
                return 1;
            }
        } else if (args[i] == "--stdin" || args[i] == "-") {
            input = "-";
        } else if (!args[i].empty() && args[i][0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n",
                         args[i].c_str());
            return usage();
        } else if (endpoint.empty()) {
            endpoint = args[i];
        } else if (input.empty()) {
            input = args[i];
        } else {
            return usage();
        }
    }
    if (endpoint.empty() || input.empty())
        return usage();
    size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos) {
        std::fprintf(stderr, "mdesc: endpoint wants host:port, got '%s'\n",
                     endpoint.c_str());
        return 1;
    }
    std::string host = endpoint.substr(0, colon);
    uint16_t port = 0;
    {
        std::string w = endpoint.substr(colon + 1);
        auto [end, ec] =
            std::from_chars(w.data(), w.data() + w.size(), port);
        if (ec != std::errc() || end != w.data() + w.size()) {
            std::fprintf(stderr, "mdesc: bad port '%s'\n", w.c_str());
            return 1;
        }
    }

    std::string text;
    if (input == "-") {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        text = buf.str();
    } else {
        text = readFile(input);
    }
    // Network payloads are inline-only: reject file-reading keys here,
    // with the same typed error the server would produce.
    service::RequestParseOptions popts;
    popts.allow_files = false;
    service::ParsedRequests parsed =
        service::parseRequestText(text, popts);
    if (parsed.requests.empty()) {
        std::fprintf(stderr, "%s: no requests\n",
                     input == "-" ? "<stdin>" : input.c_str());
        return 1;
    }

    net::BlockingClient client(host, port, json_mode);
    if (!client.connected()) {
        std::fprintf(stderr, "mdesc: cannot connect to %s\n",
                     endpoint.c_str());
        return 1;
    }
    int failures = 0;
    std::vector<net::NetResponse> responses;
    for (size_t i = 0; i < parsed.requests.size(); ++i) {
        net::NetResponse r = client.request(parsed.lines[i], deadline_ms);
        responses.push_back(r);
        if (!r.transport_ok) {
            ++failures;
            std::printf("[%zu] transport failure\n", i);
            continue;
        }
        if (r.code == service::ErrorCode::Ok) {
            std::printf("[%zu] %s: ok%s, %llu cycles (%llu blocks, "
                        "fingerprint %llu, cache %s)\n",
                        i, r.machine.c_str(),
                        r.degraded ? " (degraded)" : "",
                        (unsigned long long)r.total_cycles,
                        (unsigned long long)r.blocks,
                        (unsigned long long)r.fingerprint,
                        r.cache_hit    ? "hit"
                        : r.disk_hit   ? "store hit"
                                       : "miss");
        } else {
            ++failures;
            std::printf("[%zu] %s: %s\n", i, r.error.c_str(),
                        r.message.c_str());
        }
    }

    if (check_inprocess) {
        service::ServiceConfig cfg;
        service::MdesService svc(cfg);
        std::vector<service::ScheduleResponse> local =
            svc.runBatch(parsed.requests);
        int mismatches = 0;
        for (size_t i = 0; i < local.size(); ++i) {
            uint64_t want = local[i].ok()
                                ? service::scheduleFingerprint(local[i])
                                : 0;
            uint64_t got = responses[i].transport_ok &&
                                   responses[i].code ==
                                       service::ErrorCode::Ok
                               ? responses[i].fingerprint
                               : 0;
            if (want != got) {
                ++mismatches;
                std::printf("[%zu] FINGERPRINT MISMATCH: socket %llu "
                            "vs in-process %llu\n",
                            i, (unsigned long long)got,
                            (unsigned long long)want);
            }
        }
        if (mismatches) {
            std::printf("%d fingerprint mismatch(es)\n", mismatches);
            return 1;
        }
        std::printf("fingerprints bit-identical to in-process run "
                    "(%zu requests)\n",
                    local.size());
    }
    return failures == 0 ? 0 : 1;
}

/** Split "host:port"; false (with a message) on malformed input. */
bool
parseEndpoint(const std::string &ep, std::string *host, uint16_t *port)
{
    size_t colon = ep.rfind(':');
    if (colon == std::string::npos) {
        std::fprintf(stderr, "mdesc: endpoint wants host:port, got '%s'\n",
                     ep.c_str());
        return false;
    }
    *host = ep.substr(0, colon);
    std::string w = ep.substr(colon + 1);
    auto [end, ec] = std::from_chars(w.data(), w.data() + w.size(), *port);
    if (ec != std::errc() || end != w.data() + w.size()) {
        std::fprintf(stderr, "mdesc: bad port '%s'\n", w.c_str());
        return false;
    }
    return true;
}

/** One stats poll over a fresh connection (the shard parent closes a
 * STAT connection after answering, so per-poll connects work against
 * every serve mode). Empty string on failure. */
std::string
fetchStats(const std::string &host, uint16_t port, bool json_mode)
{
    net::BlockingClient client(host, port, json_mode);
    if (!client.connected())
        return "";
    return client.stats();
}

/**
 * `mdesc stat`: one-shot live stats poll - the merged fleet view when
 * the endpoint is a sharded server. --json prints the raw protocol
 * document; the default renders the dashboard tables once.
 */
int
cmdStatLive(const std::vector<std::string> &args)
{
    std::string endpoint;
    bool json = false, json_mode = false;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--socket" && i + 1 < args.size()) {
            endpoint = args[++i];
        } else if (args[i] == "--json") {
            json = true;
        } else if (args[i] == "--json-mode") {
            json_mode = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         args[i].c_str());
            return usage();
        }
    }
    if (endpoint.empty())
        return usage();
    std::string host;
    uint16_t port = 0;
    if (!parseEndpoint(endpoint, &host, &port))
        return 1;
    std::string doc = fetchStats(host, port, json_mode);
    if (doc.empty()) {
        std::fprintf(stderr, "mdesc: cannot fetch stats from %s\n",
                     endpoint.c_str());
        return 1;
    }
    if (json) {
        std::printf("%s\n", doc.c_str());
        return 0;
    }
    std::printf("%s", service::renderStats(service::parseStats(doc))
                          .c_str());
    return 0;
}

/**
 * `mdesc top`: the refreshing dashboard - poll the stats document every
 * --interval-ms and redraw. --count N stops after N refreshes (0 =
 * until interrupted); handy for scripts and the CI smoke.
 */
int
cmdTop(const std::vector<std::string> &args)
{
    std::string endpoint;
    uint64_t interval_ms = 1000, count = 0;
    auto number = [](const std::string &flag, const std::string &w,
                     auto &out) {
        auto [end, ec] =
            std::from_chars(w.data(), w.data() + w.size(), out);
        if (ec != std::errc() || end != w.data() + w.size()) {
            std::fprintf(stderr, "mdesc: bad %s value '%s'\n",
                         flag.c_str(), w.c_str());
            return false;
        }
        return true;
    };
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--interval-ms" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1], interval_ms))
                return 1;
            ++i;
        } else if (args[i] == "--count" && i + 1 < args.size()) {
            if (!number(args[i], args[i + 1], count))
                return 1;
            ++i;
        } else if (args[i] == "--socket" && i + 1 < args.size()) {
            endpoint = args[++i];
        } else if (!args[i].empty() && args[i][0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n",
                         args[i].c_str());
            return usage();
        } else if (endpoint.empty()) {
            endpoint = args[i];
        } else {
            return usage();
        }
    }
    if (endpoint.empty())
        return usage();
    std::string host;
    uint16_t port = 0;
    if (!parseEndpoint(endpoint, &host, &port))
        return 1;
    int misses = 0;
    for (uint64_t iter = 0; count == 0 || iter < count; ++iter) {
        std::string doc = fetchStats(host, port, /*json_mode=*/false);
        if (doc.empty()) {
            // Tolerate a couple of missed polls (server restarting);
            // give up when it stays unreachable.
            if (++misses >= 3) {
                std::fprintf(stderr,
                             "mdesc: cannot fetch stats from %s\n",
                             endpoint.c_str());
                return 1;
            }
        } else {
            misses = 0;
            // Home + clear-to-end redraw (no full-screen buffer dance,
            // so the last frame stays in the scrollback on exit).
            std::printf("\x1b[H\x1b[J%s",
                        service::renderStats(service::parseStats(doc))
                            .c_str());
            std::fflush(stdout);
        }
        if (count != 0 && iter + 1 >= count)
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
    std::printf("\n");
    return 0;
}

std::string
formatUnixTime(int64_t t)
{
    if (t == 0)
        return "-";
    std::time_t tt = std::time_t(t);
    std::tm tm_buf;
    if (!gmtime_r(&tt, &tm_buf))
        return std::to_string(t);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%d %H:%M:%S", &tm_buf);
    return buf;
}

int
cmdStoreStat(const std::string &dir, bool json)
{
    mdes::store::ArtifactStore st(mdes::store::StoreConfig{.dir = dir, .creator = {}, .retry = {}});
    auto infos = st.list();
    std::sort(infos.begin(), infos.end(),
              [](const auto &a, const auto &b) { return a.key < b.key; });

    if (json) {
        uint64_t total_bytes = 0, quarantined = 0, stale = 0;
        JsonWriter w;
        w.beginObject();
        w.key("dir").value(dir);
        w.key("artifacts").beginArray();
        for (const auto &info : infos) {
            total_bytes += info.bytes;
            quarantined += info.quarantined;
            stale += info.stale;
            w.beginObject();
            w.key("key").value(
                mdes::store::artifactFileName(info.key).substr(0, 16));
            w.key("machine").value(info.machine);
            w.key("bytes").value(info.bytes);
            w.key("created_unix").value(info.created_unix);
            w.key("last_access_unix").value(info.last_access_unix);
            w.key("creator").value(info.creator);
            w.key("quarantined").value(bool(info.quarantined));
            w.key("stale").value(bool(info.stale));
            w.endObject();
        }
        w.endArray();
        w.key("count").value(uint64_t(infos.size()));
        w.key("total_bytes").value(total_bytes);
        w.key("quarantined").value(quarantined);
        w.key("stale").value(stale);
        w.key("residue_swept").value(st.stats().residue_swept);
        w.endObject();
        std::printf("%s\n", w.str().c_str());
        return 0;
    }

    TextTable table;
    table.setHeader({"Key", "Machine", "Bytes", "Created", "Last access",
                     "Creator", "State"});
    uint64_t total_bytes = 0, quarantined = 0, stale = 0;
    for (const auto &info : infos) {
        total_bytes += info.bytes;
        quarantined += info.quarantined;
        stale += info.stale;
        table.addRow({mdes::store::artifactFileName(info.key)
                          .substr(0, 16),
                      info.machine.empty() ? "?" : info.machine,
                      std::to_string(info.bytes),
                      formatUnixTime(int64_t(info.created_unix)),
                      formatUnixTime(info.last_access_unix),
                      info.creator.empty() ? "?" : info.creator,
                      info.quarantined ? "QUARANTINED"
                                       : (info.stale ? "STALE" : "ok")});
    }
    std::printf("%s", table.toString().c_str());
    std::printf("%zu artifact(s), %llu bytes", infos.size(),
                (unsigned long long)total_bytes);
    if (quarantined)
        std::printf(" (%llu quarantined)",
                    (unsigned long long)quarantined);
    if (stale)
        std::printf(" (%llu stale, evicted on next load)",
                    (unsigned long long)stale);
    if (uint64_t swept = st.stats().residue_swept)
        std::printf(", swept %llu orphaned temp file(s)",
                    (unsigned long long)swept);
    std::printf("\n");
    return 0;
}

int
cmdStorePrune(const std::string &dir,
              const std::vector<std::string> &args)
{
    uint64_t max_bytes = 0;
    bool have_budget = false;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--max-bytes" && i + 1 < args.size()) {
            const std::string &w = args[++i];
            auto [end, ec] =
                std::from_chars(w.data(), w.data() + w.size(), max_bytes);
            if (ec != std::errc() || end != w.data() + w.size()) {
                std::fprintf(stderr,
                             "mdesc: bad --max-bytes value '%s'\n",
                             w.c_str());
                return 1;
            }
            have_budget = true;
        } else {
            return usage();
        }
    }
    if (!have_budget)
        return usage();

    mdes::store::ArtifactStore st(mdes::store::StoreConfig{.dir = dir, .creator = {}, .retry = {}});
    auto result = st.prune(max_bytes);
    std::printf("scanned %llu artifact(s), removed %llu: %llu -> %llu "
                "bytes (budget %llu)\n",
                (unsigned long long)result.scanned,
                (unsigned long long)result.removed,
                (unsigned long long)result.bytes_before,
                (unsigned long long)result.bytes_after,
                (unsigned long long)max_bytes);
    if (result.residue_removed)
        std::printf("swept %llu orphaned temp file(s)\n",
                    (unsigned long long)result.residue_removed);
    return 0;
}

int
cmdStoreWarm(const std::string &dir,
             const std::vector<std::string> &args)
{
    std::vector<const machines::MachineInfo *> targets;
    if (args.empty()) {
        targets = machines::all();
        for (const auto *m : machines::extensions())
            targets.push_back(m);
    } else {
        for (const auto &name : args) {
            const machines::MachineInfo *m = machines::byName(name);
            if (!m) {
                std::fprintf(stderr, "unknown machine '%s'\n",
                             name.c_str());
                return 1;
            }
            targets.push_back(m);
        }
    }

    mdes::store::StoreConfig sc;
    sc.dir = dir;
    sc.creator = "mdesc-warm";
    mdes::store::ArtifactStore st(sc);
    PipelineConfig config = PipelineConfig::all();
    const bool bit_vector = true;

    TextTable table;
    table.setHeader({"Machine", "Key", "Result"});
    int failures = 0;
    for (const auto *m : targets) {
        uint64_t key =
            mdes::store::artifactKey(m->source, config, bit_vector);
        const char *result;
        if (st.load(key)) {
            result = "already warm";
        } else {
            lmdes::LowMdes low = exp::compileSourceToLow(
                m->source, config, bit_vector);
            if (st.store(key, low,
                         mdes::store::configFingerprint(config,
                                                        bit_vector))) {
                result = "compiled + published";
            } else {
                result = "PUBLISH FAILED";
                ++failures;
            }
        }
        table.addRow({m->name,
                      mdes::store::artifactFileName(key).substr(0, 16),
                      result});
    }
    std::printf("%s", table.toString().c_str());
    return failures == 0 ? 0 : 1;
}

int
cmdStore(const std::vector<std::string> &args)
{
    if (args.size() < 2)
        return usage();
    const std::string &verb = args[0];
    const std::string &dir = args[1];
    std::vector<std::string> rest(args.begin() + 2, args.end());
    if (verb == "stat") {
        bool json = false;
        for (const auto &arg : rest) {
            if (arg == "--json")
                json = true;
            else
                return usage();
        }
        return cmdStoreStat(dir, json);
    }
    if (verb == "prune")
        return cmdStorePrune(dir, rest);
    if (verb == "warm")
        return cmdStoreWarm(dir, rest);
    return usage();
}

/**
 * `mdesc flight decode <file.mdcr>`: turn a crash capture (the raw
 * ring snapshot a fatal-signal handler wrote; DESIGN.md §15) into
 * Chrome trace-event JSON. The crash report header goes to stderr so
 * stdout stays pipeable into a trace viewer.
 */
int
cmdFlight(const std::vector<std::string> &args)
{
    if (args.size() < 2 || args[0] != "decode")
        return usage();
    const std::string &path = args[1];
    std::string out_path;
    for (size_t i = 2; i < args.size(); ++i) {
        if (args[i] == "-o" && i + 1 < args.size()) {
            out_path = args[++i];
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         args[i].c_str());
            return usage();
        }
    }
    flightrec::CrashInfo info;
    std::string json = flightrec::decodeCrashCapture(path, &info);
    std::fprintf(stderr,
                 "crash capture: signal %d (%s), pid %llu, fault addr "
                 "0x%llx, %llu ring(s), %llu event(s)\n",
                 info.signo, strsignal(info.signo),
                 (unsigned long long)info.pid,
                 (unsigned long long)info.fault_addr,
                 (unsigned long long)info.rings,
                 (unsigned long long)info.events);
    if (out_path.empty()) {
        std::printf("%s\n", json.c_str());
        return 0;
    }
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "mdesc: cannot write '%s'\n",
                     out_path.c_str());
        return 1;
    }
    out << json << "\n";
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    return 0;
}

int
cmdExport(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        return usage();
    const machines::MachineInfo *info = machines::byName(args[0]);
    if (!info) {
        std::fprintf(stderr,
                     "unknown machine '%s' (try PA7100, Pentium, "
                     "SuperSPARC, K5)\n",
                     args[0].c_str());
        return 1;
    }
    std::fputs(info->source, stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        std::string cmd = argv[1];
        if (cmd == "compile")
            return cmdCompile(args);
        if (cmd == "info")
            return cmdInfo(args);
        if (cmd == "dump")
            return cmdDump(args);
        if (cmd == "stats")
            return cmdStats(args);
        if (cmd == "schedule")
            return cmdSchedule(args);
        if (cmd == "batch")
            return cmdBatch(args);
        if (cmd == "chaos")
            return cmdChaos(args);
        if (cmd == "serve")
            return cmdServe(args);
        if (cmd == "netbatch")
            return cmdNetbatch(args);
        if (cmd == "stat")
            return cmdStatLive(args);
        if (cmd == "top")
            return cmdTop(args);
        if (cmd == "store")
            return cmdStore(args);
        if (cmd == "flight")
            return cmdFlight(args);
        if (cmd == "lint")
            return cmdLint(args);
        if (cmd == "export")
            return cmdExport(args);
        return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mdesc: %s\n", e.what());
        return 1;
    }
}
