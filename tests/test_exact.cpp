/**
 * @file
 * Branch-and-bound exact scheduler tests: lockstep against an
 * independent exhaustive enumerator on tiny blocks (handcrafted, random
 * on every paper machine in each lowering the system schedules against,
 * and random machines whose AND subtrees overlap), root proofs pinned on
 * handcrafted blocks, eachSubtreeFits() purity under millions of
 * probes, budget exhaustion falling back to the list incumbent,
 * cooperative cancellation, the service-level portfolio guarantee that
 * it never returns a schedule longer than plain list scheduling, and a
 * lockstep of the service's bound-first race against racing every
 * candidate on every block.
 */

#include <climits>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/transforms.h"
#include "exact/exact_scheduler.h"
#include "exp/runner.h"
#include "hmdes/compile.h"
#include "lmdes/low_mdes.h"
#include "machines/machines.h"
#include "random_mdes.h"
#include "rumap/checker.h"
#include "rumap/ru_map.h"
#include "sched/backward_scheduler.h"
#include "sched/dep_graph.h"
#include "sched/list_scheduler.h"
#include "sched/modulo_scheduler.h"
#include "sched/verify.h"
#include "service/service.h"
#include "support/rng.h"
#include "test_program.h"
#include "workload/sasm.h"
#include "workload/workload.h"

namespace mdes {
namespace {

using lmdes::LowMdes;
using sched::Block;
using sched::BlockSchedule;
using sched::ListScheduler;
using sched::SchedStats;
using testing::instr;
using testing::oneBlock;

/** A 2-wide machine: 2 slots, ops take one slot; ADD cascades on S[1]. */
LowMdes
twoWide()
{
    static const char *src = R"(
machine "two-wide" {
    resource S[2];
    ortree AnyS { for i in 0 .. 1 { option { use S[i] at 0; } } }
    ortree S1 { option { use S[1] at 0; } }
    table Any = AnyS;
    table Casc = S1;
    operation ADD { table Any; latency 1; cascade Casc; }
    operation LOAD { table Any; latency 3; }
    operation BR { table Any; latency 1; }
}
)";
    Mdes m = hmdes::compileOrThrow(src);
    return LowMdes::lower(m, {});
}

LowMdes
machineByName(const char *name)
{
    const machines::MachineInfo *info = machines::byName(name);
    EXPECT_NE(info, nullptr) << name;
    Mdes m = hmdes::compileOrThrow(info->source);
    lmdes::LowerOptions lopts;
    lopts.pack_bit_vector = true;
    return LowMdes::lower(m, lopts);
}

/**
 * Independent exhaustive reference: plain recursive enumeration of
 * every canonical (cycle-ascending, index-ascending) placement
 * sequence, with a greedy tryReserve() replay for feasibility and no
 * bounding at all beyond the incumbent horizon. Shares only the
 * checker and the dependence graph with the scheduler under test.
 */
class BruteForce
{
  public:
    explicit BruteForce(const LowMdes &low) : low_(low), checker_(low) {}

    /** Shortest canonical schedule length; placements are restricted
     * to cycles < @p horizon (any optimum fits below the incumbent's
     * length, so pass the list schedule's length). */
    int32_t
    shortest(const Block &block, int32_t horizon)
    {
        n_ = uint32_t(block.instrs.size());
        horizon_ = horizon;
        graph_ = sched::DepGraph::build(block, low_);
        classes_.resize(n_);
        can_casc_.assign(n_, 0);
        for (uint32_t u = 0; u < n_; ++u) {
            classes_[u] = block.instrs[u].op_class;
            const auto &cls = low_.opClasses()[classes_[u]];
            can_casc_[u] = block.instrs[u].cascadable
                                   && cls.cascade_tree != kInvalidId
                               ? 1
                               : 0;
        }
        cycles_.assign(n_, -1);
        pool_.resize(n_);
        pending_.assign(n_, 0);
        for (uint32_t u = 0; u < n_; ++u)
            pending_[u] = uint32_t(graph_.preds(u).size());
        ru_ = rumap::RuMap();
        placed_ = 0;
        len_ = 0;
        best_ = INT32_MAX;
        enumerate(0, 0);
        return best_;
    }

  private:
    int32_t
    ready(uint32_t u, int32_t &normal) const
    {
        normal = 0;
        int32_t relaxed = 0;
        for (const sched::DepEdge &e : graph_.preds(u)) {
            int32_t at = cycles_[e.pred];
            normal = std::max(normal, at + e.min_dist);
            relaxed =
                std::max(relaxed, e.cascade_relax ? at : at + e.min_dist);
        }
        return can_casc_[u] ? relaxed : normal;
    }

    void
    enumerate(int32_t cycle, uint32_t floor)
    {
        if (placed_ == n_) {
            best_ = std::min(best_, len_);
            return;
        }
        int32_t next = INT32_MAX;
        for (uint32_t u = 0; u < n_; ++u) {
            if (cycles_[u] >= 0 || pending_[u] > 0)
                continue;
            int32_t normal = 0;
            int32_t at = ready(u, normal);
            next = std::min(next, std::max(at, cycle + 1));
            if (at > cycle || u < floor || cycle >= horizon_)
                continue;
            bool cascade = can_casc_[u] && cycle < normal;
            const auto &cls = low_.opClasses()[classes_[u]];
            uint32_t tree = cascade ? cls.cascade_tree : cls.tree;
            std::vector<rumap::Reservation> &reserved = pool_[placed_];
            reserved.clear();
            if (!checker_.tryReserve(tree, cycle, ru_, ignore_, nullptr,
                                     &reserved))
                continue;
            int32_t prev_len = len_;
            cycles_[u] = cycle;
            ++placed_;
            len_ = std::max(len_, cycle + 1);
            for (const sched::DepEdge &e : graph_.succs(u))
                --pending_[e.succ];
            enumerate(cycle, u + 1);
            for (const sched::DepEdge &e : graph_.succs(u))
                ++pending_[e.succ];
            len_ = prev_len;
            --placed_;
            cycles_[u] = -1;
            for (const auto &r : reserved)
                ru_.releaseSlot(r.cycle, r.mask);
        }
        if (placed_ == 0 || next == INT32_MAX || next >= horizon_)
            return;
        enumerate(next, 0);
    }

    const LowMdes &low_;
    rumap::Checker checker_;
    rumap::CheckStats ignore_;
    std::vector<std::vector<rumap::Reservation>> pool_;
    rumap::RuMap ru_;
    sched::DepGraph graph_;
    std::vector<uint32_t> classes_;
    std::vector<uint8_t> can_casc_;
    std::vector<int32_t> cycles_;
    std::vector<uint32_t> pending_;
    uint32_t n_ = 0;
    uint32_t placed_ = 0;
    int32_t len_ = 0;
    int32_t best_ = 0;
    int32_t horizon_ = 0;
};

/** Exact search with no time cap (deterministic) and a generous node
 * budget; uses @p list as the incumbent. */
exact::ExactResult
exactOn(exact::ExactScheduler &search, const Block &block,
        const BlockSchedule &list)
{
    SchedStats stats;
    exact::ExactOptions opts;
    opts.time_budget_us = 0;
    opts.max_nodes = 1u << 22;
    opts.incumbent = &list;
    return search.scheduleBlock(block, stats, opts);
}

void
expectMatchesBruteForce(const LowMdes &low, const Block &block,
                        const char *what)
{
    ListScheduler list(low);
    exact::ExactScheduler search(low);
    SchedStats stats;
    std::vector<uint32_t> seed_options;
    BlockSchedule seed = list.scheduleBlock(block, stats, &seed_options);
    exact::ExactResult er = exactOn(search, block, seed);

    int32_t truth = BruteForce(low).shortest(block, seed.length);
    truth = std::min(truth, seed.length);

    // The root bound alone never exceeds the optimum.
    EXPECT_LE(search.rootBound(block, stats, seed.length).lower_bound,
              truth)
        << what;

    EXPECT_TRUE(er.proven_optimal) << what;
    EXPECT_EQ(er.schedule.length, truth) << what;
    EXPECT_LE(er.schedule.length, seed.length) << what;
    EXPECT_GE(er.schedule.length, er.lower_bound) << what;
    sched::VerifyResult v =
        sched::verifyScheduleEx(block, er.schedule, low);
    EXPECT_TRUE(v.ok()) << what << ": "
                        << sched::verifyFaultName(v.fault) << ": "
                        << v.message;
    // An improved schedule carries its own certificate; otherwise it is
    // the seed, certified by the list scheduler.
    EXPECT_EQ(er.improved, !er.options.empty()) << what;
    v = sched::Verifier(low).verify(
        block, er.schedule, er.improved ? er.options : seed_options);
    EXPECT_TRUE(v.ok()) << what << ": "
                        << sched::verifyFaultName(v.fault) << ": "
                        << v.message;
}

// ------------------------------------------------- brute-force lockstep

TEST(ExactScheduler, MatchesBruteForceHandcrafted)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    uint32_t BR = low.findOpClass("BR");

    {
        // Six independent ADDs on a 2-wide machine: optimum 3.
        std::vector<testing::Op> ops;
        for (int i = 0; i < 6; ++i)
            ops.push_back(instr(ADD, {1}, {10 + i}));
        sched::Program prog = oneBlock(ops);
        const Block &b = prog.blocks[0];
        expectMatchesBruteForce(low, b, "six independent adds");
    }
    {
        // A cascade chain: r2=r1+1; r3=r2+1 with the consumer
        // cascadable - both can issue in cycle 0.
        sched::Program prog = oneBlock({
            instr(ADD, {1}, {2}),
            instr(ADD, {2}, {3}, /*cascadable=*/true),
            instr(ADD, {3}, {4}, /*cascadable=*/true),
        });
        const Block &b = prog.blocks[0];
        expectMatchesBruteForce(low, b, "cascade chain");
    }
    {
        // Loads feeding adds plus independent filler, branch last.
        sched::Program prog = oneBlock({
            instr(LOAD, {1}, {2}),
            instr(LOAD, {1}, {3}),
            instr(ADD, {2}, {4}),
            instr(ADD, {3}, {5}),
            instr(ADD, {9}, {6}),
            instr(ADD, {9}, {7}),
            instr(BR, {4}, {}, false, /*is_branch=*/true),
        });
        const Block &b = prog.blocks[0];
        expectMatchesBruteForce(low, b, "loads, adds, branch");
    }
    {
        // WAW/WAR pressure: repeated writes to one register.
        sched::Program prog = oneBlock({
            instr(ADD, {1}, {2}),
            instr(ADD, {2}, {3}),
            instr(ADD, {9}, {2}),
            instr(ADD, {2}, {5}),
            instr(LOAD, {5}, {2}),
        });
        const Block &b = prog.blocks[0];
        expectMatchesBruteForce(low, b, "waw/war pressure");
    }
}

/** A paper machine as the service compiles it: every transform, packed
 * into bit vectors. */
LowMdes
servedMachine(const char *name)
{
    const machines::MachineInfo *info = machines::byName(name);
    EXPECT_NE(info, nullptr) << name;
    return exp::compileSourceToLow(info->source, PipelineConfig::all(),
                                   /*bit_vector=*/true);
}

TEST(ExactScheduler, MatchesBruteForceRandomTinyBlocks)
{
    // Each paper machine in three lowerings: raw, as the service compiles
    // it, and unoptimized and unpacked, as perfbench's list-schedule
    // oracle compiles it. Every bound is checked against the
    // brute-force optimum on 3-7-op blocks.
    for (const char *name : {"PA7100", "Pentium", "SuperSPARC", "K5"}) {
        const machines::MachineInfo *info = machines::byName(name);
        ASSERT_NE(info, nullptr) << name;
        const LowMdes lows[] = {
            machineByName(name),
            servedMachine(name),
            exp::compileSourceToLow(info->source, PipelineConfig::none(),
                                    /*bit_vector=*/false),
        };
        const char *lowering[] = {"raw", "served", "unoptimized"};
        for (size_t l = 0; l < 3; ++l) {
            workload::WorkloadSpec spec = info->workload;
            spec.num_ops = 200;
            spec.min_block_size = 3;
            spec.max_block_size = 7;
            for (uint64_t seed = 1; seed <= 3; ++seed) {
                spec.seed = seed;
                sched::Program program = workload::generate(spec, lows[l]);
                ASSERT_FALSE(program.blocks.empty());
                for (size_t b = 0; b < program.blocks.size(); ++b) {
                    std::string what = std::string(name) + " "
                                       + lowering[l] + " seed "
                                       + std::to_string(seed) + " block "
                                       + std::to_string(b);
                    expectMatchesBruteForce(lows[l], program.blocks[b],
                                            what.c_str());
                }
            }
        }
    }
}

/** The Trap machine of Service.OptimizerLeavesOverlappingTablesAsWritten:
 * X and Y can both claim R[0] and R[5] at time 0. */
const char *const kTrap = R"(
machine "Trap" {
    resource R[6];
    ortree X {
        option { use R[0] at 0; use R[2] at 0; }
        option { use R[5] at 0; use R[3] at 0; }
        option { use R[0] at 0; use R[4] at 0; }
    }
    ortree Y {
        option { use R[0] at 0; use R[5] at 0; }
        option { use R[1] at 0; }
    }
    table T = and(X, Y);
    operation OP { table T; latency 1; }
}
)";

/** @p m as HMDES source text. */
std::string
hmdesSource(const Mdes &m)
{
    std::string s = "machine \"" + m.name() + "\" {\n";
    for (const auto &rc : m.resourceClasses()) {
        s += "    resource " + rc.name;
        if (rc.count > 1)
            s += "[" + std::to_string(rc.count) + "]";
        s += ";\n";
    }
    for (const auto &ot : m.orTrees()) {
        s += "    ortree " + ot.name + " {\n";
        for (OptionId o : ot.options) {
            s += "        option {";
            for (const ResourceUsage &u : m.option(o).usages)
                s += " use " + m.resourceName(u.resource) + " at "
                     + std::to_string(u.time) + ";";
            s += " }\n";
        }
        s += "    }\n";
    }
    for (const auto &t : m.trees()) {
        s += "    table " + t.name + " = and(";
        for (size_t k = 0; k < t.or_trees.size(); ++k)
            s += (k ? ", " : "") + m.orTrees()[t.or_trees[k]].name;
        s += ");\n";
    }
    for (const auto &oc : m.opClasses())
        s += "    operation " + oc.name + " { table "
             + m.trees()[oc.tree].name + "; latency "
             + std::to_string(oc.latency) + "; }\n";
    return s + "}\n";
}

/** A machine as the service compiles it, with a workload spec over the
 * classes that can issue on an empty map: a table whose AND subtrees
 * overlap can fail the greedy check on every cycle. */
struct OverlappingMachine
{
    std::string source;
    LowMdes low;
    workload::WorkloadSpec spec;
};

/** @p source with a spec of @p num_ops ops in blocks of @p min_block to
 * @p max_block ops. */
OverlappingMachine
overlappingMachine(std::string source, uint64_t seed, size_t num_ops,
                   size_t min_block, size_t max_block)
{
    Mdes m = hmdes::compileOrThrow(source);
    LowMdes low = exp::compileSourceToLow(source, PipelineConfig::all(),
                                          /*bit_vector=*/true);
    workload::WorkloadSpec spec =
        testing::randomWorkloadSpec(m, seed, num_ops);
    spec.min_block_size = min_block;
    spec.max_block_size = max_block;
    rumap::Checker checker(low);
    std::erase_if(spec.classes, [&](const workload::ClassMix &mix) {
        const uint32_t cls = low.findOpClass(mix.op_class);
        rumap::RuMap scratch;
        rumap::CheckStats stats;
        return !checker.tryReserve(low.opClasses()[cls].tree, 0, scratch,
                                   stats);
    });
    return {std::move(source), std::move(low), std::move(spec)};
}

/** The first @p count random machines from @p rng whose AND subtrees
 * draw on shared resources and that have a class to schedule. */
std::vector<OverlappingMachine>
overlappingMachines(Rng &rng, int count, size_t num_ops, size_t min_block,
                    size_t max_block)
{
    std::vector<OverlappingMachine> out;
    for (int trial = 0; int(out.size()) < count && trial < 4 * count;
         ++trial) {
        testing::RandomMdesOptions opts;
        opts.disjoint_subtrees = false;
        opts.min_subtrees = 2;
        OverlappingMachine om = overlappingMachine(
            hmdesSource(testing::randomMdes(rng, opts)),
            uint64_t(trial) + 1, num_ops, min_block, max_block);
        if (!om.spec.classes.empty())
            out.push_back(std::move(om));
    }
    EXPECT_EQ(int(out.size()), count) << "too few issuable machines";
    return out;
}

TEST(ExactScheduler, MatchesBruteForceOnOverlappingMachines)
{
    // On a table whose AND subtrees share resources the greedy AND check
    // is not monotone in the map: an op may fail on an emptier map and
    // fit on a fuller one. The search's probe propagation must still
    // never cut a schedule the brute force finds.
    Rng rng(0x0E4A9);
    std::vector<OverlappingMachine> sample =
        overlappingMachines(rng, 400, 60, 3, 6);
    sample.push_back(overlappingMachine(kTrap, 1, 60, 3, 6));
    size_t blocks = 0;
    for (size_t i = 0; i < sample.size(); ++i) {
        const OverlappingMachine &om = sample[i];
        sched::Program program = workload::generate(om.spec, om.low);
        for (size_t b = 0; b < program.blocks.size(); ++b, ++blocks) {
            std::string what = "machine " + std::to_string(i) + " ("
                               + om.low.machineName() + ") block "
                               + std::to_string(b);
            expectMatchesBruteForce(om.low, program.blocks[b],
                                    what.c_str());
        }
    }
    EXPECT_GT(blocks, 4000u);
}

// ---------------------------------------------------- root proofs

/** The search proves @p block's list schedule, of @p list_length
 * cycles, optimal from its root bound alone: no search node. */
void
expectProvenAtRoot(const LowMdes &low, const Block &block,
                   int32_t list_length)
{
    SchedStats stats;
    BlockSchedule list = ListScheduler(low).scheduleBlock(block, stats);
    ASSERT_EQ(list.length, list_length);
    exact::ExactScheduler search(low);
    exact::ExactResult er = exactOn(search, block, list);
    EXPECT_TRUE(er.proven_optimal);
    EXPECT_EQ(er.lower_bound, list.length);
    EXPECT_EQ(er.nodes, 0u);
}

TEST(ExactScheduler, RootBoundProvesListSchedules)
{
    {
        // Pentium: four independent moves. Either option of a move takes
        // a decode slot, a pipe, its ALU and a writeback slot: four of the
        // eight instances its subtree spans, so four moves need two
        // cycles.
        SCOPED_TRACE("Pentium MOV_RR x4");
        LowMdes low = servedMachine("Pentium");
        uint32_t MOV_RR = low.findOpClass("MOV_RR");
        std::vector<testing::Op> ops;
        for (int32_t i = 0; i < 4; ++i)
            ops.push_back(instr(MOV_RR, {10 + i}, {i}));
        sched::Program prog = oneBlock(ops);
        expectProvenAtRoot(low, prog.blocks[0], 2);
    }
    {
        // K5: three ops that each need an ALU at their dispatch cycle.
        // Two ALUs give two cycles, but only in a group that counts the
        // offset-0 ALU usages alone: the late ALU usages of other tables
        // would widen it by a cycle.
        SCOPED_TRACE("K5 INC, ALU_RI, CMP_BR");
        LowMdes low = servedMachine("K5");
        sched::Program prog = oneBlock({
            instr(low.findOpClass("INC"), {3}, {26}),
            instr(low.findOpClass("ALU_RI"), {0}, {11}),
            instr(low.findOpClass("CMP_BR"), {24, 22}, {}, false,
                  /*is_branch=*/true),
        });
        expectProvenAtRoot(low, prog.blocks[0], 2);
    }
    {
        // Pentium: the ALU op waits a cycle for the shift, and the
        // branch bundle issues alone no earlier than it. The groups
        // alone give 2; the root's energetic test sees that both must
        // issue in cycle 1 and cannot share it.
        SCOPED_TRACE("Pentium SHR, ALU_RR, CMP_BR");
        LowMdes low = servedMachine("Pentium");
        sched::Program prog = oneBlock({
            instr(low.findOpClass("SHR"), {3}, {4}),
            instr(low.findOpClass("ALU_RR"), {0, 4}, {4}),
            instr(low.findOpClass("CMP_BR"), {1, 5}, {}, false,
                  /*is_branch=*/true),
        });
        expectProvenAtRoot(low, prog.blocks[0], 3);
    }
}

// -------------------------------------------- eachSubtreeFits() purity

TEST(ExactScheduler, EachSubtreeFitsLeavesNoTrace)
{
    LowMdes low = machineByName("K5");
    rumap::Checker probed(low);
    rumap::Checker control(low);
    rumap::RuMap map_a;
    rumap::RuMap map_b;

    std::vector<uint32_t> trees;
    for (const auto &cls : low.opClasses()) {
        trees.push_back(cls.tree);
        if (cls.cascade_tree != kInvalidId)
            trees.push_back(cls.cascade_tree);
    }
    ASSERT_FALSE(trees.empty());

    // Interleave millions of eachSubtreeFits() probes on map A with
    // identical tryReserve() sequences on both maps; the two must stay
    // bit-identical and behave identically throughout.
    uint64_t probes = 0;
    uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    for (int round = 0; round < 40; ++round) {
        for (int32_t cycle = 0; cycle < 64; ++cycle) {
            for (uint32_t t : trees) {
                for (int rep = 0; rep < 45; ++rep) {
                    probed.eachSubtreeFits(t, cycle, map_a);
                    ++probes;
                }
            }
        }
        // A burst of identical reservations against both maps.
        for (int i = 0; i < 32; ++i) {
            uint32_t t = trees[next() % trees.size()];
            int32_t cycle = int32_t(next() % 64);
            bool fit_a = probed.eachSubtreeFits(t, cycle, map_a);
            bool fit_b = control.eachSubtreeFits(t, cycle, map_b);
            ASSERT_EQ(fit_a, fit_b);
            rumap::CheckStats sa, sb;
            std::vector<rumap::Reservation> ra, rb;
            bool got_a = probed.tryReserve(t, cycle, map_a, sa, nullptr,
                                           &ra);
            bool got_b = control.tryReserve(t, cycle, map_b, sb,
                                            nullptr, &rb);
            ASSERT_EQ(got_a, got_b);
            ASSERT_EQ(ra.size(), rb.size());
            for (size_t k = 0; k < ra.size(); ++k) {
                ASSERT_EQ(ra[k].cycle, rb[k].cycle);
                ASSERT_EQ(ra[k].mask, rb[k].mask);
            }
        }
        ASSERT_EQ(map_a.windowBase(), map_b.windowBase());
        ASSERT_EQ(map_a.windowSize(), map_b.windowSize());
        for (size_t w = 0; w < map_a.windowSize(); ++w)
            ASSERT_EQ(map_a.windowData()[w], map_b.windowData()[w]);
    }
    EXPECT_GT(probes, 2'000'000u);
}

// ------------------------------------- budget exhaustion, cancellation

/** The block in a generated workload whose exact search visits the
 * most nodes (with the incumbent list schedule attached), or nullptr
 * when every block is proven at the root. */
struct HardBlock
{
    const Block *block = nullptr;
    BlockSchedule list;
    uint64_t nodes = 0;
};

HardBlock
findHardBlock(const LowMdes &low, sched::Program &program)
{
    ListScheduler list(low);
    exact::ExactScheduler search(low);
    HardBlock hard;
    for (const auto &block : program.blocks) {
        SchedStats stats;
        BlockSchedule seed = list.scheduleBlock(block, stats);
        exact::ExactOptions opts;
        opts.time_budget_us = 0;
        opts.max_nodes = 1u << 18;
        opts.incumbent = &seed;
        exact::ExactResult er = search.scheduleBlock(block, stats, opts);
        if (er.nodes > hard.nodes) {
            hard.nodes = er.nodes;
            hard.block = &block;
            hard.list = seed;
        }
    }
    return hard;
}

TEST(ExactScheduler, BudgetExhaustionReturnsListIncumbent)
{
    LowMdes low = machineByName("SuperSPARC");
    workload::WorkloadSpec spec = machines::superSparc().workload;
    spec.num_ops = 3000;
    spec.seed = 11;
    sched::Program program = workload::generate(spec, low);
    HardBlock hard = findHardBlock(low, program);
    ASSERT_NE(hard.block, nullptr);
    ASSERT_GT(hard.nodes, 2048u)
        << "workload has no block with a non-trivial search";

    exact::ExactScheduler search(low);
    SchedStats stats;
    exact::ExactOptions opts;
    opts.time_budget_us = 0;
    opts.max_nodes = 1;
    opts.incumbent = &hard.list;
    exact::ExactResult er =
        search.scheduleBlock(*hard.block, stats, opts);

    EXPECT_TRUE(er.budget_exhausted);
    EXPECT_FALSE(er.proven_optimal);
    EXPECT_FALSE(er.improved);
    EXPECT_EQ(er.schedule.length, hard.list.length);
    EXPECT_EQ(er.schedule.cycles, hard.list.cycles);
    EXPECT_LT(er.lower_bound, er.schedule.length);
    EXPECT_GT(er.gap(), 0);
}

TEST(ExactScheduler, CancellationStopsSearchCleanly)
{
    LowMdes low = machineByName("SuperSPARC");
    workload::WorkloadSpec spec = machines::superSparc().workload;
    spec.num_ops = 3000;
    spec.seed = 11;
    sched::Program program = workload::generate(spec, low);
    HardBlock hard = findHardBlock(low, program);
    ASSERT_NE(hard.block, nullptr);
    // Cancellation is polled every 1024 nodes; make sure the search is
    // long enough that the second poll happens mid-search.
    ASSERT_GT(hard.nodes, 4096u);

    exact::ExactScheduler search(low);
    SchedStats stats;
    int polls = 0;
    exact::ExactOptions opts;
    opts.time_budget_us = 0;
    opts.max_nodes = 1u << 22;
    opts.cancel = [&polls] { return ++polls >= 2; };
    opts.incumbent = &hard.list;
    exact::ExactResult er =
        search.scheduleBlock(*hard.block, stats, opts);

    EXPECT_TRUE(er.cancelled);
    EXPECT_FALSE(er.proven_optimal);
    EXPECT_GE(polls, 2);
    EXPECT_LT(er.nodes, hard.nodes);
    EXPECT_LE(er.schedule.length, hard.list.length);
    sched::VerifyResult v =
        sched::verifyScheduleEx(*hard.block, er.schedule, low);
    EXPECT_TRUE(v.ok()) << sched::verifyFaultName(v.fault) << ": "
                        << v.message;
}

TEST(ExactScheduler, RejectsMissingIncumbent)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    sched::Program prog = oneBlock({
        instr(ADD, {1}, {2}),
        instr(ADD, {2}, {3}),
        instr(ADD, {9}, {4}),
    });
    const Block &block = prog.blocks[0];
    SchedStats stats;
    BlockSchedule seed = ListScheduler(low).scheduleBlock(block, stats);

    exact::ExactScheduler search(low);
    exact::ExactOptions opts;
    EXPECT_THROW(search.scheduleBlock(block, stats, opts),
                 std::invalid_argument);
    BlockSchedule short_seed = seed;
    short_seed.cycles.pop_back();
    opts.incumbent = &short_seed;
    EXPECT_THROW(search.scheduleBlock(block, stats, opts),
                 std::invalid_argument);

    opts.incumbent = &seed;
    EXPECT_LE(search.scheduleBlock(block, stats, opts).schedule.length,
              seed.length);
}

// --------------------------------------------------- service portfolio

service::ScheduleRequest
syntheticRequest(const std::string &machine, size_t ops, uint64_t seed,
                 service::SchedulerKind kind)
{
    service::ScheduleRequest req;
    req.machine = machine;
    req.synth_ops = ops;
    req.seed = seed;
    req.scheduler = kind;
    req.exact_ms = 0; // node budget only: deterministic
    req.exact_nodes = 1u << 16;
    return req;
}

TEST(ExactService, PortfolioNeverLongerThanList)
{
    std::vector<service::ScheduleRequest> batch;
    batch.push_back(syntheticRequest("K5", 600, 3,
                                     service::SchedulerKind::List));
    batch.push_back(syntheticRequest("K5", 600, 3,
                                     service::SchedulerKind::Portfolio));
    batch.push_back(syntheticRequest("PA7100", 600, 5,
                                     service::SchedulerKind::List));
    batch.push_back(syntheticRequest("PA7100", 600, 5,
                                     service::SchedulerKind::Portfolio));
    service::MdesService svc({.num_workers = 2});
    auto resp = svc.runBatch(std::move(batch));
    ASSERT_EQ(resp.size(), 4u);
    for (const auto &r : resp)
        ASSERT_TRUE(r.ok()) << r.error.message;
    for (size_t pair = 0; pair < 2; ++pair) {
        const auto &lst = resp[pair * 2];
        const auto &pf = resp[pair * 2 + 1];
        ASSERT_EQ(lst.schedules.size(), pf.schedules.size());
        ASSERT_EQ(pf.outcomes.size(), pf.schedules.size());
        EXPECT_EQ(pf.exact.blocks, pf.schedules.size());
        uint64_t wins = pf.exact.wins_list + pf.exact.wins_backward
                        + pf.exact.wins_modulo + pf.exact.wins_exact;
        EXPECT_EQ(wins, pf.schedules.size());
        for (size_t b = 0; b < pf.schedules.size(); ++b) {
            EXPECT_LE(pf.schedules[b].length, lst.schedules[b].length)
                << "pair " << pair << " block " << b;
            const auto &o = pf.outcomes[b];
            EXPECT_EQ(o.length, pf.schedules[b].length);
            EXPECT_LE(o.lower_bound, o.length);
            if (o.proven_optimal) {
                EXPECT_EQ(o.lower_bound, o.length);
            }
        }
        EXPECT_GE(pf.exact.proven_optimal, pf.exact.blocks / 2)
            << "suspiciously low proven-optimal rate";
    }
}

TEST(ExactService, DeadlineInsideTheSearchStillAnswersOk)
{
    // K5 seed 1 holds a block whose unbounded search runs for seconds,
    // so a 300 ms deadline lapses inside the exact stage. The search is
    // cancelled there, and the response keeps each block's best
    // schedule so far.
    service::MdesService svc({.num_workers = 1});
    const auto lst = svc.wait(svc.submit(
        syntheticRequest("K5", 2000, 1, service::SchedulerKind::List)));
    ASSERT_TRUE(lst.ok()) << lst.error.message;
    service::ScheduleRequest req =
        syntheticRequest("K5", 2000, 1, service::SchedulerKind::Portfolio);
    req.exact_nodes = uint64_t(1) << 40; // only the deadline stops it
    req.deadline_ms = 300;
    req.verify = true;
    const auto pf = svc.wait(svc.submit(req));
    ASSERT_TRUE(pf.ok()) << pf.error.message;
    ASSERT_EQ(pf.schedules.size(), lst.schedules.size());
    ASSERT_EQ(pf.outcomes.size(), pf.schedules.size());
    for (size_t b = 0; b < pf.schedules.size(); ++b)
        EXPECT_LE(pf.schedules[b].length, lst.schedules[b].length)
            << "block " << b;
    EXPECT_LT(pf.exact.proven_optimal, pf.exact.blocks)
        << "the deadline cut no search short";
}

TEST(ExactService, PortfolioDeterministicAcrossWorkerCounts)
{
    auto run = [](unsigned workers) {
        std::vector<service::ScheduleRequest> batch;
        batch.push_back(syntheticRequest(
            "SuperSPARC", 800, 9, service::SchedulerKind::Portfolio));
        batch.push_back(syntheticRequest(
            "K5", 500, 2, service::SchedulerKind::Exact));
        service::MdesService svc({.num_workers = workers});
        return svc.runBatch(std::move(batch));
    };
    auto one = run(1);
    auto four = run(4);
    ASSERT_EQ(one.size(), four.size());
    for (size_t i = 0; i < one.size(); ++i) {
        ASSERT_TRUE(one[i].ok());
        ASSERT_TRUE(four[i].ok());
        ASSERT_EQ(one[i].schedules.size(), four[i].schedules.size());
        for (size_t b = 0; b < one[i].schedules.size(); ++b) {
            EXPECT_EQ(one[i].schedules[b].cycles,
                      four[i].schedules[b].cycles);
            EXPECT_EQ(one[i].schedules[b].length,
                      four[i].schedules[b].length);
        }
        EXPECT_EQ(one[i].exact.proven_optimal,
                  four[i].exact.proven_optimal);
        EXPECT_EQ(one[i].exact.nodes, four[i].exact.nodes);
    }
}

/** One block as the full race delivers it. */
struct RaceBlock
{
    BlockSchedule schedule;
    service::BlockOutcome outcome;
    /** The winner's certificate. */
    std::vector<uint32_t> options;
};

/**
 * The exact and portfolio modes with every candidate raced on every
 * block: list, then (portfolio) backward and, on branch-free blocks, the
 * flat modulo schedule its certificate admits, then the search from the
 * best of them under a node budget alone. A later candidate wins only
 * when strictly shorter, and the outcome rules are the ones the service
 * applied before its root bound could settle a block by itself.
 */
class FullRace
{
  public:
    FullRace(const LowMdes &low, uint64_t max_nodes)
        : list_(low), backward_(low), modulo_(low), search_(low),
          verifier_(low), max_nodes_(max_nodes)
    {
    }

    RaceBlock
    run(const Block &block, bool portfolio)
    {
        SchedStats stats;
        std::vector<uint32_t> list_options, backward_options,
            modulo_options;
        BlockSchedule list = list_.scheduleBlock(block, stats, &list_options);
        BlockSchedule back, flat;
        service::SchedulerKind winner = service::SchedulerKind::List;
        const BlockSchedule *best = &list;
        const std::vector<uint32_t> *best_options = &list_options;
        if (portfolio) {
            back = backward_.scheduleBlock(block, stats, &backward_options);
            if (back.length < best->length) {
                best = &back;
                best_options = &backward_options;
                winner = service::SchedulerKind::Backward;
            }
            bool branch_free = !block.instrs.empty();
            for (const auto &in : block.instrs)
                branch_free = branch_free && !in.is_branch;
            sched::ModuloSchedule ms;
            if (branch_free)
                ms = modulo_.schedule(block, stats);
            if (ms.success && !ms.times.empty()) {
                const auto [lo, hi] =
                    std::minmax_element(ms.times.begin(), ms.times.end());
                flat.length = *hi - *lo + 1;
                for (int32_t t : ms.times)
                    flat.cycles.push_back(t - *lo);
                flat.used_cascade.assign(block.instrs.size(), 0);
                if (flat.length < best->length
                    && verifier_.verify(block, flat, ms.options).ok()) {
                    best = &flat;
                    modulo_options = ms.options;
                    best_options = &modulo_options;
                    winner = service::SchedulerKind::Modulo;
                }
            }
            // Count the blocks where a search that spent nodes proves a
            // list schedule that backward beats: a completed search is
            // no proof over every legal schedule.
            if (back.length < list.length) {
                exact::ExactResult from_list = search(block, list);
                if (from_list.proven_optimal && from_list.nodes > 0
                    && back.length < from_list.schedule.length)
                    ++backward_beats_completed_search;
            }
        }
        exact::ExactResult er = search(block, *best);
        if (er.schedule.length < best->length) {
            best = &er.schedule;
            best_options = &er.options;
            winner = service::SchedulerKind::Exact;
        }
        RaceBlock r;
        r.schedule = *best;
        r.options = *best_options;
        r.outcome.winner = winner;
        r.outcome.length = best->length;
        r.outcome.lower_bound = std::min(er.lower_bound, best->length);
        r.outcome.proven_optimal = best->length <= er.lower_bound;
        r.outcome.budget_exhausted = er.budget_exhausted;
        r.outcome.nodes = er.nodes;
        return r;
    }

    uint64_t backward_beats_completed_search = 0;

  private:
    exact::ExactResult
    search(const Block &block, const BlockSchedule &incumbent)
    {
        SchedStats stats;
        exact::ExactOptions opts;
        opts.max_nodes = max_nodes_;
        opts.time_budget_us = 0;
        opts.incumbent = &incumbent;
        return search_.scheduleBlock(block, stats, opts);
    }

    ListScheduler list_;
    sched::BackwardListScheduler backward_;
    sched::ModuloScheduler modulo_;
    exact::ExactScheduler search_;
    sched::Verifier verifier_;
    uint64_t max_nodes_;
};

/** @p resp, a verified exact or portfolio response for @p program,
 * equals the full race block for block. Returns the blocks compared. */
size_t
expectMatchesFullRace(const service::ScheduleResponse &resp,
                      const sched::Program &program, FullRace &race,
                      bool portfolio, const std::string &what)
{
    EXPECT_TRUE(resp.ok()) << what << ": " << resp.error.message;
    if (!resp.ok())
        return 0;
    EXPECT_EQ(resp.schedules.size(), program.blocks.size()) << what;
    EXPECT_EQ(resp.outcomes.size(), program.blocks.size()) << what;
    if (resp.schedules.size() != program.blocks.size()
        || resp.outcomes.size() != program.blocks.size())
        return 0;
    sched::Verifier verifier(*resp.low);
    int mismatches = 0;
    for (size_t b = 0; b < program.blocks.size() && mismatches < 5; ++b) {
        const Block &block = program.blocks[b];
        const RaceBlock want = race.run(block, portfolio);
        const BlockSchedule &got = resp.schedules[b];
        const service::BlockOutcome &out = resp.outcomes[b];
        const service::BlockOutcome &ref = want.outcome;
        const bool same =
            got.cycles == want.schedule.cycles
            && got.used_cascade == want.schedule.used_cascade
            && got.issue_order == want.schedule.issue_order
            && got.length == want.schedule.length
            && out.winner == ref.winner && out.length == ref.length
            && out.lower_bound == ref.lower_bound
            && out.proven_optimal == ref.proven_optimal
            && out.budget_exhausted == ref.budget_exhausted
            && out.nodes == ref.nodes
            // The service verified its schedule against its own
            // certificate; the race's winner certifies it too.
            && verifier.verify(block, got, want.options).ok();
        EXPECT_TRUE(same)
            << what << " block " << b << ": served "
            << service::schedulerKindName(out.winner) << " length "
            << out.length << " bound " << out.lower_bound << " proven "
            << out.proven_optimal << " budget " << out.budget_exhausted
            << " nodes " << out.nodes << "; full race "
            << service::schedulerKindName(ref.winner) << " length "
            << ref.length << " bound " << ref.lower_bound << " proven "
            << ref.proven_optimal << " budget " << ref.budget_exhausted
            << " nodes " << ref.nodes;
        mismatches += same ? 0 : 1;
    }
    return program.blocks.size();
}

TEST(ExactService, BoundFirstRaceMatchesTheFullRace)
{
    // The service races backward and modulo only on blocks whose list
    // schedule the root bound leaves unproven, and starts the search
    // from the best candidate. Racing everything must deliver the same
    // blocks: only a root proof may skip a candidate.
    constexpr uint64_t kNodes = 2000;
    service::MdesService svc({.num_workers = 1});
    const service::SchedulerKind modes[] = {
        service::SchedulerKind::Exact, service::SchedulerKind::Portfolio};
    size_t blocks = 0;
    uint64_t beaten = 0;

    std::vector<std::pair<const char *, uint64_t>> paper = {
        {"PA7100", 1}, {"SuperSPARC", 1}, {"K5", 1},
        {"Pentium", 1}, {"Pentium", 2}, {"Pentium", 3}, {"Pentium", 4}};
    for (const auto &[name, seed] : paper) {
        for (service::SchedulerKind kind : modes) {
            service::ScheduleRequest req =
                syntheticRequest(name, 2000, seed, kind);
            req.exact_nodes = kNodes;
            req.verify = true;
            const auto resp = svc.wait(svc.submit(req));
            ASSERT_TRUE(resp.ok()) << resp.error.message;
            workload::WorkloadSpec spec = machines::byName(name)->workload;
            spec.num_ops = 2000;
            spec.seed = seed;
            const sched::Program program =
                workload::generate(spec, *resp.low);
            FullRace race(*resp.low, kNodes);
            const bool portfolio = kind == service::SchedulerKind::Portfolio;
            blocks += expectMatchesFullRace(
                resp, program, race, portfolio,
                std::string(name) + " seed " + std::to_string(seed) + " "
                    + service::schedulerKindName(kind));
            beaten += race.backward_beats_completed_search;
        }
    }

    // Random machines whose AND subtrees overlap, as inline sources with
    // .sasm workloads.
    Rng rng(0xB0B1);
    for (const OverlappingMachine &om :
         overlappingMachines(rng, 60, 120, 3, 9)) {
        const sched::Program generated =
            workload::generate(om.spec, om.low);
        for (service::SchedulerKind kind : modes) {
            service::ScheduleRequest req;
            req.source = om.source;
            req.sasm = workload::formatSasm(generated, om.low);
            req.scheduler = kind;
            req.exact_ms = 0;
            req.exact_nodes = kNodes;
            req.verify = true;
            const auto resp = svc.wait(svc.submit(req));
            ASSERT_TRUE(resp.ok()) << resp.error.message;
            const sched::Program program =
                workload::parseSasmOrThrow(req.sasm, *resp.low);
            FullRace race(*resp.low, kNodes);
            blocks += expectMatchesFullRace(
                resp, program, race, kind == service::SchedulerKind::Portfolio,
                om.low.machineName() + " "
                    + service::schedulerKindName(kind));
            beaten += race.backward_beats_completed_search;
        }
    }

    EXPECT_GT(blocks, 5000u);
    // Without such a block the sample could not tell a root proof from
    // any proof.
    EXPECT_GT(beaten, 0u);
}

} // namespace
} // namespace mdes
