#include "workload/workload.h"

#include <algorithm>
#include <numeric>

#include "support/diagnostics.h"
#include "support/rng.h"

namespace mdes::workload {

namespace {

/** A class mix entry resolved against the machine description. */
struct ResolvedClass
{
    uint32_t op_class;
    double weight;
    int num_srcs;
    int num_dsts;
    bool cascadable;
};

/**
 * Room for everything @p spec can generate: the last block may
 * overshoot num_ops by one block plus its branch, and no op has more
 * operands than the largest class.
 */
void
reserveFor(sched::ProgramBuilder &builder, const WorkloadSpec &spec)
{
    size_t ops = spec.num_ops + size_t(std::max(spec.max_block_size, 0)) + 1;
    size_t per_op = 0;
    for (const ClassMix &mix : spec.classes) {
        per_op = std::max(per_op, size_t(std::max(mix.num_srcs, 0)) +
                                      size_t(std::max(mix.num_dsts, 0)));
    }
    builder.reserve(ops, ops * per_op);
}

} // namespace

sched::Program
generate(const WorkloadSpec &spec, const lmdes::LowMdes &low)
{
    std::vector<ResolvedClass> body_classes;
    std::vector<ResolvedClass> branch_classes;
    for (const auto &mix : spec.classes) {
        uint32_t cls = low.findOpClass(mix.op_class);
        if (cls == kInvalidId) {
            throw MdesError("workload references unknown operation '" +
                            mix.op_class + "' for machine '" +
                            low.machineName() + "'");
        }
        ResolvedClass rc{cls, mix.weight, mix.num_srcs, mix.num_dsts,
                         mix.cascadable};
        (mix.is_branch ? branch_classes : body_classes).push_back(rc);
    }
    if (body_classes.empty())
        throw MdesError("workload has no non-branch operation classes");

    std::vector<double> body_weights, branch_weights;
    for (const auto &rc : body_classes)
        body_weights.push_back(rc.weight);
    for (const auto &rc : branch_classes)
        branch_weights.push_back(rc.weight);
    const double body_total =
        std::accumulate(body_weights.begin(), body_weights.end(), 0.0);
    const double branch_total =
        std::accumulate(branch_weights.begin(), branch_weights.end(), 0.0);

    Rng rng(spec.seed);
    sched::ProgramBuilder builder;
    reserveFor(builder, spec);
    size_t generated = 0;

    // Ring of recently written registers, biasing source selection
    // toward fresh values the way compiled code does.
    std::vector<int32_t> recent;
    const size_t kRecentWindow = 8;
    std::vector<int32_t> srcs, dsts;

    while (generated < spec.num_ops) {
        int body = int(rng.range(spec.min_block_size,
                                 spec.max_block_size));
        bool with_branch = !branch_classes.empty();
        for (int i = 0; i < body; ++i) {
            const ResolvedClass &rc =
                body_classes[rng.pickWeighted(body_weights, body_total)];
            srcs.clear();
            for (int s = 0; s < rc.num_srcs; ++s) {
                bool local = !recent.empty() &&
                             rng.chance(spec.src_locality);
                int32_t reg =
                    local ? recent[rng.below(recent.size())]
                          : int32_t(rng.below(uint64_t(spec.num_regs)));
                srcs.push_back(reg);
            }
            dsts.clear();
            for (int d = 0; d < rc.num_dsts; ++d) {
                int32_t reg =
                    int32_t(rng.below(uint64_t(spec.num_regs)));
                dsts.push_back(reg);
                recent.push_back(reg);
                if (recent.size() > kRecentWindow)
                    recent.erase(recent.begin());
            }
            builder.add(rc.op_class, srcs, dsts, rc.cascadable);
        }
        if (with_branch) {
            const ResolvedClass &rc = branch_classes[rng.pickWeighted(
                branch_weights, branch_total)];
            srcs.clear();
            for (int s = 0; s < rc.num_srcs; ++s) {
                bool local = !recent.empty() &&
                             rng.chance(spec.src_locality);
                int32_t reg =
                    local ? recent[rng.below(recent.size())]
                          : int32_t(rng.below(uint64_t(spec.num_regs)));
                srcs.push_back(reg);
            }
            builder.add(rc.op_class, srcs, {}, false, /*is_branch=*/true);
        }
        generated += builder.openOps();
        builder.endBlock();
    }
    return builder.finish();
}

sched::Program
generateLoops(const WorkloadSpec &spec, const lmdes::LowMdes &low)
{
    std::vector<ResolvedClass> body_classes;
    for (const auto &mix : spec.classes) {
        if (mix.is_branch)
            continue;
        uint32_t cls = low.findOpClass(mix.op_class);
        if (cls == kInvalidId) {
            throw MdesError("workload references unknown operation '" +
                            mix.op_class + "' for machine '" +
                            low.machineName() + "'");
        }
        body_classes.push_back({cls, mix.weight, mix.num_srcs,
                                mix.num_dsts, mix.cascadable});
    }
    if (body_classes.empty())
        throw MdesError("loop workload has no non-branch classes");
    std::vector<double> weights;
    for (const auto &rc : body_classes)
        weights.push_back(rc.weight);
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);

    Rng rng(spec.seed ^ 0x100BULL);
    sched::ProgramBuilder builder;
    reserveFor(builder, spec);
    size_t generated = 0;
    std::vector<int32_t> srcs, dsts;

    while (generated < spec.num_ops) {
        int size = int(rng.range(spec.min_block_size,
                                 spec.max_block_size));
        // A loop keeps a small set of live-across-iterations registers
        // (induction variables, accumulators); reading one of them
        // before it is rewritten creates a recurrence.
        int carried = int(rng.range(1, 3));
        for (int i = 0; i < size; ++i) {
            const ResolvedClass &rc =
                body_classes[rng.pickWeighted(weights, total)];
            srcs.clear();
            for (int s = 0; s < rc.num_srcs; ++s) {
                bool recurrent = rng.chance(0.25);
                int32_t reg =
                    recurrent
                        ? int32_t(rng.below(uint64_t(carried)))
                        : int32_t(carried +
                                  rng.below(uint64_t(
                                      spec.num_regs - carried)));
                srcs.push_back(reg);
            }
            dsts.clear();
            for (int d = 0; d < rc.num_dsts; ++d) {
                bool recurrent = rng.chance(0.2);
                int32_t reg =
                    recurrent
                        ? int32_t(rng.below(uint64_t(carried)))
                        : int32_t(carried +
                                  rng.below(uint64_t(
                                      spec.num_regs - carried)));
                dsts.push_back(reg);
            }
            builder.add(rc.op_class, srcs, dsts, rc.cascadable);
        }
        generated += builder.openOps();
        builder.endBlock();
    }
    return builder.finish();
}

} // namespace mdes::workload
