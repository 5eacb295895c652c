#include "core/minimize.h"
#include "core/transforms.h"
#include "support/diagnostics.h"
#include "support/faultsim.h"
#include "support/trace.h"

/**
 * @file
 * The canonical transformation pipeline, in the paper's section order:
 * redundancy elimination (5), usage-time shifting (7), hoisting and
 * OR-subtree sorting (8), with usage-check sorting applied once options
 * have reached their final shape. A second CSE pass re-merges entities
 * cloned by hoisting.
 *
 * Each pass runs under a trace span carrying its effect counters, so a
 * Chrome trace of a compile shows where pipeline time goes and what each
 * pass changed.
 */

namespace mdes {

PipelineConfig
PipelineConfig::all()
{
    PipelineConfig c;
    c.cse = true;
    c.redundant_options = true;
    c.time_shift = true;
    c.sort_usages = true;
    c.hoist = true;
    c.sort_or_trees = true;
    return c;
}

PipelineStats
runPipeline(Mdes &m, const PipelineConfig &config,
            const std::function<bool()> &cancel)
{
    // A pass leaves the description valid, so between passes is the safe
    // place both to abandon an expired request and to let faultsim model
    // a pass blowing up (the degradation path in compileSourceToLow).
    auto checkpoint = [&] {
        if (cancel && cancel())
            throw CancelledError("pipeline cancelled between passes");
        faultsim::maybeThrow(faultsim::Site::CompilePassThrow,
                             "transform pass failed");
    };

    PipelineStats stats;
    if (config.cse) {
        checkpoint();
        TRACE_SPAN_F(span, "pass/cse");
        stats.cse = eliminateRedundantInfo(m);
        span.counter("merged_options", stats.cse.merged_options);
        span.counter("merged_or_trees", stats.cse.merged_or_trees);
        span.counter("merged_trees", stats.cse.merged_trees);
        span.counter("removed_dead", stats.cse.removed_dead);
    }
    if (config.redundant_options) {
        checkpoint();
        TRACE_SPAN_F(span, "pass/redundant-options");
        stats.redundant_options_removed = removeRedundantOptions(m);
        span.counter("options_removed", stats.redundant_options_removed);
    }
    if (config.minimize) {
        checkpoint();
        TRACE_SPAN_F(span, "pass/minimize");
        minimizeUsages(m);
    }
    if (config.time_shift) {
        checkpoint();
        TRACE_SPAN_F(span, "pass/time-shift");
        const std::vector<int32_t> shifts =
            shiftUsageTimes(m, config.direction);
        for (int32_t s : shifts) {
            if (s != 0)
                ++stats.resources_shifted;
        }
        span.counter("resources_shifted", stats.resources_shifted);
    }
    if (config.hoist) {
        checkpoint();
        TRACE_SPAN_F(span, "pass/hoist");
        stats.usages_hoisted =
            hoistCommonUsages(m, &stats.hoist_skipped_overlapping);
        span.counter("usages_hoisted", stats.usages_hoisted);
        if (stats.usages_hoisted > 0) {
            // Re-merge clones created by hoisting and drop the originals
            // they replaced.
            auto cse = eliminateRedundantInfo(m);
            stats.cse.merged_options += cse.merged_options;
            stats.cse.merged_or_trees += cse.merged_or_trees;
            stats.cse.merged_trees += cse.merged_trees;
            stats.cse.removed_dead += cse.removed_dead;
        }
    }
    if (config.sort_usages) {
        checkpoint();
        TRACE_SPAN_F(span, "pass/sort-usages");
        sortUsageChecks(m, config.direction);
    }
    if (config.sort_or_trees) {
        checkpoint();
        TRACE_SPAN_F(span, "pass/sort-or-trees");
        stats.trees_reordered =
            sortOrSubtrees(m, &stats.sort_skipped_overlapping);
        span.counter("trees_reordered", stats.trees_reordered);
    }
    return stats;
}

} // namespace mdes
