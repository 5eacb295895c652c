#ifndef MDES_RUMAP_CHECKER_H
#define MDES_RUMAP_CHECKER_H

/**
 * @file
 * The resource-constraint checker, rebuilt as a flat query engine.
 *
 * One algorithm serves both representations: an AND/OR-tree is processed
 * as an outer loop over its OR subtrees around the classic OR-tree check
 * (exactly the implementation the paper describes in Section 3), and the
 * traditional OR-tree representation is the one-subtree special case.
 *
 * Short-circuiting: within an option, probing stops at the first busy
 * usage; within an OR subtree, at the first available option; across the
 * AND level, at the first subtree with no available option.
 *
 * The probe hot path is organized around three ideas:
 *
 *  1. *Slot addressing.* The issue cycle is normalized exactly once per
 *     attempt using the tree's precomputed slot window
 *     (lmdes::TreeSummary); individual checks then address the RU map
 *     through raw slot accessors - direct indexing when the window is
 *     fully in range (linear maps) or a single compare-and-wrap when the
 *     window fits inside the initiation interval (modulo maps). The
 *     general path still normalizes each check only once.
 *
 *  2. *Epoch-stamped pending overlay.* Probes of options already chosen
 *     in the current attempt live in a slot-indexed overlay whose
 *     entries are stamped with the attempt's epoch, so testing "does an
 *     earlier subtree already hold these resources?" is one word load -
 *     not a linear scan - and starting a new attempt is one counter
 *     increment, with no clearing.
 *
 *  3. *Collision-vector prefilter.* Before any option is walked, the
 *     tree's mandatory (slot, mask) pairs - resources every option of
 *     some OR subtree must reserve - are tested against the map; one
 *     busy bit proves no combination can fit and rejects the attempt
 *     outright (CheckStats::prefilter_hits).
 *
 * tryReserve() and wouldFit() are two instantiations of one template
 * probe, so the pure query can never diverge from the reserving one.
 *
 * Statistics mirror the paper's metrics: scheduling attempts, options
 * checked per attempt, and resource checks (RU-map probes, including
 * prefilter probes) per attempt.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "lmdes/low_mdes.h"
#include "rumap/ru_map.h"
#include "support/histogram.h"

namespace mdes::rumap {

/** One reservation made by a successful attempt (map-normalized). */
struct Reservation
{
    int32_t cycle;
    uint64_t mask;
};

/** Counters accumulated across scheduling attempts. */
struct CheckStats
{
    uint64_t attempts = 0;
    uint64_t successes = 0;
    uint64_t options_checked = 0;
    /** RU-map probes, prefilter probes included. */
    uint64_t resource_checks = 0;
    /** Attempts rejected by the collision-vector prefilter (no option
     * was walked; those attempts record zero options checked). */
    uint64_t prefilter_hits = 0;
    /** Attempts probed via the direct-index / single-wrap slot fast
     * path (the rest took the general normalize-per-check path). */
    uint64_t probe_fastpath = 0;

    /** Options checked in each attempt (the paper's Figure 2 series). */
    Histogram options_per_attempt;
    /** Options checked per *successful* attempt. */
    Histogram options_per_success;
    /** Scheduling attempts per AND/OR-tree (for the option-count
     * breakdowns of Tables 1-4). Pre-sized by sizeFor(); the checker
     * sizes it to the machine's tree count on first use otherwise. */
    std::vector<uint64_t> attempts_per_tree;
    /**
     * Conflict heat table: failed RU-map probes per resource instance
     * (indexed by ResourceId), identifying the contended resources.
     * Recorded only while trace::enabled() - the conflict path then pays
     * one mask decomposition per failed check; otherwise the probe loop
     * is untouched. Pre-sized by sizeFor(); sized to the machine's
     * resource words on first conflict otherwise.
     */
    std::vector<uint64_t> conflicts_per_resource;

    /** Pre-size the per-tree / per-resource tables from @p low (tree and
     * resource counts are known up front), so the probe loop never
     * grows them. */
    void sizeFor(const lmdes::LowMdes &low);

    double
    avgOptionsPerAttempt() const
    {
        return attempts ? double(options_checked) / double(attempts) : 0;
    }
    double
    avgChecksPerAttempt() const
    {
        return attempts ? double(resource_checks) / double(attempts) : 0;
    }

    void merge(const CheckStats &other);
};

/**
 * Checks and reserves resource constraints against an RU map.
 *
 * The checker accumulates the chosen options' probes during an attempt
 * and tests later subtrees against them as well as the RU map, so the
 * AND/OR evaluation stays exact even for descriptions whose subtrees
 * share resources (the four shipped machines keep subtrees disjoint, in
 * which case this has no effect on results).
 */
class Checker
{
  public:
    /** Builds the flat probe program for @p low (see FlatTree). */
    explicit Checker(const lmdes::LowMdes &low);

    /**
     * One scheduling attempt: try to place an operation using AND/OR-tree
     * @p tree with issue cycle @p cycle. On success the resources of the
     * chosen options are reserved in @p ru.
     *
     * @param chosen_options when non-null, receives the option id chosen
     *        for each OR subtree (in subtree order) on success: the
     *        schedulers' certificate (sched::Certificate).
     * @param reserved when non-null, receives the reservations made on
     *        success (for later releaseSlot() - modulo-scheduling
     *        unscheduling; Reservation::cycle is the map-normalized
     *        slot).
     * @return true when the operation was placed.
     */
    bool tryReserve(uint32_t tree, int32_t cycle, RuMap &ru,
                    CheckStats &stats,
                    std::vector<uint32_t> *chosen_options = nullptr,
                    std::vector<Reservation> *reserved = nullptr);

    /**
     * Probe-only variant: the same template probe as tryReserve(), but
     * it never reserves and leaves no trace in the checker or the map -
     * a wouldFit() call between two tryReserve()s changes nothing.
     * Pass @p stats to record the attempt with full accounting
     * (attempts, checks, conflict tracing); by default it records
     * nothing. Used by the exact search's propagation probes.
     */
    bool wouldFit(uint32_t tree, int32_t cycle, const RuMap &ru,
                  CheckStats *stats = nullptr) const;

    const lmdes::LowMdes &low() const { return low_; }

  private:
    struct PendingCheck
    {
        int32_t slot;
        uint64_t mask;
    };

    // ---- Flat probe program -----------------------------------------
    //
    // The low-level description shares options and OR subtrees between
    // trees (CSE), so a probe chases tree -> or_refs -> or_trees ->
    // option_refs -> options -> checks: five dependent loads before the
    // first resource word is tested. The constructor flattens each
    // tree's whole probe sequence into contiguous arrays - one record
    // load per tree, then strictly sequential scans - trading a few
    // kilobytes of duplication for a pointer-chase-free hot loop. The
    // serialized description (and its memory accounting) is untouched;
    // this is a per-checker runtime structure.

    /** Per-tree header: subtree and prefilter slices plus the slot
     * window (a denormalized lmdes::TreeSummary). */
    struct FlatTree
    {
        uint32_t first_sub;
        uint32_t num_subs;
        uint32_t first_pf;
        uint32_t num_pf;
        int32_t min_slot;
        int32_t max_slot;
    };
    /** One OR subtree: a slice of flat_opts_. */
    struct FlatSub
    {
        uint32_t first_opt;
        uint32_t num_opts;
    };
    /** One option: its original id (for chosen-option reporting) and a
     * slice of flat_checks_. */
    struct FlatOpt
    {
        uint32_t opt_id;
        uint32_t first_check;
        uint32_t num_checks;
    };

    void buildFlat();

    template <bool Commit, class Addr>
    bool walk(const FlatTree &ft, const Addr &addr, RuMap *mut,
              CheckStats *stats, std::vector<uint32_t> *chosen_options,
              std::vector<Reservation> *reserved,
              int32_t overlay_base) const;

    template <bool Commit>
    bool probe(uint32_t tree, int32_t cycle, const RuMap &ru,
               RuMap *mut, CheckStats *stats,
               std::vector<uint32_t> *chosen_options,
               std::vector<Reservation> *reserved) const;

    /** The pending mask stamped at normalized @p slot this attempt. */
    uint64_t
    pendingMask(int32_t slot, int32_t overlay_base) const
    {
        size_t idx = size_t(slot - overlay_base);
        return overlay_epoch_[idx] == epoch_ ? overlay_mask_[idx] : 0;
    }

    /** Stamp @p mask at normalized @p slot in the attempt overlay and
     * remember it for commit. */
    void
    addPending(int32_t slot, uint64_t mask, int32_t overlay_base) const
    {
        size_t idx = size_t(slot - overlay_base);
        overlay_mask_[idx] = overlay_epoch_[idx] == epoch_
                                 ? overlay_mask_[idx] | mask
                                 : mask;
        overlay_epoch_[idx] = epoch_;
        pending_.push_back({slot, mask});
    }

    /** Attribute a failed probe at normalized slot @p at to its busy
     * resource instances (trace-enabled conflict profiling). */
    void recordConflict(CheckStats &stats, int32_t at, uint64_t busy)
        const;

    const lmdes::LowMdes &low_;

    // Flat probe program, indexed by tree id (see FlatTree).
    std::vector<FlatTree> flat_trees_;
    std::vector<FlatSub> flat_subs_;
    std::vector<FlatOpt> flat_opts_;
    std::vector<lmdes::Check> flat_checks_;
    /** The description's prefilter pool, viewed in place: it points
     * straight into the LowMdes's image (kept alive by the shared_ptr
     * holding low_), so building a Checker copies no prefilter bytes. */
    std::span<const lmdes::Check> flat_pf_;
    /** Each option's first check, parallel to flat_opts_: failing
     * options almost always fail on their first probe (short-circuit),
     * so the option scan runs over this dense stream and only
     * surviving candidates touch FlatOpt / flat_checks_. */
    std::vector<lmdes::Check> flat_first_;

    // Per-attempt scratch (mutable: wouldFit() uses the same machinery
    // but is observably pure - the next attempt's epoch bump invalidates
    // everything it stamped).
    /** Probes of options already chosen in the current attempt. */
    mutable std::vector<PendingCheck> pending_;
    /** Epoch-stamped pending overlay, indexed by slot - overlay base;
     * entries from earlier attempts are dead by epoch mismatch, so
     * attempts never clear it. */
    mutable std::vector<uint64_t> overlay_epoch_;
    mutable std::vector<uint64_t> overlay_mask_;
    mutable uint64_t epoch_ = 0;
};

} // namespace mdes::rumap

#endif // MDES_RUMAP_CHECKER_H
