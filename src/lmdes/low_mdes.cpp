#include "lmdes/low_mdes.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "lmdes/image.h"
#include "support/diagnostics.h"

namespace mdes::lmdes {

namespace {

/** Union @p mask into the entry for @p slot of a small (slot, mask)
 * accumulation list, appending when the slot is new. */
void
foldBySlot(std::vector<Check> &list, int32_t slot, uint64_t mask)
{
    for (auto &e : list) {
        if (e.slot == slot) {
            e.mask |= mask;
            return;
        }
    }
    list.push_back({slot, mask});
}

/** Derive the tree summaries and prefilter pool from the lowered pools.
 * With @p prefilter false, slot windows are still computed but every
 * prefilter slice stays empty (see LowerOptions::prefilter). */
void
computeTreeSummaries(v7::Contents &p, bool prefilter)
{
    p.tree_summaries.reserve(p.trees.size());

    std::vector<Check> inter;      // per-subtree mandatory accumulation
    std::vector<Check> opt_slots;  // one option's per-slot mask union
    std::vector<Check> tree_pf;    // this tree's merged prefilter

    for (const LowTree &t : p.trees) {
        TreeSummary sum;
        sum.first_prefilter = uint32_t(p.prefilter.size());
        tree_pf.clear();
        int32_t mn = INT32_MAX, mx = INT32_MIN;

        for (uint32_t s = 0; s < t.num_or_trees; ++s) {
            const LowOrTree &ot = p.or_trees[p.or_refs[t.first_or_ref + s]];
            if (ot.num_options == 0)
                continue; // unsatisfiable subtree; the walk rejects it
            if (!prefilter) {
                // Slot window only (needed for addressing); no
                // mandatory-bit intersection.
                for (uint32_t oi = 0; oi < ot.num_options; ++oi) {
                    const LowOption &opt =
                        p.options[p.option_refs[ot.first_option_ref + oi]];
                    for (uint32_t c = 0; c < opt.num_checks; ++c) {
                        const Check &check = p.checks[opt.first_check + c];
                        mn = std::min(mn, check.slot);
                        mx = std::max(mx, check.slot);
                    }
                }
                continue;
            }
            // Intersect the options' per-slot resource sets: bits every
            // option of this subtree must reserve are mandatory for the
            // whole tree.
            inter.clear();
            bool alive = true;
            for (uint32_t oi = 0; oi < ot.num_options; ++oi) {
                const LowOption &opt =
                    p.options[p.option_refs[ot.first_option_ref + oi]];
                opt_slots.clear();
                for (uint32_t c = 0; c < opt.num_checks; ++c) {
                    const Check &check = p.checks[opt.first_check + c];
                    mn = std::min(mn, check.slot);
                    mx = std::max(mx, check.slot);
                    foldBySlot(opt_slots, check.slot, check.mask);
                }
                if (!alive)
                    continue; // keep scanning for the min/max window
                if (oi == 0) {
                    inter = opt_slots;
                } else {
                    for (auto &e : inter) {
                        uint64_t other = 0;
                        for (const auto &o : opt_slots) {
                            if (o.slot == e.slot) {
                                other = o.mask;
                                break;
                            }
                        }
                        e.mask &= other;
                    }
                    std::erase_if(inter, [](const Check &e) {
                        return e.mask == 0;
                    });
                }
                alive = !inter.empty();
            }
            for (const auto &e : inter)
                foldBySlot(tree_pf, e.slot, e.mask);
        }

        std::sort(tree_pf.begin(), tree_pf.end(),
                  [](const Check &a, const Check &b) {
                      return a.slot < b.slot;
                  });
        p.prefilter.insert(p.prefilter.end(), tree_pf.begin(),
                           tree_pf.end());
        sum.num_prefilter = uint32_t(p.prefilter.size()) -
                            sum.first_prefilter;
        sum.min_slot = mn == INT32_MAX ? 0 : mn;
        sum.max_slot = mx == INT32_MIN ? 0 : mx;
        p.tree_summaries.push_back(sum);
    }
}

} // namespace

LowMdes
LowMdes::lower(const Mdes &m, const LowerOptions &opts)
{
    v7::Contents p;
    p.machine_name = m.name();
    p.num_resources = m.numResources();
    p.slot_words = std::max(1u, (m.numResources() + 63) / 64);
    p.packed = opts.pack_bit_vector;
    p.resource_names.reserve(m.numResources());
    for (uint32_t r = 0; r < m.numResources(); ++r)
        p.resource_names.push_back(m.resourceName(r));
    const int32_t words = int32_t(p.slot_words);

    // Options: one low record per core option (id-level sharing kept).
    for (const auto &opt : m.options()) {
        LowOption lo;
        lo.first_check = uint32_t(p.checks.size());
        if (opts.pack_bit_vector) {
            // Merge all usages in the same RU-map slot (same time and
            // same 64-resource word) into one check, keeping the
            // position of each slot's first appearance so the
            // usage-sorting transformation's order survives packing.
            for (const auto &u : opt.usages) {
                int32_t slot =
                    u.time * words + int32_t(u.resource / 64);
                uint64_t bit = uint64_t(1) << (u.resource % 64);
                bool merged = false;
                for (uint32_t c = lo.first_check; c < p.checks.size();
                     ++c) {
                    if (p.checks[c].slot == slot) {
                        p.checks[c].mask |= bit;
                        merged = true;
                        break;
                    }
                }
                if (!merged)
                    p.checks.push_back({slot, bit});
            }
        } else {
            for (const auto &u : opt.usages) {
                int32_t slot =
                    u.time * words + int32_t(u.resource / 64);
                p.checks.push_back(
                    {slot, uint64_t(1) << (u.resource % 64)});
            }
        }
        size_t n = p.checks.size() - lo.first_check;
        if (n > std::numeric_limits<uint16_t>::max())
            throw MdesError("option with more than 65535 checks");
        lo.num_checks = uint16_t(n);
        p.options.push_back(lo);
    }

    for (const auto &ot : m.orTrees()) {
        LowOrTree lt;
        lt.first_option_ref = uint32_t(p.option_refs.size());
        if (ot.options.size() > std::numeric_limits<uint16_t>::max())
            throw MdesError("OR-tree with more than 65535 options");
        lt.num_options = uint16_t(ot.options.size());
        for (OptionId o : ot.options)
            p.option_refs.push_back(o);
        p.or_trees.push_back(lt);
    }

    for (const auto &t : m.trees()) {
        LowTree lt;
        lt.first_or_ref = uint32_t(p.or_refs.size());
        if (t.or_trees.size() > std::numeric_limits<uint16_t>::max())
            throw MdesError("AND/OR-tree with more than 65535 subtrees");
        lt.num_or_trees = uint16_t(t.or_trees.size());
        for (OrTreeId ot : t.or_trees)
            p.or_refs.push_back(ot);
        p.trees.push_back(lt);
    }

    for (const auto &oc : m.opClasses())
        p.op_classes.push_back(
            {oc.name, oc.tree, oc.cascade_tree, oc.latency, oc.comment});
    for (const auto &bp : m.bypasses())
        p.bypasses.push_back({bp.from, bp.to, bp.latency});
    computeTreeSummaries(p, opts.prefilter);

    auto image = v7::writeImage(p);
    // The checksum was just computed over these bytes; everything else
    // is validated as for any other image.
    return fromImage(image->data(), image->size() * sizeof(uint64_t),
                     ImageSource{image, /*verify_checksum=*/false});
}

std::string
LowMdes::resourceName(uint32_t r) const
{
    if (r < resource_names_.size())
        return resource_names_[r];
    std::string name = "r";
    name += std::to_string(r);
    return name;
}

int32_t
LowMdes::flowLatency(uint32_t producer, uint32_t consumer) const
{
    for (const auto &bp : bypasses()) {
        if (bp.from == producer && bp.to == consumer)
            return bp.latency;
    }
    return op_classes_[producer].latency;
}

uint32_t
LowMdes::findOpClass(const std::string &name) const
{
    for (size_t i = 0; i < op_classes_.size(); ++i) {
        if (op_classes_[i].name == name)
            return uint32_t(i);
    }
    return kInvalidId;
}

uint64_t
LowMdes::expandedOptionCount(uint32_t tree) const
{
    const LowTree &t = trees()[tree];
    uint64_t product = 1;
    for (uint32_t i = 0; i < t.num_or_trees; ++i)
        product *= orTrees()[orRefs()[t.first_or_ref + i]].num_options;
    return product;
}

uint64_t
LowMdes::leafOptionCount(uint32_t tree) const
{
    const LowTree &t = trees()[tree];
    uint64_t sum = 0;
    for (uint32_t i = 0; i < t.num_or_trees; ++i)
        sum += orTrees()[orRefs()[t.first_or_ref + i]].num_options;
    return sum;
}

MemoryBreakdown
LowMdes::memory() const
{
    MemoryBreakdown mem;
    mem.check_bytes = checks().size() * 8;
    mem.option_bytes = options().size() * 8;
    mem.option_ref_bytes = optionRefs().size() * 4;
    mem.or_tree_bytes = orTrees().size() * 8;
    mem.or_ref_bytes = orRefs().size() * 4;
    mem.tree_bytes = trees().size() * 8;
    return mem;
}

bool
LowMdes::operator==(const LowMdes &other) const
{
    auto eq = [](auto a, auto b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    return machine_name_ == other.machine_name_ &&
           num_resources_ == other.num_resources_ &&
           slot_words_ == other.slot_words_ && packed_ == other.packed_ &&
           resource_names_ == other.resource_names_ &&
           op_classes_ == other.op_classes_ &&
           eq(checks_, other.checks_) && eq(options_, other.options_) &&
           eq(option_refs_, other.option_refs_) &&
           eq(or_trees_, other.or_trees_) && eq(or_refs_, other.or_refs_) &&
           eq(trees_, other.trees_) &&
           eq(tree_summaries_, other.tree_summaries_) &&
           eq(prefilter_, other.prefilter_) &&
           eq(bypasses_, other.bypasses_);
}

} // namespace mdes::lmdes
