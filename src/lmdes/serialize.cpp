#include <algorithm>
#include <atomic>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <type_traits>

#include "lmdes/image.h"
#include "lmdes/low_mdes.h"
#include "support/diagnostics.h"

/**
 * @file
 * Binary serialization of the low-level representation, so a translated
 * and optimized MDES can be shipped to and loaded by the compiler without
 * reparsing or reoptimizing (the paper's "minimize the time required to
 * load the MDES into memory").
 *
 * Format v7 (layout in image.h): a position-independent image -
 *
 *   [Header: magic "LMDS", version, image_bytes, checksum,
 *    scalars, section table]  [pad to 256]  [64-byte-aligned sections]
 *
 * with every POD pool at a fixed stride and all text in one string pool,
 * so the image is attached in place wherever it lives: the buffer
 * lower() wrote, the buffer load() read, or an mmap'ed store artifact.
 * Earlier formats (v4-v6) were length-prefixed byte streams that always
 * required a full deserialization; they are read by no one - the store
 * silently recompiles on version mismatch.
 *
 * Attaching is paranoid in the same spirit v4's ByteReader was: the
 * image size is bounded up front, the section table is checked for
 * entries that overlap, fall outside the image, or are misaligned for
 * their element stride, every cross-reference between pools is
 * validated, and - new in v7 - Check contents themselves are validated
 * (mask bits within num_resources for the check's RU-map word, slots
 * inside the owning tree's summary window) so a checksum-valid but
 * crafted image can never drive the flat checker out of bounds. Every
 * error message states what was found versus what was expected.
 */

namespace mdes::lmdes {

namespace {

std::atomic<uint64_t> g_full_deserializations{0};

uint64_t
fnv1a(const char *data, size_t n)
{
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= uint8_t(data[i]);
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex(uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx", (unsigned long long)v);
    return buf;
}

/** Render possibly-binary magic bytes for an error message. */
std::string
printableMagic(const char m[4])
{
    std::string out;
    for (int i = 0; i < 4; ++i) {
        unsigned char c = (unsigned char)m[i];
        if (c >= 0x20 && c < 0x7f) {
            out += char(c);
        } else {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\x%02x", c);
            out += buf;
        }
    }
    return out;
}

/** Element stride of each section, indexed by v7::SectionId. */
constexpr size_t kElemSize[v7::kNumSections] = {
    sizeof(Check),         // kChecks
    sizeof(LowOption),     // kOptions
    sizeof(uint32_t),      // kOptionRefs
    sizeof(LowOrTree),     // kOrTrees
    sizeof(uint32_t),      // kOrRefs
    sizeof(LowTree),       // kTrees
    sizeof(LowBypass),     // kBypasses
    sizeof(TreeSummary),   // kTreeSummaries
    sizeof(Check),         // kPrefilter
    sizeof(v7::OpClassRec),// kOpClasses
    sizeof(v7::StrRef),    // kResourceNames
    1,                     // kStringPool
};

constexpr const char *kSectionNames[v7::kNumSections] = {
    "checks",        "options",   "option-refs",    "or-trees",
    "or-refs",       "trees",     "bypasses",       "tree-summaries",
    "prefilter",     "op-classes","resource-names", "string-pool",
};

template <typename T>
std::span<const T>
sectionSpan(const char *base, const v7::Section &s)
{
    return {reinterpret_cast<const T *>(base + s.offset),
            size_t(s.bytes) / sizeof(T)};
}

/**
 * ByteReader-style paranoia for the v7 section table: every entry must
 * lie inside [kDataStart, image_bytes), start on a kAlign boundary, be a
 * whole number of elements, and no two non-empty sections may overlap.
 * A corrupt entry is reported with the offending values, never used.
 */
void
validateSectionTable(const v7::Header &hdr)
{
    struct Extent
    {
        uint64_t off, end;
        uint32_t id;
    };
    std::vector<Extent> extents;
    for (uint32_t i = 0; i < v7::kNumSections; ++i) {
        const v7::Section &s = hdr.sections[i];
        if (s.offset % v7::kAlign != 0)
            throw MdesError(std::string("LMDES section '") +
                            kSectionNames[i] + "' is misaligned: offset " +
                            std::to_string(s.offset) + " is not a multiple "
                            "of " + std::to_string(v7::kAlign));
        if (s.offset < v7::kDataStart || s.offset > hdr.image_bytes ||
            s.bytes > hdr.image_bytes - s.offset)
            throw MdesError(std::string("LMDES section '") +
                            kSectionNames[i] + "' falls outside the image: "
                            "offset " + std::to_string(s.offset) + " + " +
                            std::to_string(s.bytes) + " bytes vs image of " +
                            std::to_string(hdr.image_bytes));
        if (s.bytes % kElemSize[i] != 0)
            throw MdesError(std::string("LMDES section '") +
                            kSectionNames[i] + "' has " +
                            std::to_string(s.bytes) + " bytes, not a "
                            "multiple of its " +
                            std::to_string(kElemSize[i]) +
                            "-byte element");
        if (s.bytes)
            extents.push_back({s.offset, s.offset + s.bytes, i});
    }
    std::sort(extents.begin(), extents.end(),
              [](const Extent &a, const Extent &b) {
                  return a.off < b.off;
              });
    for (size_t i = 1; i < extents.size(); ++i) {
        if (extents[i].off < extents[i - 1].end)
            throw MdesError(
                std::string("LMDES sections '") +
                kSectionNames[extents[i - 1].id] + "' and '" +
                kSectionNames[extents[i].id] + "' overlap (at offset " +
                std::to_string(extents[i].off) + ")");
    }
}

/**
 * The v7 half of the load-path bugfix: validate Check *contents*, not
 * just pool cross-references. A checksum-valid image whose checks carry
 * resource bits >= num_resources (for the check's RU-map word) or wild
 * slots would otherwise load cleanly and index out of range inside the
 * flat checker.
 */
void
validateCheckFields(std::span<const Check> list, const char *what,
                    uint32_t num_resources, uint32_t slot_words)
{
    const int32_t words = int32_t(slot_words);
    for (size_t i = 0; i < list.size(); ++i) {
        const Check &c = list[i];
        if (c.slot > v7::kMaxSlotMagnitude ||
            c.slot < -v7::kMaxSlotMagnitude)
            throw MdesError(std::string("LMDES ") + what + " entry " +
                            std::to_string(i) + " has implausible slot " +
                            std::to_string(c.slot));
        int32_t w = c.slot % words;
        if (w < 0)
            w += words;
        const uint32_t base_r = uint32_t(w) * 64;
        uint64_t allowed = 0;
        if (num_resources > base_r) {
            uint32_t nbits = std::min<uint32_t>(64, num_resources - base_r);
            allowed = nbits == 64 ? ~uint64_t(0)
                                  : (uint64_t(1) << nbits) - 1;
        }
        if (c.mask & ~allowed)
            throw MdesError(std::string("LMDES ") + what + " entry " +
                            std::to_string(i) + " mask " + hex(c.mask) +
                            " selects resources beyond the " +
                            std::to_string(num_resources) +
                            " declared (RU-map word " + std::to_string(w) +
                            ")");
    }
}

/**
 * Copy @p recs into the zeroed section at @p dst: whole when the record
 * type has no padding, else one named field at a time so the padding
 * stays zero.
 */
template <typename T, typename... F>
void
putRecords(char *dst, const std::vector<T> &recs, F T::*...fields)
{
    if constexpr (sizeof...(fields) == 0) {
        static_assert(std::has_unique_object_representations_v<T>);
        if (!recs.empty())
            std::memcpy(dst, recs.data(), recs.size() * sizeof(T));
    } else {
        for (const T &r : recs) {
            const char *rec = reinterpret_cast<const char *>(&r);
            ((std::memcpy(dst + (reinterpret_cast<const char *>(&(r.*fields)) -
                                 rec),
                          &(r.*fields), sizeof(r.*fields))),
             ...);
            dst += sizeof(T);
        }
    }
}

} // namespace

uint64_t
fullDeserializations()
{
    return g_full_deserializations.load(std::memory_order_relaxed);
}

std::shared_ptr<const std::vector<uint64_t>>
v7::writeImage(const Contents &desc)
{
    // Gather the variable-length text into one pool so every other
    // section has a fixed stride.
    std::string pool;
    auto intern = [&pool](const std::string &s) {
        v7::StrRef r{uint32_t(pool.size()), uint32_t(s.size())};
        pool += s;
        return r;
    };
    const v7::StrRef mname = intern(desc.machine_name);
    std::vector<v7::OpClassRec> class_recs;
    class_recs.reserve(desc.op_classes.size());
    for (const auto &oc : desc.op_classes) {
        v7::OpClassRec rec;
        const v7::StrRef n = intern(oc.name);
        const v7::StrRef c = intern(oc.comment);
        rec.name_off = n.off;
        rec.name_len = n.len;
        rec.tree = oc.tree;
        rec.cascade_tree = oc.cascade_tree;
        rec.latency = oc.latency;
        rec.comment_off = c.off;
        rec.comment_len = c.len;
        class_recs.push_back(rec);
    }
    std::vector<v7::StrRef> name_refs;
    name_refs.reserve(desc.resource_names.size());
    for (const auto &name : desc.resource_names)
        name_refs.push_back(intern(name));

    // Lay the sections out back to back, each starting on a kAlign
    // boundary.
    v7::Header hdr{};
    std::memcpy(hdr.magic, v7::kMagic, 4);
    hdr.version = v7::kVersion;
    hdr.num_resources = desc.num_resources;
    hdr.slot_words = desc.slot_words;
    hdr.packed = desc.packed ? 1 : 0;
    hdr.machine_name_off = mname.off;
    hdr.machine_name_len = mname.len;
    hdr.section_count = v7::kNumSections;
    uint64_t off = v7::kDataStart;
    auto place = [&](v7::SectionId id, uint64_t bytes) {
        hdr.sections[id] = {off, bytes};
        off = (off + bytes + v7::kAlign - 1) / v7::kAlign * v7::kAlign;
    };
    place(v7::kChecks, desc.checks.size() * sizeof(Check));
    place(v7::kOptions, desc.options.size() * sizeof(LowOption));
    place(v7::kOptionRefs, desc.option_refs.size() * sizeof(uint32_t));
    place(v7::kOrTrees, desc.or_trees.size() * sizeof(LowOrTree));
    place(v7::kOrRefs, desc.or_refs.size() * sizeof(uint32_t));
    place(v7::kTrees, desc.trees.size() * sizeof(LowTree));
    place(v7::kBypasses, desc.bypasses.size() * sizeof(LowBypass));
    place(v7::kTreeSummaries,
          desc.tree_summaries.size() * sizeof(TreeSummary));
    place(v7::kPrefilter, desc.prefilter.size() * sizeof(Check));
    place(v7::kOpClasses, class_recs.size() * sizeof(v7::OpClassRec));
    place(v7::kResourceNames, name_refs.size() * sizeof(v7::StrRef));
    place(v7::kStringPool, pool.size());
    hdr.image_bytes = off; // a multiple of kAlign, so of 8

    auto buf = std::make_shared<std::vector<uint64_t>>(off / 8);
    char *img = reinterpret_cast<char *>(buf->data());
    auto put = [&](v7::SectionId id) {
        return img + hdr.sections[id].offset;
    };
    putRecords(put(v7::kChecks), desc.checks, &Check::slot, &Check::mask);
    putRecords(put(v7::kOptions), desc.options, &LowOption::first_check,
               &LowOption::num_checks);
    putRecords(put(v7::kOptionRefs), desc.option_refs);
    putRecords(put(v7::kOrTrees), desc.or_trees,
               &LowOrTree::first_option_ref, &LowOrTree::num_options);
    putRecords(put(v7::kOrRefs), desc.or_refs);
    putRecords(put(v7::kTrees), desc.trees, &LowTree::first_or_ref,
               &LowTree::num_or_trees);
    putRecords(put(v7::kBypasses), desc.bypasses);
    putRecords(put(v7::kTreeSummaries), desc.tree_summaries);
    putRecords(put(v7::kPrefilter), desc.prefilter, &Check::slot,
               &Check::mask);
    putRecords(put(v7::kOpClasses), class_recs);
    putRecords(put(v7::kResourceNames), name_refs);
    std::memcpy(put(v7::kStringPool), pool.data(), pool.size());

    hdr.checksum = fnv1a(img + sizeof(hdr), off - sizeof(hdr));
    std::memcpy(img, &hdr, sizeof(hdr));
    return buf;
}

void
LowMdes::save(std::ostream &os) const
{
    os.write(image_.data(), std::streamsize(image_.size()));
}

LowMdes
LowMdes::fromImage(const void *vbase, size_t size, const ImageSource &src)
{
    const char *base = static_cast<const char *>(vbase);
    if (!src.backing)
        throw std::invalid_argument(
            "LowMdes::fromImage needs a backing that owns the image");
    if (reinterpret_cast<uintptr_t>(vbase) % 8 != 0)
        throw MdesError("LMDES image base is not 8-byte aligned");
    if (size < sizeof(v7::Header))
        throw MdesError("truncated LMDES image: " + std::to_string(size) +
                        " bytes is smaller than the " +
                        std::to_string(sizeof(v7::Header)) +
                        "-byte header");
    v7::Header hdr;
    std::memcpy(&hdr, base, sizeof(hdr));
    if (std::memcmp(hdr.magic, v7::kMagic, 4) != 0)
        throw MdesError("not an LMDES image: magic is '" +
                        printableMagic(hdr.magic) + "', expected 'LMDS'");
    if (hdr.version != v7::kVersion)
        throw MdesVersionError("unsupported LMDES version " +
                               std::to_string(hdr.version) + ", expected " +
                               std::to_string(v7::kVersion));
    if (hdr.image_bytes != size)
        throw MdesError("LMDES image size mismatch: header claims " +
                        std::to_string(hdr.image_bytes) + " bytes, have " +
                        std::to_string(size));
    if (hdr.section_count != v7::kNumSections)
        throw MdesError("LMDES section count " +
                        std::to_string(hdr.section_count) + ", expected " +
                        std::to_string(v7::kNumSections));
    if (src.verify_checksum) {
        const uint64_t computed =
            fnv1a(base + sizeof(hdr), size - sizeof(hdr));
        if (hdr.checksum != computed)
            throw MdesError("LMDES checksum mismatch: stored " +
                            hex(hdr.checksum) + ", computed " +
                            hex(computed));
    }
    if (hdr.slot_words == 0 || hdr.slot_words > 64)
        throw MdesError("implausible slot_words " +
                        std::to_string(hdr.slot_words) +
                        " in LMDES image (expected 1..64)");
    if (hdr.num_resources > hdr.slot_words * 64)
        throw MdesError("LMDES resource count " +
                        std::to_string(hdr.num_resources) +
                        " does not fit " + std::to_string(hdr.slot_words) +
                        " RU-map word(s)");
    validateSectionTable(hdr);

    LowMdes low;
    low.num_resources_ = hdr.num_resources;
    low.slot_words_ = hdr.slot_words;
    low.packed_ = hdr.packed != 0;
    low.backing_ = src.backing;
    low.image_ = {base, size};
    low.checks_ = sectionSpan<Check>(base, hdr.sections[v7::kChecks]);
    low.options_ = sectionSpan<LowOption>(base, hdr.sections[v7::kOptions]);
    low.option_refs_ =
        sectionSpan<uint32_t>(base, hdr.sections[v7::kOptionRefs]);
    low.or_trees_ = sectionSpan<LowOrTree>(base, hdr.sections[v7::kOrTrees]);
    low.or_refs_ = sectionSpan<uint32_t>(base, hdr.sections[v7::kOrRefs]);
    low.trees_ = sectionSpan<LowTree>(base, hdr.sections[v7::kTrees]);
    low.tree_summaries_ =
        sectionSpan<TreeSummary>(base, hdr.sections[v7::kTreeSummaries]);
    low.prefilter_ = sectionSpan<Check>(base, hdr.sections[v7::kPrefilter]);
    low.bypasses_ =
        sectionSpan<LowBypass>(base, hdr.sections[v7::kBypasses]);

    // Materialize the text: a (off, len) slice of the pool per string.
    const std::span<const char> pool =
        sectionSpan<char>(base, hdr.sections[v7::kStringPool]);
    auto poolStr = [&pool](uint32_t off, uint32_t len, const char *what) {
        if (uint64_t(off) + len > pool.size())
            throw MdesError(std::string("LMDES ") + what +
                            " string reference [" + std::to_string(off) +
                            ", +" + std::to_string(len) +
                            ") falls outside the " +
                            std::to_string(pool.size()) +
                            "-byte string pool");
        return std::string(pool.data() + off, len);
    };
    low.machine_name_ =
        poolStr(hdr.machine_name_off, hdr.machine_name_len, "machine-name");
    const auto name_refs =
        sectionSpan<v7::StrRef>(base, hdr.sections[v7::kResourceNames]);
    if (name_refs.size() != low.num_resources_)
        throw MdesError("LMDES resource-name count " +
                        std::to_string(name_refs.size()) +
                        " does not match resource count " +
                        std::to_string(low.num_resources_));
    low.resource_names_.reserve(name_refs.size());
    for (const auto &r : name_refs)
        low.resource_names_.push_back(poolStr(r.off, r.len,
                                              "resource-name"));
    const auto class_recs =
        sectionSpan<v7::OpClassRec>(base, hdr.sections[v7::kOpClasses]);
    low.op_classes_.reserve(class_recs.size());
    for (const auto &rec : class_recs) {
        LowOpClass oc;
        oc.name = poolStr(rec.name_off, rec.name_len, "op-class name");
        oc.tree = rec.tree;
        oc.cascade_tree = rec.cascade_tree;
        oc.latency = rec.latency;
        oc.comment =
            poolStr(rec.comment_off, rec.comment_len, "op-class comment");
        low.op_classes_.push_back(std::move(oc));
    }

    // Validate every cross-reference so a corrupt image cannot cause
    // out-of-range indexing later.
    const auto checks = low.checks_;
    const auto options = low.options_;
    const auto option_refs = low.option_refs_;
    const auto or_trees = low.or_trees_;
    const auto or_refs = low.or_refs_;
    const auto trees = low.trees_;
    const auto summaries = low.tree_summaries_;
    const auto prefilter = low.prefilter_;
    for (const auto &o : options) {
        if (size_t(o.first_check) + o.num_checks > checks.size())
            throw MdesError("LMDES option references bad check range");
    }
    for (const auto &t : or_trees) {
        if (size_t(t.first_option_ref) + t.num_options >
            option_refs.size())
            throw MdesError("LMDES OR-tree references bad option range");
    }
    for (uint32_t r : option_refs) {
        if (r >= options.size())
            throw MdesError("LMDES option reference out of range");
    }
    for (const auto &t : trees) {
        if (size_t(t.first_or_ref) + t.num_or_trees > or_refs.size())
            throw MdesError("LMDES tree references bad OR range");
    }
    for (uint32_t r : or_refs) {
        if (r >= or_trees.size())
            throw MdesError("LMDES OR reference out of range");
    }
    for (const auto &oc : low.op_classes_) {
        if (oc.tree >= trees.size())
            throw MdesError("LMDES op class references bad tree");
        if (oc.cascade_tree != kInvalidId &&
            oc.cascade_tree >= trees.size())
            throw MdesError("LMDES op class references bad cascade tree");
    }
    for (const auto &bp : low.bypasses_) {
        if (bp.from >= low.op_classes_.size() ||
            bp.to >= low.op_classes_.size())
            throw MdesError("LMDES bypass references bad operation");
    }
    if (summaries.size() != trees.size())
        throw MdesError("LMDES tree-summary count " +
                        std::to_string(summaries.size()) +
                        " does not match tree count " +
                        std::to_string(trees.size()));
    for (const auto &sum : summaries) {
        if (sum.min_slot > sum.max_slot)
            throw MdesError("LMDES tree summary has inverted slot "
                            "window");
        if (sum.min_slot < -v7::kMaxSlotMagnitude ||
            sum.max_slot > v7::kMaxSlotMagnitude)
            throw MdesError("LMDES tree summary has implausible slot "
                            "window [" + std::to_string(sum.min_slot) +
                            ", " + std::to_string(sum.max_slot) + "]");
        if (size_t(sum.first_prefilter) + sum.num_prefilter >
            prefilter.size())
            throw MdesError("LMDES tree summary references bad "
                            "prefilter range");
    }
    validateCheckFields(checks, "check", low.num_resources_,
                        low.slot_words_);
    validateCheckFields(prefilter, "prefilter", low.num_resources_,
                        low.slot_words_);
    // The checker's direct-index fast path assumes every slot reachable
    // from a tree lies inside its summary window; enforce it rather
    // than trusting the image.
    for (size_t t = 0; t < trees.size(); ++t) {
        const TreeSummary &sum = summaries[t];
        auto inWindow = [&](int32_t slot) {
            return slot >= sum.min_slot && slot <= sum.max_slot;
        };
        const LowTree &tr = trees[t];
        for (uint32_t s = 0; s < tr.num_or_trees; ++s) {
            const LowOrTree &ot = or_trees[or_refs[tr.first_or_ref + s]];
            for (uint32_t oi = 0; oi < ot.num_options; ++oi) {
                const LowOption &opt =
                    options[option_refs[ot.first_option_ref + oi]];
                for (uint32_t c = 0; c < opt.num_checks; ++c) {
                    if (!inWindow(checks[opt.first_check + c].slot))
                        throw MdesError(
                            "LMDES tree " + std::to_string(t) +
                            " reaches a check outside its summary slot "
                            "window");
                }
            }
        }
        for (uint32_t p = 0; p < sum.num_prefilter; ++p) {
            if (!inWindow(prefilter[sum.first_prefilter + p].slot))
                throw MdesError("LMDES tree " + std::to_string(t) +
                                " has a prefilter entry outside its "
                                "summary slot window");
        }
    }

    return low;
}

LowMdes
LowMdes::load(std::istream &is)
{
    char magic[4] = {};
    is.read(magic, 4);
    if (!is)
        throw MdesError("not an LMDES stream: ends before the 4-byte "
                        "magic (expected 'LMDS')");
    if (std::memcmp(magic, v7::kMagic, 4) != 0)
        throw MdesError("not an LMDES stream: magic is '" +
                        printableMagic(magic) + "', expected 'LMDS'");

    uint32_t version = 0;
    is.read(reinterpret_cast<char *>(&version), sizeof(version));
    if (!is)
        throw MdesError("truncated LMDES stream: ends inside the "
                        "version field (expected version " +
                        std::to_string(v7::kVersion) + ")");
    if (version != v7::kVersion)
        throw MdesVersionError("unsupported LMDES version " +
                               std::to_string(version) + ", expected " +
                               std::to_string(v7::kVersion));

    uint64_t image_bytes = 0;
    is.read(reinterpret_cast<char *>(&image_bytes), sizeof(image_bytes));
    if (!is)
        throw MdesError("truncated LMDES stream: ends inside the "
                        "image-size field");
    if (image_bytes > v7::kMaxImageBytes)
        throw MdesError("implausible LMDES image size " +
                        std::to_string(image_bytes) + " bytes (limit " +
                        std::to_string(v7::kMaxImageBytes) + ")");
    if (image_bytes < sizeof(v7::Header))
        throw MdesError("implausible LMDES image size " +
                        std::to_string(image_bytes) +
                        " bytes: smaller than the " +
                        std::to_string(sizeof(v7::Header)) +
                        "-byte header");

    // uint64_t backing guarantees the 8-byte alignment fromImage needs.
    auto buf = std::make_shared<std::vector<uint64_t>>((image_bytes + 7) / 8);
    char *bytes = reinterpret_cast<char *>(buf->data());
    std::memcpy(bytes, magic, 4);
    std::memcpy(bytes + 4, &version, 4);
    std::memcpy(bytes + 8, &image_bytes, 8);
    is.read(bytes + 16, std::streamsize(image_bytes - 16));
    if (size_t(is.gcount()) != image_bytes - 16)
        throw MdesError("truncated LMDES stream: image claims " +
                        std::to_string(image_bytes) +
                        " bytes, stream holds " +
                        std::to_string(16 + is.gcount()));

    LowMdes low = fromImage(bytes, size_t(image_bytes), ImageSource{buf});
    g_full_deserializations.fetch_add(1, std::memory_order_relaxed);
    return low;
}

} // namespace mdes::lmdes
