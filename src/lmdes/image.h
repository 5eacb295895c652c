#ifndef MDES_LMDES_IMAGE_H
#define MDES_LMDES_IMAGE_H

/**
 * @file
 * On-disk layout of the position-independent LMDES image (format v7).
 *
 * Unlike the v4-v6 byte stream (length-prefixed sections deserialized
 * into heap vectors), a v7 image is designed to be consumed *in place*:
 * a fixed header carries a section table of (offset, bytes) pairs, every
 * POD array is stored at a 64-byte-aligned offset so a Checker can index
 * it straight out of the buffer the image was read into, and all
 * variable-length text (machine name, op-class names/comments, resource
 * names) lives in one offset-indexed string pool so nothing in the
 * fixed-stride sections is variable length. The whole image is
 * relocatable: it contains offsets, never pointers, so it is valid
 * wherever it is read to.
 *
 * The image is the only form of a LowMdes (see low_mdes.h): lower()
 * writes one with v7::writeImage and attaches it, and save() and the
 * artifact store write those bytes as they are. The layout is declared
 * here (rather than buried in serialize.cpp) so tests can craft and
 * patch images precisely - the v7 analogue of fuzzing v4's length
 * prefixes.
 *
 * Layout:
 *
 *   [Header, 240 bytes]
 *   [pad to kDataStart = 256]
 *   [sections, each at a 64-byte-aligned offset, in table order]
 *
 * Header::checksum is FNV-1a64 over bytes [sizeof(Header), image_bytes)
 * - everything except the header itself - verified once at open. All
 * integers are little-endian as written by the host (same-host caching,
 * not interchange). Every byte is determined by the description: padding
 * inside and between records is zero, so two lowerings of one
 * description save identical files.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lmdes/low_mdes.h"
#include "support/diagnostics.h"

namespace mdes::lmdes {

/**
 * Thrown when a stream/image carries a well-formed magic but a format
 * version this build does not speak. Distinct from MdesError so the
 * artifact store can tell "written by another release - silently
 * recompile" apart from "damaged - quarantine".
 */
class MdesVersionError : public MdesError
{
  public:
    explicit MdesVersionError(const std::string &what) : MdesError(what) {}
};

namespace v7 {

constexpr char kMagic[4] = {'L', 'M', 'D', 'S'};
constexpr uint32_t kVersion = 7;
/** Alignment of every section offset (cache line; divides page size). */
constexpr size_t kAlign = 64;
/** Upper bound on a sane image; real descriptions are kilobytes. */
constexpr uint64_t kMaxImageBytes = uint64_t(1) << 30;

/** Section-table indices, in file order. */
enum SectionId : uint32_t {
    kChecks = 0,        ///< Check[]        (16 B each)
    kOptions,           ///< LowOption[]    (8 B each)
    kOptionRefs,        ///< uint32_t[]
    kOrTrees,           ///< LowOrTree[]    (8 B each)
    kOrRefs,            ///< uint32_t[]
    kTrees,             ///< LowTree[]      (8 B each)
    kBypasses,          ///< LowBypass[]    (12 B each)
    kTreeSummaries,     ///< TreeSummary[]  (16 B each)
    kPrefilter,         ///< Check[]        (16 B each)
    kOpClasses,         ///< OpClassRec[]   (28 B each)
    kResourceNames,     ///< StrRef[], one per resource instance
    kStringPool,        ///< raw bytes indexed by StrRef / name offsets
    kNumSections
};

/** One section-table entry. `offset` is from the start of the image. */
struct Section
{
    uint64_t offset = 0;
    uint64_t bytes = 0;
};

/** A (offset, length) slice of the string pool section. */
struct StrRef
{
    uint32_t off = 0;
    uint32_t len = 0;
};

/**
 * Fixed-stride operation-class record; the strings LowOpClass carries
 * inline are indirected through the pool.
 */
struct OpClassRec
{
    uint32_t name_off = 0;
    uint32_t name_len = 0;
    uint32_t tree = 0;
    uint32_t cascade_tree = 0;
    int32_t latency = 1;
    uint32_t comment_off = 0;
    uint32_t comment_len = 0;
};

/** The fixed v7 image header. */
struct Header
{
    char magic[4];
    uint32_t version;
    /** Total image size in bytes, including this header and padding. */
    uint64_t image_bytes;
    /** FNV-1a64 over [sizeof(Header), image_bytes). */
    uint64_t checksum;
    uint32_t num_resources;
    uint32_t slot_words;
    uint32_t packed;
    /** Machine name as a (off, len) slice of the string pool. */
    uint32_t machine_name_off;
    uint32_t machine_name_len;
    /** Always kNumSections; rejects table-shape drift up front. */
    uint32_t section_count;
    Section sections[kNumSections];
};

static_assert(sizeof(Section) == 16);
static_assert(sizeof(StrRef) == 8);
static_assert(sizeof(OpClassRec) == 28);
static_assert(sizeof(Header) == 240);

/** First section offset: sizeof(Header) rounded up to kAlign. */
constexpr size_t kDataStart = (sizeof(Header) + kAlign - 1) / kAlign * kAlign;
static_assert(kDataStart == 256);

/** Sanity bound on TreeSummary slot windows: a crafted image must not be
 * able to drive a multi-GB RU-map overlay allocation in the checker. */
constexpr int64_t kMaxSlotMagnitude = int64_t(1) << 20;

/** Everything one image holds: the scalars, the text, and the POD pools
 * in section order. lower() fills one and writes it. */
struct Contents
{
    std::string machine_name;
    uint32_t num_resources = 0;
    uint32_t slot_words = 1;
    bool packed = false;
    std::vector<std::string> resource_names;
    std::vector<LowOpClass> op_classes;
    std::vector<Check> checks;
    std::vector<LowOption> options;
    std::vector<uint32_t> option_refs;
    std::vector<LowOrTree> or_trees;
    std::vector<uint32_t> or_refs;
    std::vector<LowTree> trees;
    std::vector<LowBypass> bypasses;
    std::vector<TreeSummary> tree_summaries;
    std::vector<Check> prefilter;
};

/**
 * Lay @p desc out as an image filling a fresh zeroed buffer (uint64_t,
 * so 8-byte aligned). Records with padding (Check, LowOption, LowOrTree,
 * LowTree) are written field by field, so no indeterminate byte reaches
 * the image.
 */
std::shared_ptr<const std::vector<uint64_t>>
writeImage(const Contents &desc);

} // namespace v7

} // namespace mdes::lmdes

#endif // MDES_LMDES_IMAGE_H
