/**
 * @file
 * Low-level representation tests: lowering (scalar and bit-vector check
 * encodings), sharing, the memory-accounting model, and binary
 * serialization round-trips with corruption rejection.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "hmdes/compile.h"
#include "lmdes/image.h"
#include "lmdes/low_mdes.h"
#include "machines/machines.h"
#include "random_mdes.h"
#include "support/rng.h"

namespace mdes {
namespace {

using lmdes::LowerOptions;
using lmdes::LowMdes;

Mdes
twoCycleMachine()
{
    // One option with usages at times 0, 0, 1 - the bit-vector encoding
    // must merge the two time-0 usages into one check word.
    Mdes m("two");
    ResourceId r = m.addResourceClass("R", 3);
    OptionId o = m.addOption({{{0, r}, {0, r + 1}, {1, r + 2}}});
    OrTreeId t = m.addOrTree({"T", {o}});
    TreeId tree = m.addTree({"Tbl", {t}});
    m.addOpClass({"OP", tree, 2, kInvalidId, "test"});
    return m;
}

TEST(Lower, ScalarOneCheckPerUsage)
{
    Mdes m = twoCycleMachine();
    LowMdes low = LowMdes::lower(m, {});
    ASSERT_EQ(low.options().size(), 1u);
    EXPECT_EQ(low.options()[0].num_checks, 3u);
    EXPECT_FALSE(low.packed());
    EXPECT_EQ(low.checks()[0].mask, uint64_t(1) << 0);
    EXPECT_EQ(low.checks()[1].mask, uint64_t(1) << 1);
}

TEST(Lower, BitVectorMergesSameCycle)
{
    Mdes m = twoCycleMachine();
    LowerOptions opts;
    opts.pack_bit_vector = true;
    LowMdes low = LowMdes::lower(m, opts);
    ASSERT_EQ(low.options().size(), 1u);
    EXPECT_EQ(low.options()[0].num_checks, 2u);
    EXPECT_TRUE(low.packed());
    EXPECT_EQ(low.checks()[0].slot, 0);
    EXPECT_EQ(low.checks()[0].mask, (uint64_t(1) << 0) | (uint64_t(1) << 1));
    EXPECT_EQ(low.checks()[1].slot, 1);
}

TEST(Lower, BitVectorPreservesFirstAppearanceOrder)
{
    // Usage order (post-sorting transform) must survive packing: the
    // first time seen keeps its position.
    Mdes m("o");
    ResourceId r = m.addResourceClass("R", 3);
    OptionId o = m.addOption({{{1, r}, {0, r + 1}, {1, r + 2}}});
    OrTreeId t = m.addOrTree({"T", {o}});
    TreeId tree = m.addTree({"Tbl", {t}});
    m.addOpClass({"OP", tree, 1, kInvalidId, ""});

    LowerOptions opts;
    opts.pack_bit_vector = true;
    LowMdes low = LowMdes::lower(m, opts);
    ASSERT_EQ(low.options()[0].num_checks, 2u);
    EXPECT_EQ(low.checks()[low.options()[0].first_check].slot, 1);
    EXPECT_EQ(low.checks()[low.options()[0].first_check + 1].slot, 0);
}

TEST(Lower, SharedEntitiesStoredOnce)
{
    // Two tables referencing the same OR-tree share its lowered record
    // and its option-reference list.
    Mdes m("share");
    ResourceId r = m.addResourceClass("R", 2);
    std::vector<OptionId> opts = {m.addOption({{{0, r}}}),
                                  m.addOption({{{0, r + 1}}})};
    OrTreeId shared = m.addOrTree({"S", opts});
    TreeId t1 = m.addTree({"T1", {shared}});
    TreeId t2 = m.addTree({"T2", {shared}});
    m.addOpClass({"A", t1, 1, kInvalidId, ""});
    m.addOpClass({"B", t2, 1, kInvalidId, ""});

    LowMdes low = LowMdes::lower(m, {});
    EXPECT_EQ(low.orTrees().size(), 1u);
    EXPECT_EQ(low.optionRefs().size(), 2u);
    EXPECT_EQ(low.trees().size(), 2u);
    EXPECT_EQ(low.orRefs().size(), 2u);
}

TEST(Lower, MemoryAccountingModel)
{
    Mdes m = twoCycleMachine();
    LowMdes low = LowMdes::lower(m, {});
    auto mem = low.memory();
    EXPECT_EQ(mem.check_bytes, 3u * 8);
    EXPECT_EQ(mem.option_bytes, 1u * 8);
    EXPECT_EQ(mem.option_ref_bytes, 1u * 4);
    EXPECT_EQ(mem.or_tree_bytes, 1u * 8);
    EXPECT_EQ(mem.or_ref_bytes, 1u * 4);
    EXPECT_EQ(mem.tree_bytes, 1u * 8);
    EXPECT_EQ(mem.total(), 24u + 8 + 4 + 8 + 4 + 8);
}

TEST(Lower, WideMachinesUseMultipleSlotWords)
{
    // 100 resource instances: two RU-map words per cycle; usages in
    // different words probe different slots even at the same time.
    Mdes m("wide");
    ResourceId r = m.addResourceClass("R", 100);
    OptionId o = m.addOption({{{0, r + 3}, {0, r + 70}, {1, r + 70}}});
    OrTreeId t = m.addOrTree({"T", {o}});
    TreeId tree = m.addTree({"Tbl", {t}});
    m.addOpClass({"OP", tree, 1, kInvalidId, ""});

    lmdes::LowerOptions opts;
    opts.pack_bit_vector = true;
    LowMdes low = LowMdes::lower(m, opts);
    EXPECT_EQ(low.slotWords(), 2u);
    // Same time but different words: no merging across words.
    ASSERT_EQ(low.options()[0].num_checks, 3u);
    EXPECT_EQ(low.checks()[0].slot, 0); // time 0, word 0
    EXPECT_EQ(low.checks()[0].mask, uint64_t(1) << 3);
    EXPECT_EQ(low.checks()[1].slot, 1); // time 0, word 1
    EXPECT_EQ(low.checks()[1].mask, uint64_t(1) << (70 - 64));
    EXPECT_EQ(low.checks()[2].slot, 3); // time 1, word 1
}

TEST(Lower, CountsMatchStructuredModel)
{
    for (const auto *info : machines::all()) {
        SCOPED_TRACE(info->name);
        Mdes m = hmdes::compileOrThrow(info->source);
        LowMdes low = LowMdes::lower(m, {});
        ASSERT_EQ(low.trees().size(), m.trees().size());
        for (TreeId t = 0; t < m.trees().size(); ++t) {
            EXPECT_EQ(low.expandedOptionCount(t),
                      m.expandedOptionCount(t));
            EXPECT_EQ(low.leafOptionCount(t), m.leafOptionCount(t));
        }
        EXPECT_EQ(low.opClasses().size(), m.opClasses().size());
        EXPECT_EQ(low.findOpClass(m.opClasses()[0].name), 0u);
        EXPECT_EQ(low.findOpClass("NO_SUCH_OP"), kInvalidId);
    }
}

// ------------------------------------------------------------ Serialization

TEST(Serialize, RoundTripsEveryMachine)
{
    for (const auto *info : machines::all()) {
        for (bool packed : {false, true}) {
            SCOPED_TRACE(info->name + (packed ? "/bv" : "/scalar"));
            Mdes m = hmdes::compileOrThrow(info->source);
            LowerOptions opts;
            opts.pack_bit_vector = packed;
            LowMdes low = LowMdes::lower(m, opts);

            std::stringstream buf;
            low.save(buf);
            LowMdes loaded = LowMdes::load(buf);
            EXPECT_EQ(loaded, low);
        }
    }
}

TEST(Serialize, RejectsBadMagic)
{
    std::stringstream buf;
    buf << "NOPE additional data";
    EXPECT_THROW(LowMdes::load(buf), MdesError);
}

TEST(Serialize, RejectsTruncation)
{
    Mdes m = twoCycleMachine();
    LowMdes low = LowMdes::lower(m, {});
    std::stringstream buf;
    low.save(buf);
    std::string data = buf.str();
    for (size_t cut : {size_t(3), data.size() / 2, data.size() - 2}) {
        std::stringstream cut_buf(data.substr(0, cut));
        EXPECT_THROW(LowMdes::load(cut_buf), MdesError) << "cut " << cut;
    }
}

TEST(Serialize, RejectsCorruptReferences)
{
    Mdes m = twoCycleMachine();
    LowMdes low = LowMdes::lower(m, {});
    std::stringstream buf;
    low.save(buf);
    std::string data = buf.str();
    // Flip bytes throughout the stream; every mutation must either load
    // to a *valid* structure or throw - never crash.
    for (size_t i = 8; i < data.size(); i += 7) {
        std::string mutated = data;
        mutated[i] = char(mutated[i] ^ 0x5A);
        std::stringstream mbuf(mutated);
        try {
            LowMdes loaded = LowMdes::load(mbuf);
            // Loaded fine: all references must be in range.
            for (const auto &oc : loaded.opClasses())
                ASSERT_LT(oc.tree, loaded.trees().size());
        } catch (const MdesError &) {
            // Rejection is the expected outcome.
        }
    }
}

TEST(Serialize, BadMagicReportsFoundAndExpected)
{
    std::stringstream buf;
    buf << "NOPE additional data";
    try {
        LowMdes::load(buf);
        FAIL() << "bad magic accepted";
    } catch (const MdesError &e) {
        EXPECT_NE(std::string(e.what()).find("NOPE"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("LMDS"), std::string::npos)
            << e.what();
    }
}

TEST(Serialize, VersionMismatchReportsFoundAndExpected)
{
    Mdes m = twoCycleMachine();
    std::stringstream buf;
    LowMdes::lower(m, {}).save(buf);
    std::string data = buf.str();
    uint32_t bogus = 99;
    std::memcpy(&data[4], &bogus, sizeof(bogus));
    std::stringstream patched(data);
    try {
        LowMdes::load(patched);
        FAIL() << "version 99 accepted";
    } catch (const MdesError &e) {
        EXPECT_NE(std::string(e.what()).find("99"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("7"), std::string::npos)
            << e.what();
    }
}

TEST(Serialize, VersionMismatchIsDistinguishableFromCorruption)
{
    // The store decides stale-vs-quarantine on this distinction: an
    // otherwise intact image from another release must throw the
    // *version* error type, not plain MdesError.
    Mdes m = twoCycleMachine();
    std::stringstream buf;
    LowMdes::lower(m, {}).save(buf);
    std::string data = buf.str();
    uint32_t old_version = 6;
    std::memcpy(&data[4], &old_version, sizeof(old_version));
    std::stringstream patched(data);
    EXPECT_THROW(LowMdes::load(patched), lmdes::MdesVersionError);
}

TEST(Serialize, ChecksumMismatchReportsStoredAndComputed)
{
    Mdes m = twoCycleMachine();
    std::stringstream buf;
    LowMdes::lower(m, {}).save(buf);
    std::string data = buf.str();
    // Flip one payload byte (past the 16-byte header, before the
    // 8-byte checksum trailer): the checksum check must fire before
    // any structural parsing can get confused.
    data[20] = char(data[20] ^ 0xFF);
    std::stringstream patched(data);
    try {
        LowMdes::load(patched);
        FAIL() << "corrupt payload accepted";
    } catch (const MdesError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("checksum"), std::string::npos) << what;
        EXPECT_NE(what.find("stored"), std::string::npos) << what;
        EXPECT_NE(what.find("computed"), std::string::npos) << what;
    }
}

/** FNV-1a64, matching the image checksum in serialize.cpp. */
uint64_t
fnv1a64(const char *data, size_t n)
{
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= uint8_t(data[i]);
        h *= 1099511628211ull;
    }
    return h;
}

/** Recompute and patch the header checksum of a (possibly mutated) v7
 * image so validation runs against checksum-*valid* crafted payloads. */
void
resealImage(std::string &data)
{
    ASSERT_GE(data.size(), sizeof(lmdes::v7::Header));
    uint64_t sum = fnv1a64(data.data() + sizeof(lmdes::v7::Header),
                           data.size() - sizeof(lmdes::v7::Header));
    std::memcpy(&data[offsetof(lmdes::v7::Header, checksum)], &sum,
                sizeof(sum));
}

TEST(Serialize, CraftedMaskBeyondDeclaredResourcesRejected)
{
    // A checksum-valid image whose check selects resource bits past
    // num_resources would index out of the checker's RU map. The
    // crafted payload must be rejected by content validation, not by
    // luck of the checksum.
    Mdes m = twoCycleMachine(); // 3 resources, one RU-map word
    std::stringstream buf;
    LowMdes::lower(m, {}).save(buf);
    std::string data = buf.str();

    lmdes::v7::Header hdr;
    std::memcpy(&hdr, data.data(), sizeof(hdr));
    ASSERT_EQ(hdr.num_resources, 3u);
    const auto &sec = hdr.sections[lmdes::v7::kChecks];
    ASSERT_GE(sec.bytes, sizeof(lmdes::Check));
    lmdes::Check c;
    std::memcpy(&c, data.data() + sec.offset, sizeof(c));
    c.mask |= uint64_t(1) << 10; // resource 10 of 3
    std::memcpy(&data[sec.offset], &c, sizeof(c));
    resealImage(data);

    std::stringstream patched(data);
    try {
        LowMdes::load(patched);
        FAIL() << "mask with undeclared resource bits accepted";
    } catch (const MdesError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("beyond"), std::string::npos) << what;
        EXPECT_NE(what.find("3 declared"), std::string::npos) << what;
    }
}

TEST(Serialize, CraftedImplausibleSlotRejected)
{
    // A wild slot (beyond any sane pipeline depth) must be rejected
    // before it can size an RU-map overlay in the checker.
    Mdes m = twoCycleMachine();
    std::stringstream buf;
    LowMdes::lower(m, {}).save(buf);
    std::string data = buf.str();

    lmdes::v7::Header hdr;
    std::memcpy(&hdr, data.data(), sizeof(hdr));
    const auto &sec = hdr.sections[lmdes::v7::kChecks];
    ASSERT_GE(sec.bytes, sizeof(lmdes::Check));
    lmdes::Check c;
    std::memcpy(&c, data.data() + sec.offset, sizeof(c));
    c.slot = int32_t(lmdes::v7::kMaxSlotMagnitude) + 1;
    std::memcpy(&data[sec.offset], &c, sizeof(c));
    resealImage(data);

    std::stringstream patched(data);
    try {
        LowMdes::load(patched);
        FAIL() << "implausible slot accepted";
    } catch (const MdesError &e) {
        EXPECT_NE(std::string(e.what()).find("slot"), std::string::npos)
            << e.what();
    }
}

TEST(Serialize, CraftedSlotOutsideSummaryWindowRejected)
{
    // A plausible-magnitude slot that escapes the owning tree's summary
    // window would defeat the checker's direct-index fast path.
    Mdes m = twoCycleMachine();
    std::stringstream buf;
    LowMdes::lower(m, {}).save(buf);
    std::string data = buf.str();

    lmdes::v7::Header hdr;
    std::memcpy(&hdr, data.data(), sizeof(hdr));
    const auto &sec = hdr.sections[lmdes::v7::kChecks];
    ASSERT_GE(sec.bytes, sizeof(lmdes::Check));
    lmdes::Check c;
    std::memcpy(&c, data.data() + sec.offset, sizeof(c));
    c.slot = 1000; // far past the two-cycle window, well under the cap
    std::memcpy(&data[sec.offset], &c, sizeof(c));
    resealImage(data);

    std::stringstream patched(data);
    try {
        LowMdes::load(patched);
        FAIL() << "out-of-window slot accepted";
    } catch (const MdesError &e) {
        EXPECT_NE(std::string(e.what()).find("window"), std::string::npos)
            << e.what();
    }
}

/** Every pool of @p low lies inside the one image it holds. */
void
expectPoolsInsideImage(const LowMdes &low)
{
    ASSERT_FALSE(low.image().empty());
    const auto lo = reinterpret_cast<uintptr_t>(low.image().data());
    const auto hi = lo + low.image().size();
    auto inside = [&](auto pool, const char *what) {
        const auto p = reinterpret_cast<uintptr_t>(pool.data());
        EXPECT_TRUE(p >= lo && p + pool.size_bytes() <= hi) << what;
    };
    inside(low.checks(), "checks");
    inside(low.options(), "options");
    inside(low.optionRefs(), "option refs");
    inside(low.orTrees(), "OR-trees");
    inside(low.orRefs(), "OR refs");
    inside(low.trees(), "trees");
    inside(low.treeSummaries(), "tree summaries");
    inside(low.prefilter(), "prefilter");
    inside(low.bypasses(), "bypasses");
}

TEST(Serialize, EveryLowMdesKeepsItsPoolsInOneImage)
{
    // The one form: lowered, attached, loaded or copied, a LowMdes keeps
    // every pool inside one image, and save() writes that image
    // unchanged. Attaching borrows the caller's bytes and a copy shares
    // the image; only load(), which reads a stream into its own buffer,
    // counts as a full deserialization.
    for (const auto *info : machines::all()) {
        SCOPED_TRACE(info->name);
        Mdes m = hmdes::compileOrThrow(info->source);
        LowerOptions opts;
        opts.pack_bit_vector = true;
        const LowMdes low = LowMdes::lower(m, opts);
        expectPoolsInsideImage(low);
        std::stringstream buf;
        low.save(buf);
        const std::string data = buf.str();
        EXPECT_EQ(data, std::string(low.image().data(), low.image().size()));

        auto backing =
            std::make_shared<std::vector<uint64_t>>((data.size() + 7) / 8);
        std::memcpy(backing->data(), data.data(), data.size());
        const void *bytes = backing->data();
        const uint64_t before = lmdes::fullDeserializations();
        const LowMdes attached =
            LowMdes::fromImage(bytes, data.size(), {backing});
        EXPECT_EQ(lmdes::fullDeserializations(), before);
        EXPECT_EQ(static_cast<const void *>(attached.image().data()), bytes);
        expectPoolsInsideImage(attached);
        EXPECT_EQ(attached, low);

        std::stringstream in(data);
        const LowMdes loaded = LowMdes::load(in);
        EXPECT_EQ(lmdes::fullDeserializations(), before + 1);
        expectPoolsInsideImage(loaded);
        EXPECT_NE(static_cast<const void *>(loaded.image().data()), bytes);
        EXPECT_NE(loaded.image().data(), low.image().data());
        EXPECT_EQ(loaded, low);
        std::stringstream resaved;
        loaded.save(resaved);
        EXPECT_EQ(resaved.str(), data);

        const LowMdes copy = loaded;
        expectPoolsInsideImage(copy);
        EXPECT_EQ(copy.image().data(), loaded.image().data());
        EXPECT_EQ(copy.checks().data(), loaded.checks().data());
    }
    // Borrowing needs an owner: fromImage never copies.
    std::stringstream buf;
    LowMdes::lower(twoCycleMachine(), {}).save(buf);
    const std::string data = buf.str();
    auto bytes = std::make_shared<std::vector<uint64_t>>((data.size() + 7) / 8);
    std::memcpy(bytes->data(), data.data(), data.size());
    EXPECT_THROW(LowMdes::fromImage(bytes->data(), data.size(), {}),
                 std::invalid_argument);
}

/** Bytes [from, to) of every record in section @p id of @p image, with
 * records of @p stride bytes, are zero. */
void
expectZeroPadding(const std::string &image, lmdes::v7::SectionId id,
                  size_t stride, size_t from, size_t to)
{
    lmdes::v7::Header hdr;
    std::memcpy(&hdr, image.data(), sizeof(hdr));
    const auto &sec = hdr.sections[id];
    for (size_t rec = sec.offset; rec < sec.offset + sec.bytes;
         rec += stride) {
        for (size_t b = from; b < to; ++b)
            ASSERT_EQ(image[rec + b], 0)
                << "section " << id << ", byte " << rec + b;
    }
}

TEST(Serialize, LoweringIsReproducible)
{
    // Records are written field by field into zeroed sections, so every
    // padding byte is zero and two lowerings of one description save
    // identical images.
    using namespace lmdes;
    for (const auto *info : machines::all()) {
        Mdes m = hmdes::compileOrThrow(info->source);
        for (bool packed : {false, true}) {
            SCOPED_TRACE(info->name + (packed ? "/bv" : "/scalar"));
            LowerOptions opts;
            opts.pack_bit_vector = packed;
            std::stringstream a, b;
            LowMdes::lower(m, opts).save(a);
            LowMdes::lower(m, opts).save(b);
            EXPECT_EQ(a.str(), b.str());

            const std::string img = a.str();
            for (auto id : {v7::kChecks, v7::kPrefilter})
                expectZeroPadding(img, id, sizeof(Check),
                                  offsetof(Check, slot) + sizeof(int32_t),
                                  offsetof(Check, mask));
            expectZeroPadding(img, v7::kOptions, sizeof(LowOption),
                              offsetof(LowOption, num_checks) +
                                  sizeof(uint16_t),
                              sizeof(LowOption));
            expectZeroPadding(img, v7::kOrTrees, sizeof(LowOrTree),
                              offsetof(LowOrTree, num_options) +
                                  sizeof(uint16_t),
                              sizeof(LowOrTree));
            expectZeroPadding(img, v7::kTrees, sizeof(LowTree),
                              offsetof(LowTree, num_or_trees) +
                                  sizeof(uint16_t),
                              sizeof(LowTree));
        }
    }
}

TEST(Serialize, FuzzRoundTripNeverCrashes)
{
    // Random machines, random corruption: every truncation and every
    // bit flip must either throw MdesError or load to a structurally
    // valid description - never crash, never allocate absurdly.
    Rng rng(0xF00DF00Dull);
    for (int iter = 0; iter < 20; ++iter) {
        Mdes m = testing::randomMdes(rng);
        LowerOptions opts;
        opts.pack_bit_vector = rng.chance(0.5);
        LowMdes low = LowMdes::lower(m, opts);
        std::stringstream buf;
        low.save(buf);
        std::string data = buf.str();

        {
            std::stringstream clean(data);
            EXPECT_EQ(LowMdes::load(clean), low);
        }

        for (int mut = 0; mut < 24; ++mut) {
            std::string mutated = data;
            if (rng.chance(0.5)) {
                mutated.resize(rng.below(data.size()));
            } else {
                size_t at = rng.below(mutated.size());
                mutated[at] = char(uint8_t(mutated[at]) ^
                                   uint8_t(1u << rng.below(8)));
            }
            std::stringstream mbuf(mutated);
            try {
                LowMdes loaded = LowMdes::load(mbuf);
                for (const auto &oc : loaded.opClasses())
                    ASSERT_LT(oc.tree, loaded.trees().size());
            } catch (const MdesError &) {
                // Rejection is the expected outcome.
            }
        }
    }
}

} // namespace
} // namespace mdes
