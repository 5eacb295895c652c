/**
 * @file
 * Persistent store tests: content addressing, atomic publish, tolerant
 * loading (corruption / truncation / mislabeling quarantines instead of
 * throwing), LRU eviction order, single-flight racing through the
 * two-tier cache, and the end-to-end guarantee that a corrupted on-disk
 * artifact costs a recompilation, never a failed request.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "lmdes/image.h"
#include "random_mdes.h"
#include "service/cache.h"
#include "service/service.h"
#include "store/store.h"
#include "support/faultsim.h"
#include "support/rng.h"

namespace mdes {
namespace {

namespace fs = std::filesystem;

using lmdes::LowMdes;
using store::ArtifactStore;
using store::StoreConfig;

/** A fresh per-test store directory under the system temp dir. */
fs::path
freshDir(const std::string &name)
{
    fs::path dir = fs::temp_directory_path() /
                   ("mdes-test-store-" + std::to_string(::getpid()) + "-" +
                    name);
    fs::remove_all(dir);
    return dir;
}

/** A tiny distinct machine per @p salt so tests can mint distinct keys. */
Mdes
tinyMachine(int salt = 0)
{
    Mdes m("tiny" + std::to_string(salt));
    ResourceId r = m.addResourceClass("R", 2 + salt);
    OptionId o = m.addOption({{{0, r}, {1, r + 1}}});
    OrTreeId t = m.addOrTree({"T", {o}});
    TreeId tree = m.addTree({"Tbl", {t}});
    m.addOpClass({"OP", tree, 2, kInvalidId, "test"});
    return m;
}

/** Read a whole file into a string. */
std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** FNV-1a64, matching the store's integrity trailer. */
uint64_t
storeFnv1a64(const char *data, size_t n)
{
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= uint8_t(data[i]);
        h *= 1099511628211ull;
    }
    return h;
}

/** Rewrite @p path with @p data plus a freshly computed whole-file
 * trailer, so deliberate *format* patches are not mistaken for rot. */
void
resealArtifact(const fs::path &path, std::string data)
{
    ASSERT_GE(data.size(), 8u);
    uint64_t sum = storeFnv1a64(data.data(), data.size() - 8);
    std::memcpy(&data[data.size() - 8], &sum, sizeof(sum));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), std::streamsize(data.size()));
}

/** The names in @p dir, sorted. */
std::vector<std::string>
listing(const fs::path &dir)
{
    std::vector<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

/** The bytes of @p low's image. */
std::string
imageBytes(const LowMdes &low)
{
    return {low.image().data(), low.image().size()};
}

/** Flip one byte of @p path at @p offset (from the end if negative). */
void
flipByte(const fs::path &path, int64_t offset)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekg(0, std::ios::end);
    int64_t size = f.tellg();
    int64_t at = offset >= 0 ? offset : size + offset;
    ASSERT_GE(at, 0);
    ASSERT_LT(at, size);
    f.seekg(at);
    char c = 0;
    f.read(&c, 1);
    c = char(uint8_t(c) ^ 0xA5);
    f.seekp(at);
    f.write(&c, 1);
}

TEST(StoreKey, StableAndInputSensitive)
{
    const std::string source = "fake hmdes source";
    uint64_t base =
        store::artifactKey(source, PipelineConfig::all(), true);
    EXPECT_EQ(base,
              store::artifactKey(source, PipelineConfig::all(), true));
    EXPECT_NE(base, store::artifactKey(source + " ",
                                       PipelineConfig::all(), true));
    EXPECT_NE(base,
              store::artifactKey(source, PipelineConfig::none(), true));
    EXPECT_NE(base,
              store::artifactKey(source, PipelineConfig::all(), false));
    EXPECT_NE(base, store::artifactKey(source, PipelineConfig::all(), true,
                                       exp::Rep::OrTree));

    PipelineConfig backward = PipelineConfig::all();
    backward.direction = SchedDirection::Backward;
    EXPECT_NE(base, store::artifactKey(source, backward, true));
}

TEST(Store, PublishIsAtomicAndRoundTrips)
{
    fs::path dir = freshDir("roundtrip");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    uint64_t key = 0x1234ABCDull;

    ASSERT_TRUE(s.store(key, low, 42));
    // One file per entry, and nothing half-written remains after a
    // successful publish.
    EXPECT_EQ(listing(dir),
              std::vector<std::string>{store::artifactFileName(key)});

    auto loaded = s.load(key);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(*loaded, low);

    auto infos = s.list();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos[0].key, key);
    EXPECT_EQ(infos[0].config_fingerprint, 42u);
    EXPECT_FALSE(infos[0].quarantined);

    store::StoreStats st = s.stats();
    EXPECT_EQ(st.stores, 1u);
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.corrupt, 0u);
    fs::remove_all(dir);
}

TEST(Store, OrphanedPublishTempsAreSweptAtOpenAndByPrune)
{
    // A publisher killed between temp-write and rename (kill -9 under
    // the supervision plane) leaves a ".tmp-*" orphan. The next open
    // must sweep it, count it, and leave real artifacts alone.
    fs::path dir = freshDir("residue");
    {
        ArtifactStore s(StoreConfig{.dir = dir.string()});
        LowMdes low = LowMdes::lower(tinyMachine(), {});
        ASSERT_TRUE(s.store(0xBEEF, low, 7));
    }
    std::ofstream(dir / ".tmp-123-abc") << "half-written artifact";
    std::ofstream(dir / ".tmp-456-def") << "another casualty";

    ArtifactStore s(StoreConfig{.dir = dir.string()});
    EXPECT_EQ(s.stats().residue_swept, 2u);
    for (const auto &entry : fs::directory_iterator(dir))
        EXPECT_EQ(entry.path().filename().string().find(".tmp-"),
                  std::string::npos)
            << entry.path();
    // The real artifact survived the sweep.
    EXPECT_NE(s.load(0xBEEF), nullptr);

    // prune() also sweeps residue that appeared while the store was
    // open (a sibling process crashing mid-publish into the same dir).
    std::ofstream(dir / ".tmp-789-ghi") << "late orphan";
    store::PruneResult pr = s.prune(UINT64_MAX);
    EXPECT_EQ(pr.residue_removed, 1u);
    EXPECT_EQ(pr.removed, 0u);
    EXPECT_EQ(s.stats().residue_swept, 3u);
    EXPECT_FALSE(fs::exists(dir / ".tmp-789-ghi"));
    fs::remove_all(dir);
}

TEST(Store, MissOnAbsentKey)
{
    fs::path dir = freshDir("miss");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    EXPECT_EQ(s.load(0xDEAD), nullptr);
    EXPECT_EQ(s.stats().misses, 1u);
    fs::remove_all(dir);
}

TEST(Store, CorruptArtifactIsQuarantinedThenReplaced)
{
    fs::path dir = freshDir("corrupt");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    uint64_t key = 7;
    ASSERT_TRUE(s.store(key, low, 0));

    flipByte(dir / store::artifactFileName(key), -10);
    EXPECT_EQ(s.load(key), nullptr);
    // The quarantined file is all that is left of the entry.
    EXPECT_EQ(listing(dir),
              std::vector<std::string>{store::quarantineFileName(key)});
    store::StoreStats st = s.stats();
    EXPECT_EQ(st.corrupt, 1u);
    EXPECT_EQ(st.misses, 1u);

    auto infos = s.list();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_TRUE(infos[0].quarantined);

    // Republishing heals the slot and clears the quarantine file.
    ASSERT_TRUE(s.store(key, low, 0));
    EXPECT_FALSE(fs::exists(dir / store::quarantineFileName(key)));
    auto loaded = s.load(key);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(*loaded, low);
    fs::remove_all(dir);
}

TEST(Store, TruncatedArtifactIsQuarantined)
{
    fs::path dir = freshDir("truncated");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    uint64_t key = 9;
    ASSERT_TRUE(s.store(key, low, 0));

    fs::path file = dir / store::artifactFileName(key);
    fs::resize_file(file, fs::file_size(file) / 2);
    EXPECT_EQ(s.load(key), nullptr);
    EXPECT_TRUE(fs::exists(dir / store::quarantineFileName(key)));
    EXPECT_EQ(s.stats().corrupt, 1u);
    fs::remove_all(dir);
}

TEST(Store, MislabeledArtifactIsQuarantined)
{
    // A file whose header names a different key (e.g. a bad copy) must
    // not be served under the name it sits at.
    fs::path dir = freshDir("mislabel");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    ASSERT_TRUE(s.store(11, low, 0));
    fs::copy_file(dir / store::artifactFileName(11),
                  dir / store::artifactFileName(12));
    EXPECT_EQ(s.load(12), nullptr);
    EXPECT_TRUE(fs::exists(dir / store::quarantineFileName(12)));
    // The honest slot still serves.
    EXPECT_NE(s.load(11), nullptr);
    fs::remove_all(dir);
}

TEST(Store, PruneEvictsLeastRecentlyAccessedFirst)
{
    fs::path dir = freshDir("prune");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    uint64_t total = 0;
    for (int i = 0; i < 3; ++i) {
        LowMdes low = LowMdes::lower(tinyMachine(i), {});
        ASSERT_TRUE(s.store(uint64_t(i + 1), low, 0));
        total += fs::file_size(dir / store::artifactFileName(i + 1));
    }
    // Pin the access order deterministically through the artifacts'
    // own mtimes: key 2 oldest, then 3, key 1 most recent.
    auto now = fs::file_time_type::clock::now();
    using std::chrono::hours;
    fs::last_write_time(dir / store::artifactFileName(2), now - hours(48));
    fs::last_write_time(dir / store::artifactFileName(3), now - hours(24));
    fs::last_write_time(dir / store::artifactFileName(1), now);

    // Budget for two artifacts: exactly the oldest (key 2) must go.
    uint64_t one = fs::file_size(dir / store::artifactFileName(1));
    store::PruneResult pr = s.prune(total - one + 1);
    EXPECT_EQ(pr.removed, 1u);
    EXPECT_FALSE(fs::exists(dir / store::artifactFileName(2)));
    EXPECT_TRUE(fs::exists(dir / store::artifactFileName(3)));
    EXPECT_TRUE(fs::exists(dir / store::artifactFileName(1)));
    EXPECT_LE(pr.bytes_after, pr.bytes_before);
    EXPECT_EQ(s.stats().evictions, 1u);

    // A zero budget clears the store.
    pr = s.prune(0);
    EXPECT_EQ(pr.removed, 2u);
    EXPECT_EQ(pr.bytes_after, 0u);
    fs::remove_all(dir);
}

TEST(Store, AHitMakesAnEntryTheMostRecent)
{
    fs::path dir = freshDir("prune_hit");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    ASSERT_TRUE(s.store(1, low, 0));
    ASSERT_TRUE(s.store(2, low, 0));
    auto now = fs::file_time_type::clock::now();
    using std::chrono::hours;
    fs::last_write_time(dir / store::artifactFileName(1), now - hours(48));
    fs::last_write_time(dir / store::artifactFileName(2), now - hours(24));

    // Key 1 was the least recent; a hit touches its mtime, so a budget
    // for one artifact now evicts key 2 instead.
    ASSERT_NE(s.load(1), nullptr);
    EXPECT_GT(fs::last_write_time(dir / store::artifactFileName(1)),
              now - hours(1));
    store::PruneResult pr =
        s.prune(fs::file_size(dir / store::artifactFileName(1)));
    EXPECT_EQ(pr.removed, 1u);
    EXPECT_EQ(listing(dir),
              std::vector<std::string>{store::artifactFileName(1)});
    fs::remove_all(dir);
}

TEST(Store, OnlyArtifactsRemainAfterPublishHitQuarantineAndStaleRemoval)
{
    // A store entry is one file: no step of its life leaves a second
    // file for the same key behind.
    fs::path dir = freshDir("one_file");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    const uint64_t key = 21;
    const std::vector<std::string> artifact{store::artifactFileName(key)};

    ASSERT_TRUE(s.store(key, low, 0));
    EXPECT_EQ(listing(dir), artifact);
    ASSERT_NE(s.load(key), nullptr);
    EXPECT_EQ(listing(dir), artifact);

    flipByte(dir / store::artifactFileName(key), -10);
    EXPECT_EQ(s.load(key), nullptr);
    EXPECT_EQ(listing(dir),
              std::vector<std::string>{store::quarantineFileName(key)});
    ASSERT_TRUE(s.store(key, low, 0));
    EXPECT_EQ(listing(dir), artifact);

    fs::path file = dir / store::artifactFileName(key);
    std::string data = slurp(file);
    uint32_t old_version = 2;
    std::memcpy(&data[4], &old_version, sizeof(old_version));
    resealArtifact(file, std::move(data));
    EXPECT_EQ(s.load(key), nullptr);
    EXPECT_EQ(s.stats().stale_evicted, 1u);
    EXPECT_TRUE(listing(dir).empty());
    fs::remove_all(dir);
}

TEST(Store, PruneRemovesQuarantinedFiles)
{
    fs::path dir = freshDir("prune_bad");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    ASSERT_TRUE(s.store(1, low, 0));
    flipByte(dir / store::artifactFileName(1), -10);
    EXPECT_EQ(s.load(1), nullptr);
    ASSERT_TRUE(fs::exists(dir / store::quarantineFileName(1)));

    // Even an unbounded sweep drops quarantined files, and any other
    // keyed file that is not an artifact; files the store does not name
    // are left alone.
    std::ofstream(dir / "0000000000000001.meta") << "{}";
    std::ofstream(dir / "notes.txt") << "kept";
    s.prune(uint64_t(-1));
    EXPECT_EQ(listing(dir), std::vector<std::string>{"notes.txt"});
    fs::remove_all(dir);
}

TEST(Store, QuarantineRacingPruneIsSafe)
{
    // Quarantine (corrupt loads renaming artifacts to .bad), republish,
    // and prune all race on one store. Nothing may crash, and once the
    // dust settles a pruned slot stays pruned - quarantine must never
    // resurrect an artifact.
    fs::path dir = freshDir("quarantine_race");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    constexpr uint64_t kKeys = 4;
    LowMdes low = LowMdes::lower(tinyMachine(), {});

    // Seed every slot and verify the quarantine accounting that `store
    // stat` reports: corrupt loads flag each artifact in list().
    faultsim::install(faultsim::Plan::parse("seed=21,store/corrupt-byte=1"));
    for (uint64_t key = 1; key <= kKeys; ++key)
        ASSERT_TRUE(s.store(key, low, 0));
    for (uint64_t key = 1; key <= kKeys; ++key)
        EXPECT_EQ(s.load(key), nullptr);
    uint64_t quarantined = 0;
    for (const auto &info : s.list())
        quarantined += info.quarantined;
    EXPECT_EQ(quarantined, kKeys);

    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    // Publishers keep healing slots, loaders keep quarantining them
    // (every read corrupts under the plan), the pruner keeps emptying
    // the directory out from under both.
    for (int t = 0; t < 2; ++t)
        threads.emplace_back([&] {
            while (!stop)
                for (uint64_t key = 1; key <= kKeys; ++key)
                    s.store(key, low, 0);
        });
    for (int t = 0; t < 2; ++t)
        threads.emplace_back([&] {
            while (!stop)
                for (uint64_t key = 1; key <= kKeys; ++key)
                    s.load(key);
        });
    threads.emplace_back([&] {
        while (!stop)
            s.prune(0);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stop = true;
    for (auto &t : threads)
        t.join();
    faultsim::uninstall();

    // Final sweep: a pruned store stays empty (no resurrection), and
    // every slot reads as a clean miss.
    s.prune(0);
    EXPECT_TRUE(fs::is_empty(dir));
    for (uint64_t key = 1; key <= kKeys; ++key)
        EXPECT_EQ(s.load(key), nullptr);
    // The store still works after the storm.
    ASSERT_TRUE(s.store(1, low, 0));
    auto healed = s.load(1);
    ASSERT_NE(healed, nullptr);
    EXPECT_EQ(*healed, low);
    fs::remove_all(dir);
}

TEST(Store, SizeBudgetTriggersEvictionOnPublish)
{
    fs::path dir = freshDir("budget");
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    // Measure one published artifact (container header + padding +
    // image + trailer); every key yields the same size, so a budget of
    // exactly one file means at most one survives each publish.
    uint64_t artifact_bytes = 0;
    {
        fs::path probe_dir = freshDir("budget_probe");
        ArtifactStore probe(StoreConfig{.dir = probe_dir.string()});
        ASSERT_TRUE(probe.store(1, low, 0));
        artifact_bytes =
            fs::file_size(probe_dir / store::artifactFileName(1));
        fs::remove_all(probe_dir);
    }
    ArtifactStore s(StoreConfig{.dir = dir.string(),
                                .max_bytes = artifact_bytes});
    for (uint64_t key = 1; key <= 4; ++key)
        ASSERT_TRUE(s.store(key, low, 0));
    uint64_t artifacts = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".lmdes")
            ++artifacts;
    EXPECT_EQ(artifacts, 1u);
    EXPECT_GT(s.stats().evictions, 0u);
    fs::remove_all(dir);
}

TEST(Store, RandomMachinesRoundTripThroughDisk)
{
    fs::path dir = freshDir("random");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    Rng rng(0xBEEFull);
    for (uint64_t key = 1; key <= 8; ++key) {
        Mdes m = testing::randomMdes(rng);
        lmdes::LowerOptions opts;
        opts.pack_bit_vector = rng.chance(0.5);
        LowMdes low = LowMdes::lower(m, opts);
        ASSERT_TRUE(s.store(key, low, key));
        auto loaded = s.load(key);
        ASSERT_NE(loaded, nullptr);
        EXPECT_EQ(*loaded, low);
    }
    fs::remove_all(dir);
}

TEST(Store, AHitOwnsTheBytesItValidated)
{
    // A hit serves the bytes it validated: rewriting a Check of the
    // artifact in place afterwards changes neither the held image nor
    // the description, and the next load of the file quarantines it.
    fs::path dir = freshDir("owned");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    const uint64_t key = 5;
    ASSERT_TRUE(s.store(key, low, 0));

    auto held = s.load(key);
    ASSERT_NE(held, nullptr);
    const std::string image = imageBytes(*held);

    fs::path file = dir / store::artifactFileName(key);
    const std::string data = slurp(file);
    const size_t img_off = data.find("LMDS", 4);
    ASSERT_NE(img_off, std::string::npos);
    lmdes::v7::Header hdr;
    std::memcpy(&hdr, data.data() + img_off, sizeof(hdr));
    ASSERT_GT(hdr.sections[lmdes::v7::kChecks].bytes, 0u);
    flipByte(file, int64_t(img_off + hdr.sections[lmdes::v7::kChecks].offset +
                           offsetof(lmdes::Check, mask)));

    EXPECT_TRUE(imageBytes(*held) == image) << "the held image changed";
    EXPECT_EQ(*held, low);
    EXPECT_EQ(s.load(key), nullptr);
    EXPECT_EQ(listing(dir),
              std::vector<std::string>{store::quarantineFileName(key)});
    store::StoreStats st = s.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.corrupt, 1u);
    fs::remove_all(dir);
}

TEST(Store, ShortReadQuarantinesAndARepublishHeals)
{
    // A read cut short reaches the trailer check as a truncated
    // artifact: damage, so quarantined at once rather than retried.
    fs::path dir = freshDir("short_read");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    const uint64_t key = 45;
    ASSERT_TRUE(s.store(key, low, 0));

    faultsim::install(faultsim::Plan::parse("seed=3,store/short-read=1"));
    EXPECT_EQ(s.load(key), nullptr);
    faultsim::uninstall();
    EXPECT_EQ(listing(dir),
              std::vector<std::string>{store::quarantineFileName(key)});
    store::StoreStats st = s.stats();
    EXPECT_EQ(st.corrupt, 1u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.retries, 0u);

    ASSERT_TRUE(s.store(key, low, 0));
    EXPECT_EQ(listing(dir),
              std::vector<std::string>{store::artifactFileName(key)});
    auto healed = s.load(key);
    ASSERT_NE(healed, nullptr);
    EXPECT_EQ(*healed, low);
    fs::remove_all(dir);
}

TEST(Store, AFileLargerThanAnyArtifactIsCorruptAndNeverRead)
{
    // The largest artifact a publish writes: the longest header (magic,
    // version, three u64s, two strings of at most 4096 bytes) padded to
    // 64 bytes, the largest image, and the 8-byte trailer. A sparse file
    // one byte longer must be rejected before any buffer is allocated
    // or any byte read.
    fs::path dir = freshDir("oversize");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    const uint64_t key = 46;
    const uint64_t max_artifact =
        (4 + 4 + 3 * 8 + 2 * (4 + 4096) + 63) / 64 * 64 +
        lmdes::v7::kMaxImageBytes + 8;
    const fs::path file = dir / store::artifactFileName(key);
    std::ofstream(file, std::ios::binary).close();
    fs::resize_file(file, max_artifact + 1);

    // Arm a site no load reaches, so the layer counts how far the load
    // got: the short-read site is probed right after the read.
    faultsim::install(faultsim::Plan::parse("seed=1,store/fsync=1"));
    EXPECT_EQ(s.load(key), nullptr);
    const auto counters = faultsim::counters();
    faultsim::uninstall();
    EXPECT_EQ(counters[size_t(faultsim::Site::StoreOpenRead)].evaluations,
              1u);
    EXPECT_EQ(counters[size_t(faultsim::Site::StoreShortRead)].evaluations,
              0u);
    EXPECT_EQ(s.stats().corrupt, 1u);
    EXPECT_EQ(listing(dir),
              std::vector<std::string>{store::quarantineFileName(key)});
    fs::remove_all(dir);
}

TEST(Store, StaleContainerVersionIsEvictedNotQuarantined)
{
    // Plant an artifact whose *container* claims an older store format:
    // healthy bytes from another release. The load must read as a plain
    // miss, silently drop the entry (no .bad residue, no corrupt
    // count), and let a republish heal the slot.
    fs::path dir = freshDir("stale_container");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    uint64_t key = 31;
    ASSERT_TRUE(s.store(key, low, 0));

    fs::path file = dir / store::artifactFileName(key);
    std::string data = slurp(file);
    uint32_t old_version = 2;
    std::memcpy(&data[4], &old_version, sizeof(old_version));
    resealArtifact(file, std::move(data));

    // list() can see the staleness before any load touches it.
    auto infos = s.list();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_TRUE(infos[0].stale);
    EXPECT_FALSE(infos[0].quarantined);

    EXPECT_EQ(s.load(key), nullptr);
    // Nothing is left: no artifact, no .bad residue.
    EXPECT_TRUE(listing(dir).empty());
    store::StoreStats st = s.stats();
    EXPECT_EQ(st.stale_evicted, 1u);
    EXPECT_EQ(st.corrupt, 0u);
    EXPECT_EQ(st.misses, 1u);

    // The recompile-and-republish path starts from a clean slot.
    ASSERT_TRUE(s.store(key, low, 0));
    auto healed = s.load(key);
    ASSERT_NE(healed, nullptr);
    EXPECT_EQ(*healed, low);
    fs::remove_all(dir);
}

TEST(Store, StaleImageVersionIsEvictedNotQuarantined)
{
    // Same contract one layer down: the container is current but the
    // LMDES image inside speaks an older format version. Still "written
    // by another release", still a silent evict-and-recompile.
    fs::path dir = freshDir("stale_image");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    uint64_t key = 33;
    ASSERT_TRUE(s.store(key, low, 0));

    fs::path file = dir / store::artifactFileName(key);
    std::string data = slurp(file);
    size_t img_off = data.find("LMDS", 4);
    ASSERT_NE(img_off, std::string::npos);
    uint32_t old_version = 6;
    std::memcpy(&data[img_off + 4], &old_version, sizeof(old_version));
    resealArtifact(file, std::move(data));

    EXPECT_EQ(s.load(key), nullptr);
    EXPECT_FALSE(fs::exists(file));
    EXPECT_FALSE(fs::exists(dir / store::quarantineFileName(key)));
    store::StoreStats st = s.stats();
    EXPECT_EQ(st.stale_evicted, 1u);
    EXPECT_EQ(st.corrupt, 0u);
    fs::remove_all(dir);
}

TEST(Store, MidPageCorruptionQuarantines)
{
    // A flip in the middle of the image (not near the header or the
    // trailer) must still read as Corrupt: the trailer covers every
    // byte of the file.
    fs::path dir = freshDir("midpage");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    uint64_t key = 40;
    ASSERT_TRUE(s.store(key, low, 0));
    fs::path file = dir / store::artifactFileName(key);
    flipByte(file, int64_t(fs::file_size(file) / 2));

    EXPECT_EQ(s.load(key), nullptr);
    EXPECT_TRUE(fs::exists(dir / store::quarantineFileName(key)));
    store::StoreStats st = s.stats();
    EXPECT_EQ(st.corrupt, 1u);
    EXPECT_EQ(st.stale_evicted, 0u);
    fs::remove_all(dir);
}

TEST(Store, AHeldArtifactSurvivesPruneRewriteAndQuarantine)
{
    // A held artifact stays valid, byte for byte, after the file it was
    // loaded from is pruned, republished, rewritten in place and
    // quarantined.
    fs::path dir = freshDir("held");
    ArtifactStore s(StoreConfig{.dir = dir.string()});
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    uint64_t key = 50;
    ASSERT_TRUE(s.store(key, low, 0));

    auto held = s.load(key);
    ASSERT_NE(held, nullptr);
    const std::string image = imageBytes(*held);

    // Prune everything out from under it.
    s.prune(0);
    EXPECT_FALSE(fs::exists(dir / store::artifactFileName(key)));
    EXPECT_EQ(*held, low);

    // Republish, corrupt, quarantine - neither held artifact wobbles.
    ASSERT_TRUE(s.store(key, low, 0));
    auto second = s.load(key);
    ASSERT_NE(second, nullptr);
    flipByte(dir / store::artifactFileName(key), -10);
    EXPECT_TRUE(imageBytes(*held) == image) << "the first image changed";
    EXPECT_TRUE(imageBytes(*second) == image) << "the second image changed";
    EXPECT_EQ(s.load(key), nullptr);
    EXPECT_TRUE(fs::exists(dir / store::quarantineFileName(key)));
    EXPECT_EQ(*held, low);
    EXPECT_EQ(*second, low);

    // Releasing them after all that must be clean too.
    held.reset();
    second.reset();
    fs::remove_all(dir);
}

/** Order-sensitive FNV over every POD pool of @p low, so two processes
 * can compare the bytes they are actually scheduling from. */
uint64_t
podFingerprint(const lmdes::LowMdes &low)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *p, size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    auto span = [&mix](auto s) { mix(s.data(), s.size_bytes()); };
    span(low.checks());
    span(low.options());
    span(low.optionRefs());
    span(low.orTrees());
    span(low.orRefs());
    span(low.trees());
    span(low.treeSummaries());
    span(low.prefilter());
    span(low.bypasses());
    return h;
}

TEST(Store, ForkedProcessesServeBitIdenticalArtifacts)
{
    // N sharded `mdesc serve` processes are modeled by a fork: parent
    // and child each open the store and load the same artifact; the
    // bytes they serve must be bit-identical.
    fs::path dir = freshDir("forked");
    LowMdes low = LowMdes::lower(tinyMachine(), {});
    uint64_t key = 60;
    {
        ArtifactStore publisher(StoreConfig{.dir = dir.string()});
        ASSERT_TRUE(publisher.store(key, low, 0));
    }

    int pipefd[2];
    ASSERT_EQ(::pipe(pipefd), 0);
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: its own store handle, its own load, its own
        // fingerprint back through the pipe. _exit keeps gtest and
        // stdio state out of the forked copy.
        ::close(pipefd[0]);
        uint64_t fp = 0;
        try {
            ArtifactStore child(StoreConfig{.dir = dir.string()});
            auto loaded = child.load(key);
            if (loaded && child.stats().hits == 1)
                fp = podFingerprint(*loaded);
        } catch (...) {
        }
        ssize_t n = ::write(pipefd[1], &fp, sizeof(fp));
        ::close(pipefd[1]);
        ::_exit(n == sizeof(fp) ? 0 : 1);
    }
    ::close(pipefd[1]);
    uint64_t child_fp = 0;
    ASSERT_EQ(::read(pipefd[0], &child_fp, sizeof(child_fp)),
              ssize_t(sizeof(child_fp)));
    ::close(pipefd[0]);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    ArtifactStore parent(StoreConfig{.dir = dir.string()});
    auto loaded = parent.load(key);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(parent.stats().hits, 1u);
    EXPECT_NE(child_fp, 0u);
    EXPECT_EQ(podFingerprint(*loaded), child_fp);
    EXPECT_EQ(podFingerprint(low), child_fp);
    fs::remove_all(dir);
}

TEST(TwoTierCache, RacingThreadsCompileOnceAndPublishOnce)
{
    fs::path dir = freshDir("race");
    auto disk = std::make_shared<ArtifactStore>(
        StoreConfig{.dir = dir.string()});
    service::DescriptionCache cache(8);
    cache.attachStore(disk);

    const uint64_t key = 77;
    std::atomic<int> compiled{0};
    auto compile = [&]() -> service::CompileResult {
        ++compiled;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return {std::make_shared<const LowMdes>(
                    LowMdes::lower(tinyMachine(), {})),
                false};
    };

    std::vector<std::thread> threads;
    std::vector<service::CompiledMdes> results(8);
    for (size_t i = 0; i < results.size(); ++i)
        threads.emplace_back(
            [&, i] { results[i] = cache.getOrCompile(key, compile); });
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(compiled.load(), 1);
    for (const auto &r : results) {
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r, results[0]); // one shared artifact, not copies
    }
    EXPECT_EQ(disk->stats().stores, 1u);
    EXPECT_TRUE(fs::exists(dir / store::artifactFileName(key)));

    // A later process (fresh memory tier, same store) never compiles.
    service::DescriptionCache restarted(8);
    restarted.attachStore(disk);
    service::DescriptionCache::Lookup lookup;
    auto again = restarted.getOrCompile(key, compile, &lookup);
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(compiled.load(), 1);
    EXPECT_FALSE(lookup.hit);
    EXPECT_TRUE(lookup.disk);
    EXPECT_EQ(*again, *results[0]);
    fs::remove_all(dir);
}

TEST(TwoTierCache, CorruptStoredArtifactMeansRecompileNotFailure)
{
    // The acceptance guarantee: corrupting a stored artifact yields a
    // recompilation, never a caller-visible error.
    fs::path dir = freshDir("service_corrupt");
    service::ScheduleRequest req;
    req.machine = "K5";
    req.synth_ops = 200;

    {
        service::MdesService svc({.num_workers = 2,
                                  .store_dir = dir.string()});
        auto responses = svc.runBatch({req});
        ASSERT_TRUE(responses[0].ok()) << responses[0].error.message;
    }
    // Exactly one artifact was published; rot it.
    uint64_t artifacts = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".lmdes")
            continue;
        ++artifacts;
        flipByte(entry.path(), -10);
    }
    ASSERT_EQ(artifacts, 1u);

    service::MdesService svc({.num_workers = 2,
                              .store_dir = dir.string()});
    auto responses = svc.runBatch({req});
    ASSERT_TRUE(responses[0].ok()) << responses[0].error.message;
    EXPECT_FALSE(responses[0].disk_hit);

    service::DescriptionCache::Stats cs = svc.cache().stats();
    EXPECT_EQ(cs.compiles, 1u);
    EXPECT_EQ(cs.disk_hits, 0u);
    EXPECT_EQ(cs.disk_corrupt, 1u);
    // The recompiled artifact was republished and now serves restarts.
    service::MdesService healed({.num_workers = 2,
                                 .store_dir = dir.string()});
    auto after = healed.runBatch({req});
    ASSERT_TRUE(after[0].ok());
    EXPECT_TRUE(after[0].disk_hit);
    EXPECT_EQ(healed.cache().stats().compiles, 0u);
    fs::remove_all(dir);
}

TEST(TwoTierCache, DescriptionNoImageCanHoldIsCompileFailedAndNeverStored)
{
    // 8,193 resource instances need 129 RU-map words per cycle, more
    // than an image may declare. Lowering validates the image it writes,
    // so the request fails to compile, and nothing reaches the store to
    // be quarantined on the next load.
    fs::path dir = freshDir("too_wide");
    service::ScheduleRequest req;
    req.source = R"(
machine "huge" {
    resource R[4096];
    resource S[4096];
    resource T[1];
    ortree O { option { use T[0] at 0; } }
    table Tbl = and(O);
    operation OP { table Tbl; latency 1; }
}
)";
    req.sasm = "block\n  OP r1 <- r2\nend\n";
    for (int run = 0; run < 2; ++run) {
        service::MdesService svc({.num_workers = 1,
                                  .store_dir = dir.string()});
        auto responses = svc.runBatch({req});
        EXPECT_EQ(responses[0].error.code,
                  service::ErrorCode::CompileFailed);
        EXPECT_NE(responses[0].error.message.find("slot_words 129"),
                  std::string::npos)
            << responses[0].error.message;
        EXPECT_TRUE(listing(dir).empty());
        EXPECT_EQ(svc.cache().stats().disk_corrupt, 0u);
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace mdes
