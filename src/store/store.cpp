#include "store/store.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <system_error>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <sstream>
#include <thread>

#include "lmdes/image.h"
#include "support/diagnostics.h"
#include "support/faultsim.h"
#include "support/fnv.h"
#include "support/io_retry.h"
#include "support/rng.h"
#include "support/trace.h"

namespace mdes::store {

namespace fs = std::filesystem;

namespace {

constexpr char kStoreMagic[4] = {'M', 'D', 'S', 'T'};
// Version 2 appended the whole-file integrity trailer. Version 3 pads
// the header to kImageAlign and stores the LMDES payload as the
// position-independent v7 image, which a load attaches in place in the
// buffer it read the file into. Version 4 keeps the layout:
// its artifacts come from a pipeline whose Section 8 passes skip tables
// with overlapping subtrees, which earlier ones may have reordered
// under the same key.
constexpr uint32_t kStoreVersion = 4;
/** The v7 image starts on this boundary so its 64-byte-aligned internal
 * sections stay aligned within the file. */
constexpr size_t kImageAlign = lmdes::v7::kAlign;
/** Bytes of the FNV-1a trailer covering header + payload. Without it a
 * bit flip inside the header's unvalidated fields (timestamps, label
 * strings) would be served silently; with it any flipped or missing
 * byte anywhere in the artifact reads as Corrupt. */
constexpr size_t kTrailerBytes = 8;
/** Header strings (creator, machine) are short labels, not payloads. */
constexpr uint32_t kMaxHeaderString = 4096;
/** The longest header: magic, version, three u64s, two strings. */
constexpr size_t kMaxHeaderBytes = 4 + 4 + 3 * 8 + 2 * (4 + kMaxHeaderString);
/** The largest artifact storeOnce can write: the longest header padded
 * to kImageAlign, the largest image fromImage accepts, and the trailer.
 * A longer file is not one of ours; a load rejects it before allocating
 * a buffer for it. */
constexpr uint64_t kMaxArtifactBytes =
    (kMaxHeaderBytes + kImageAlign - 1) / kImageAlign * kImageAlign +
    lmdes::v7::kMaxImageBytes + kTrailerBytes;

std::string
hexKey(uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)key);
    return buf;
}

uint64_t
nowUnix()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::seconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count());
}

/** The key of a store entry named "<16 hex digits>.<ext>"; false for
 * any other name (a temp file, or a file the store did not write). */
bool
entryKey(const std::string &name, uint64_t *key)
{
    if (name.size() < 18 || name[16] != '.')
        return false;
    auto [end, ec] = std::from_chars(name.data(), name.data() + 16, *key, 16);
    return ec == std::errc() && end == name.data() + 16;
}

/** file_time_type -> unix seconds (portable pre-clock_cast dance). */
int64_t
fileTimeToUnix(fs::file_time_type t)
{
    using namespace std::chrono;
    auto sys = time_point_cast<system_clock::duration>(
        t - fs::file_time_type::clock::now() + system_clock::now());
    return duration_cast<seconds>(sys.time_since_epoch()).count();
}

void
writeU32(std::ostream &os, uint32_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
writeU64(std::ostream &os, uint64_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
writeStr(std::ostream &os, const std::string &s)
{
    writeU32(os, uint32_t(s.size()));
    os.write(s.data(), std::streamsize(s.size()));
}

/** Bounds-checked cursor over an in-memory artifact: the file a load
 * read, or the header prefix list() reads. */
class MemReader
{
  public:
    MemReader(const char *data, size_t size) : data_(data), size_(size) {}

    size_t offset() const { return off_; }

    void
    readBytes(void *out, size_t n, const char *what)
    {
        if (size_ - off_ < n)
            throw MdesError(
                std::string("truncated store header reading ") + what);
        std::memcpy(out, data_ + off_, n);
        off_ += n;
    }

    uint32_t
    readU32(const char *what)
    {
        uint32_t v = 0;
        readBytes(&v, sizeof(v), what);
        return v;
    }

    uint64_t
    readU64(const char *what)
    {
        uint64_t v = 0;
        readBytes(&v, sizeof(v), what);
        return v;
    }

    std::string
    readStr(const char *what)
    {
        uint32_t n = readU32(what);
        if (n > kMaxHeaderString)
            throw MdesError(
                std::string("implausible store header string (") + what +
                "): " + std::to_string(n) + " bytes");
        std::string s(n, '\0');
        readBytes(s.data(), n, what);
        return s;
    }

  private:
    const char *data_;
    size_t size_;
    size_t off_ = 0;
};

} // namespace

uint64_t
configFingerprint(const PipelineConfig &transforms, bool bit_vector,
                  exp::Rep rep)
{
    // Every field that changes the compiled artifact must feed the
    // fingerprint; keep in sync with PipelineConfig.
    uint64_t h = fnv::kOffsetBasis;
    fnv::mixByte(h, transforms.cse);
    fnv::mixByte(h, transforms.redundant_options);
    fnv::mixByte(h, transforms.minimize);
    fnv::mixByte(h, transforms.time_shift);
    fnv::mixByte(h, transforms.sort_usages);
    fnv::mixByte(h, transforms.hoist);
    fnv::mixByte(h, transforms.sort_or_trees);
    fnv::mixByte(h, static_cast<uint8_t>(transforms.direction));
    fnv::mixByte(h, bit_vector);
    fnv::mixByte(h, static_cast<uint8_t>(rep));
    return h;
}

uint64_t
artifactKey(std::string_view source, const PipelineConfig &transforms,
            bool bit_vector, exp::Rep rep)
{
    uint64_t h = fnv::hashBytes(source.data(), source.size());
    uint64_t fp = configFingerprint(transforms, bit_vector, rep);
    fnv::mixBytes(h, &fp, sizeof(fp));
    return h;
}

std::string
artifactFileName(uint64_t key)
{
    return hexKey(key) + ".lmdes";
}

std::string
quarantineFileName(uint64_t key)
{
    return hexKey(key) + ".bad";
}

/** The self-describing artifact header preceding the LMDES stream. */
struct ArtifactStore::Header
{
    uint64_t key = 0;
    uint64_t config_fingerprint = 0;
    uint64_t created_unix = 0;
    std::string creator;
    std::string machine;

    void
    write(std::ostream &os) const
    {
        os.write(kStoreMagic, 4);
        writeU32(os, kStoreVersion);
        writeU64(os, key);
        writeU64(os, config_fingerprint);
        writeU64(os, created_unix);
        writeStr(os, creator);
        writeStr(os, machine);
    }

    /** Read the magic and return the container version; throws
     * MdesError on a bad magic or truncation. */
    static uint32_t
    readVersion(MemReader &r)
    {
        char magic[4] = {};
        r.readBytes(magic, 4, "magic");
        if (std::memcmp(magic, kStoreMagic, 4) != 0)
            throw MdesError("not a store artifact (bad MDST magic)");
        return r.readU32("version");
    }

    /** Read the fields after the version (the layout of every known
     * version); throws MdesError on truncation or a key other than
     * @p expected_key. */
    static Header
    readFields(MemReader &r, uint64_t expected_key)
    {
        Header h;
        h.key = r.readU64("key");
        if (h.key != expected_key)
            throw MdesError("store artifact labeled with key " +
                            hexKey(h.key) + ", expected " +
                            hexKey(expected_key));
        h.config_fingerprint = r.readU64("config fingerprint");
        h.created_unix = r.readU64("creation time");
        h.creator = r.readStr("creator");
        h.machine = r.readStr("machine");
        return h;
    }
};

ArtifactStore::ArtifactStore(StoreConfig config)
    : config_(std::move(config))
{
    std::error_code ec;
    fs::create_directories(config_.dir, ec);
    if (ec || !fs::is_directory(config_.dir))
        throw MdesError("cannot create store directory '" + config_.dir +
                        "': " + ec.message());
    // A writer killed between temp-write and rename (kill -9, OOM,
    // crash) leaves a ".tmp-*" orphan that the keyed walks in
    // prune()/list() skip forever. Sweep them at open: any live
    // publisher whose temp we race loses one rename, retries with a
    // fresh temp name, and succeeds.
    const uint64_t swept = sweepResidue();
    if (swept > 0) {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.residue_swept += swept;
    }
}

uint64_t
ArtifactStore::sweepResidue()
{
    uint64_t removed = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(config_.dir, ec)) {
        if (!de.is_regular_file(ec))
            continue;
        const std::string name = de.path().filename().string();
        if (name.rfind(".tmp-", 0) != 0)
            continue;
        std::error_code rmec;
        if (fs::remove(de.path(), rmec) && !rmec)
            ++removed;
    }
    return removed;
}

std::string
ArtifactStore::pathFor(const std::string &name) const
{
    return (fs::path(config_.dir) / name).string();
}

void
ArtifactStore::backoff(uint64_t key, uint32_t attempt,
                       const std::function<bool()> &cancel)
{
    if (cancel && cancel())
        throw CancelledError("store retry abandoned");
    uint64_t delay = uint64_t(config_.retry.base_delay_us) << attempt;
    if (delay > config_.retry.max_delay_us)
        delay = config_.retry.max_delay_us;
    // Deterministic jitter: concurrent retriers of different keys
    // de-correlate, while replays of one key reproduce exactly.
    Rng rng(key ^ (uint64_t(attempt) << 48));
    delay = delay / 2 + rng.below(delay / 2 + 1);
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.retries;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
}

ArtifactStore::LoadOutcome
ArtifactStore::parseArtifact(const char *data, size_t size, uint64_t key,
                             const std::shared_ptr<const void> &backing,
                             std::shared_ptr<const lmdes::LowMdes> *out)
{
    // Verify the integrity trailer before touching the contents: the
    // last 8 bytes checksum everything before them. This is the one
    // whole-artifact scan a load performs ("checksum verified once at
    // open"); the LMDES image's own checksum is skipped because the
    // trailer already covers those bytes.
    if (size < kTrailerBytes)
        return LoadOutcome::Corrupt;
    uint64_t stored_sum = 0;
    std::memcpy(&stored_sum, data + size - kTrailerBytes, kTrailerBytes);
    if (fnv::hashBytes(data, size - kTrailerBytes) != stored_sum)
        return LoadOutcome::Corrupt;
    const size_t body_size = size - kTrailerBytes;
    try {
        MemReader r(data, body_size);
        if (Header::readVersion(r) != kStoreVersion)
            return LoadOutcome::Stale;
        Header::readFields(r, key);
        const size_t img_off =
            (r.offset() + kImageAlign - 1) / kImageAlign * kImageAlign;
        if (img_off > body_size)
            return LoadOutcome::Corrupt;
        lmdes::LowMdes low = lmdes::LowMdes::fromImage(
            data + img_off, body_size - img_off,
            lmdes::ImageSource{backing, /*verify_checksum=*/false});
        *out = std::make_shared<const lmdes::LowMdes>(std::move(low));
        return LoadOutcome::Hit;
    } catch (const lmdes::MdesVersionError &) {
        // The container is current but the image inside speaks another
        // LMDES version: still "written by another release", not damage.
        return LoadOutcome::Stale;
    } catch (const std::exception &) {
        return LoadOutcome::Corrupt;
    }
}

ArtifactStore::LoadOutcome
ArtifactStore::loadOnce(uint64_t key,
                        std::shared_ptr<const lmdes::LowMdes> *out)
{
    std::string path = pathFor(artifactFileName(key));
    if (faultsim::probe(faultsim::Site::StoreOpenRead).fired)
        return LoadOutcome::TransientIo;
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        // Distinguish "not there" (a plain miss) from "there but
        // unreadable" (worth a retry: NFS hiccup, EMFILE, ...).
        return errno == ENOENT ? LoadOutcome::Miss
                               : LoadOutcome::TransientIo;
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        ::close(fd);
        return LoadOutcome::TransientIo;
    }
    const uint64_t file_size = uint64_t(st.st_size);
    if (file_size < kTrailerBytes || file_size > kMaxArtifactBytes) {
        ::close(fd);
        return LoadOutcome::Corrupt;
    }
    // The one copy: the returned LowMdes owns this buffer, so it serves
    // the bytes validated here whatever later happens to the file.
    // uint64_t elements give fromImage the alignment it needs.
    size_t size = size_t(file_size);
    std::shared_ptr<std::vector<uint64_t>> buf;
    try {
        buf = std::make_shared<std::vector<uint64_t>>((size + 7) / 8);
    } catch (const std::bad_alloc &) {
        // Out of memory is no fault of the file: retry, then recompile.
        ::close(fd);
        return LoadOutcome::TransientIo;
    }
    char *bytes = reinterpret_cast<char *>(buf->data());
    const ssize_t got = io::readRetry(fd, bytes, size);
    ::close(fd);
    if (got < 0 || size_t(got) != size)
        return LoadOutcome::TransientIo;

    // Simulated truncation and bit rot mangle the bytes just read, so
    // the trailer check sees what a damaged disk would feed it.
    if (faultsim::FireInfo fi =
            faultsim::probe(faultsim::Site::StoreShortRead);
        fi.fired)
        size = fi.value % size;
    if (faultsim::FireInfo fi =
            faultsim::probe(faultsim::Site::StoreCorruptByte);
        fi.fired && size > 0)
        bytes[fi.value % size] ^= char(1u << ((fi.value >> 32) % 8));

    const LoadOutcome outcome = parseArtifact(bytes, size, key, buf, out);
    if (outcome == LoadOutcome::Hit) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.hits;
        ++stats_.mapped_hits;
    }
    return outcome;
}

std::shared_ptr<const lmdes::LowMdes>
ArtifactStore::load(uint64_t key, const std::function<bool()> &cancel)
{
    TRACE_SPAN("store/load");
    for (uint32_t attempt = 0;; ++attempt) {
        std::shared_ptr<const lmdes::LowMdes> low;
        switch (loadOnce(key, &low)) {
        case LoadOutcome::Hit: {
            // Counted by loadOnce. The artifact's mtime is its
            // last-access time: the eviction sweep now sees this entry
            // as recently used.
            std::error_code ec;
            fs::last_write_time(pathFor(artifactFileName(key)),
                                fs::file_time_type::clock::now(), ec);
            return low;
        }
        case LoadOutcome::Miss: {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.misses;
            return nullptr;
        }
        case LoadOutcome::Corrupt:
            // Corrupt, truncated, or mislabeled: a miss, never an
            // error, and never retried - damage does not heal.
            // Quarantine so the next publish starts clean and the bad
            // bytes stay inspectable.
            quarantine(key);
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.corrupt;
                ++stats_.misses;
            }
            return nullptr;
        case LoadOutcome::Stale: {
            // Written by another format version: perfectly healthy
            // bytes this build cannot use. Evict silently (no .bad
            // residue, no corrupt count) so an upgrade reads as a cache
            // flush, then let the caller recompile and republish.
            std::error_code ec;
            fs::remove(pathFor(artifactFileName(key)), ec);
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.stale_evicted;
            ++stats_.misses;
            return nullptr;
        }
        case LoadOutcome::TransientIo:
            if (attempt + 1 >= config_.retry.max_attempts) {
                // Out of patience: a miss - the caller recompiles, the
                // next publish refreshes the entry.
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.misses;
                return nullptr;
            }
            backoff(key, attempt, cancel);
            break;
        }
    }
}

bool
ArtifactStore::storeOnce(uint64_t key, const lmdes::LowMdes &low,
                         uint64_t config_fingerprint)
{
    static std::atomic<uint64_t> tmp_counter{0};
    std::string tmp =
        pathFor(".tmp-" + hexKey(key) + "-" +
                std::to_string(uint64_t(::getpid())) + "-" +
                std::to_string(tmp_counter.fetch_add(1)));
    Header header;
    header.key = key;
    header.config_fingerprint = config_fingerprint;
    header.created_unix = nowUnix();
    header.creator = config_.creator;
    header.machine = low.machineName();
    try {
        {
            faultsim::maybeThrow(faultsim::Site::StoreOpenWrite,
                                 "cannot open temp file");
            std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
            if (!out)
                throw MdesError("cannot open temp file");
            // Serialize to memory first so the integrity trailer can
            // cover header and payload alike. The header is zero-padded
            // to kImageAlign so the v7 image's 64-byte-aligned sections
            // land aligned in the file.
            std::ostringstream body;
            header.write(body);
            const size_t header_end = size_t(body.tellp());
            const size_t img_off = (header_end + kImageAlign - 1) /
                                   kImageAlign * kImageAlign;
            static const char zeros[kImageAlign] = {};
            body.write(zeros, std::streamsize(img_off - header_end));
            body.write(low.image().data(),
                       std::streamsize(low.image().size()));
            const std::string payload = body.str();
            out.write(payload.data(),
                      std::streamsize(payload.size()));
            writeU64(out, fnv::hashBytes(payload.data(), payload.size()));
            faultsim::maybeThrow(faultsim::Site::StoreWrite,
                                 "short write");
            out.flush();
            if (!out)
                throw MdesError("short write");
            faultsim::maybeThrow(faultsim::Site::StoreFsync,
                                 "fsync failed");
        }
        // The publish: readers see nothing or everything, and the
        // artifact's mtime, its last-access time, is the time of the
        // write just finished.
        faultsim::maybeThrow(faultsim::Site::StoreRename,
                             "rename failed");
        fs::rename(tmp, pathFor(artifactFileName(key)));
        // A fresh publish supersedes any quarantined predecessor.
        std::error_code ec;
        fs::remove(pathFor(quarantineFileName(key)), ec);
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.stores;
        }
        if (config_.max_bytes > 0)
            prune(config_.max_bytes);
        return true;
    } catch (const std::exception &) {
        std::error_code ec;
        fs::remove(tmp, ec);
        return false;
    }
}

bool
ArtifactStore::store(uint64_t key, const lmdes::LowMdes &low,
                     uint64_t config_fingerprint,
                     const std::function<bool()> &cancel)
{
    TRACE_SPAN("store/publish");
    for (uint32_t attempt = 0;; ++attempt) {
        if (storeOnce(key, low, config_fingerprint))
            return true;
        if (attempt + 1 >= config_.retry.max_attempts)
            break;
        try {
            backoff(key, attempt, cancel);
        } catch (const CancelledError &) {
            // Publishing is best-effort; an abandoned publish is a
            // failure, not an error the caller must handle.
            break;
        }
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.store_failures;
    return false;
}

void
ArtifactStore::quarantine(uint64_t key)
{
    std::error_code ec;
    fs::remove(pathFor(quarantineFileName(key)), ec);
    fs::rename(pathFor(artifactFileName(key)),
               pathFor(quarantineFileName(key)), ec);
    if (ec)
        fs::remove(pathFor(artifactFileName(key)), ec);
}

PruneResult
ArtifactStore::prune(uint64_t max_bytes)
{
    struct Entry
    {
        uint64_t key;
        uint64_t bytes;
        fs::file_time_type last_access;
    };
    PruneResult result;
    std::vector<Entry> entries;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(config_.dir, ec)) {
        if (!de.is_regular_file(ec))
            continue;
        fs::path p = de.path();
        const std::string name = p.filename().string();
        if (name.rfind(".tmp-", 0) == 0) {
            // Orphaned publish temp (crashed writer); same rationale
            // as the open-time sweep in the constructor.
            std::error_code rmec;
            if (fs::remove(p, rmec) && !rmec)
                ++result.residue_removed;
            continue;
        }
        uint64_t key = 0;
        if (!entryKey(name, &key))
            continue;
        if (p.extension() != ".lmdes") {
            // Only artifacts survive a sweep: a quarantined .bad file
            // (or any other keyed file) is removed.
            fs::remove(p, ec);
            continue;
        }
        Entry e;
        e.key = key;
        e.bytes = uint64_t(de.file_size(ec));
        e.last_access = de.last_write_time(ec);
        entries.push_back(e);
        result.bytes_before += e.bytes;
    }
    result.scanned = entries.size();
    result.bytes_after = result.bytes_before;

    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.last_access != b.last_access
                             ? a.last_access < b.last_access
                             : a.key < b.key;
              });
    for (const Entry &e : entries) {
        if (result.bytes_after <= max_bytes)
            break;
        fs::remove(pathFor(artifactFileName(e.key)), ec);
        result.bytes_after -= e.bytes;
        ++result.removed;
    }
    if (result.removed || result.residue_removed) {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.evictions += result.removed;
        stats_.residue_swept += result.residue_removed;
    }
    return result;
}

std::vector<ArtifactInfo>
ArtifactStore::list() const
{
    std::vector<ArtifactInfo> infos;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(config_.dir, ec)) {
        if (!de.is_regular_file(ec))
            continue;
        fs::path p = de.path();
        bool bad = p.extension() == ".bad";
        if (!bad && p.extension() != ".lmdes")
            continue;
        ArtifactInfo info;
        if (!entryKey(p.filename().string(), &info.key))
            continue;
        info.bytes = uint64_t(de.file_size(ec));
        info.quarantined = bad;
        std::ifstream in(p, std::ios::binary);
        std::string head(kMaxHeaderBytes, '\0');
        in.read(head.data(), std::streamsize(head.size()));
        head.resize(size_t(in.gcount()));
        try {
            MemReader r(head.data(), head.size());
            // Older versions share the current field layout; a newer
            // one's is unknown.
            const uint32_t version = Header::readVersion(r);
            if (version < 1 || version > kStoreVersion)
                throw MdesError("unknown store artifact version");
            Header h = Header::readFields(r, info.key);
            info.config_fingerprint = h.config_fingerprint;
            info.created_unix = h.created_unix;
            info.creator = h.creator;
            info.machine = h.machine;
            info.stale = !bad && version != kStoreVersion;
        } catch (const std::exception &) {
            // Unreadable header: report the file with bare sizes.
        }
        info.last_access_unix = fileTimeToUnix(de.last_write_time(ec));
        infos.push_back(std::move(info));
    }
    return infos;
}

StoreStats
ArtifactStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace mdes::store
