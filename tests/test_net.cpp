/**
 * @file
 * mdes::net tests.
 *
 * Framing: the fuzz/property suite the decoder's contract demands -
 * round-trip random frames through arbitrary fragmentation, truncate
 * the stream at every byte offset, flip length prefixes - asserting
 * the decoder never reads past its buffer, never crashes, and yields
 * a typed ProtoError for every malformed input.
 *
 * Grammar: renderRequestLine() round-trips through parseRequestLine()
 * field-for-field, and network-mode parsing rejects file references.
 *
 * Server: end-to-end over loopback in both wire modes, asserting
 * bit-identical schedule fingerprints against in-process runs, typed
 * Overloaded shedding under a tiny admission queue, deadline expiry
 * from the frame header, protocol-error close, and the net metrics
 * section. Everything binds port 0 (ephemeral) so tests never collide.
 *
 * Shard mode: a forked `--shards 2` fleet answers a bare STAT or HEALTH
 * on a fresh connection with the fleet view, which sums every shard's
 * counters and histograms exactly, anything after a request with one
 * shard's, serves bit-identical fingerprints in both wire modes,
 * shrugs off unread STAT floods, leaves no wakeup behind for a socket
 * it handed to the supervisor, and exits once every slot is
 * quarantined.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "service/request_parse.h"
#include "service/service.h"
#include "service/stats.h"
#include "support/diagnostics.h"
#include "support/json.h"
#include "support/rng.h"

namespace mdes {
namespace {

using net::Frame;
using net::FrameDecoder;
using net::FrameType;
using net::ProtoError;

Frame
randomFrame(Rng &rng)
{
    Frame f;
    constexpr FrameType kTypes[] = {FrameType::Request,
                                    FrameType::Response, FrameType::Error,
                                    FrameType::Ping, FrameType::Pong};
    f.type = kTypes[rng.below(5)];
    f.deadline_ms = uint32_t(rng.below(100000));
    f.id = rng.next();
    f.route = rng.next();
    size_t len = size_t(rng.below(300));
    f.payload.resize(len);
    for (char &c : f.payload)
        c = char(rng.below(256));
    return f;
}

void
expectFrameEq(const Frame &a, const Frame &b)
{
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.deadline_ms, b.deadline_ms);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.route, b.route);
    EXPECT_EQ(a.payload, b.payload);
}

TEST(Frame, RoundTripsThroughArbitraryFragmentation)
{
    Rng rng(42);
    for (int iter = 0; iter < 200; ++iter) {
        std::vector<Frame> frames;
        std::string wire;
        size_t n = 1 + rng.below(5);
        for (size_t i = 0; i < n; ++i) {
            frames.push_back(randomFrame(rng));
            wire += net::encodeFrame(frames.back());
        }

        // Feed the stream in random fragments (including empty ones).
        FrameDecoder dec;
        std::vector<Frame> out;
        size_t off = 0;
        while (off < wire.size()) {
            size_t chunk =
                std::min(wire.size() - off, rng.below(40 + 1));
            dec.feed(wire.data() + off, chunk);
            off += chunk;
            Frame f;
            FrameDecoder::Status st;
            while ((st = dec.next(&f)) == FrameDecoder::Status::Ready)
                out.push_back(f);
            ASSERT_EQ(st, FrameDecoder::Status::NeedMore);
        }
        ASSERT_EQ(out.size(), frames.size());
        for (size_t i = 0; i < frames.size(); ++i)
            expectFrameEq(out[i], frames[i]);
        EXPECT_EQ(dec.buffered(), 0u);
        EXPECT_EQ(dec.error(), ProtoError::None);
    }
}

TEST(Frame, TakeResidueRestoresPipelinedBytes)
{
    // A reader that decodes past the frame it wanted must be able to
    // hand the surplus bytes back (BlockingClient restores them to its
    // input buffer); a fresh decoder fed the residue yields exactly
    // the remaining frames.
    Rng rng(7);
    Frame first = randomFrame(rng);
    Frame second = randomFrame(rng);
    std::string wire = net::encodeFrame(first) + net::encodeFrame(second);
    // Plus a torn prefix of a third frame: residue is raw bytes, not
    // whole frames, and the partial tail must survive the handoff.
    std::string tail = net::encodeFrame(randomFrame(rng));
    wire += tail.substr(0, net::kHeaderSize / 2);

    FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    Frame out;
    ASSERT_EQ(dec.next(&out), FrameDecoder::Status::Ready);
    expectFrameEq(out, first);

    std::string residue = dec.takeResidue();
    EXPECT_EQ(dec.buffered(), 0u);
    EXPECT_EQ(residue.size(),
              net::kHeaderSize + second.payload.size() + net::kHeaderSize / 2);

    FrameDecoder dec2;
    dec2.feed(residue.data(), residue.size());
    ASSERT_EQ(dec2.next(&out), FrameDecoder::Status::Ready);
    expectFrameEq(out, second);
    ASSERT_EQ(dec2.next(&out), FrameDecoder::Status::NeedMore);
    EXPECT_EQ(dec2.buffered(), net::kHeaderSize / 2);
}

TEST(Frame, TruncationAtEveryOffsetNeverCompletesOrCrashes)
{
    Rng rng(7);
    Frame f = randomFrame(rng);
    f.payload = "machine=K5 sched=list ops=10";
    const std::string wire = net::encodeFrame(f);

    for (size_t cut = 0; cut < wire.size(); ++cut) {
        FrameDecoder dec;
        dec.feed(wire.data(), cut);
        Frame out;
        // A strict prefix of a valid frame decodes to nothing - only
        // NeedMore, never Ready, never Error, never an over-read.
        EXPECT_EQ(dec.next(&out), FrameDecoder::Status::NeedMore)
            << "cut at " << cut;
        EXPECT_EQ(dec.error(), ProtoError::None);
        EXPECT_EQ(dec.buffered(), cut);
        // Completing the stream still yields the frame intact.
        dec.feed(wire.data() + cut, wire.size() - cut);
        ASSERT_EQ(dec.next(&out), FrameDecoder::Status::Ready);
        expectFrameEq(out, f);
    }
}

TEST(Frame, FlippedLengthPrefixesErrorOrDemandExactlyThatMuch)
{
    Rng rng(13);
    Frame f = randomFrame(rng);
    f.type = FrameType::Request;
    f.payload = "machine=Pentium";
    const std::string wire = net::encodeFrame(f);

    // Flip every bit of the payload_len field (header offset 8..11).
    for (int bit = 0; bit < 32; ++bit) {
        std::string mutated = wire;
        mutated[8 + bit / 8] ^= char(1u << (bit % 8));
        uint32_t len = 0;
        std::memcpy(&len, mutated.data() + 8, 4); // LE host assumed in CI
        FrameDecoder dec;
        dec.feed(mutated.data(), mutated.size());
        Frame out;
        FrameDecoder::Status st = dec.next(&out);
        if (len > net::kMaxPayload) {
            EXPECT_EQ(st, FrameDecoder::Status::Error) << "bit " << bit;
            EXPECT_EQ(dec.error(), ProtoError::OversizedPayload);
            // Poisoned: more bytes never resurrect the stream.
            dec.feed(wire.data(), wire.size());
            EXPECT_EQ(dec.next(&out), FrameDecoder::Status::Error);
        } else if (len > f.payload.size()) {
            // Claims more payload than present: must wait, not over-read.
            EXPECT_EQ(st, FrameDecoder::Status::NeedMore) << "bit " << bit;
        } else {
            // Claims less: decodes a short frame, surplus stays buffered.
            ASSERT_EQ(st, FrameDecoder::Status::Ready) << "bit " << bit;
            EXPECT_EQ(out.payload.size(), len);
            EXPECT_EQ(dec.buffered(), f.payload.size() - len);
        }
    }
}

TEST(Frame, EveryHeaderViolationYieldsItsTypedError)
{
    const std::string good = net::encodeFrame(Frame{});
    struct Case
    {
        size_t offset;
        char value;
        ProtoError want;
    };
    const Case cases[] = {
        {0, 'X', ProtoError::BadMagic},    // magic
        {4, 2, ProtoError::BadVersion},    // version
        {5, 0, ProtoError::BadType},       // type 0 is invalid
        {5, 9, ProtoError::BadType},       // type out of range
        {6, 1, ProtoError::BadFlags},      // reserved flags nonzero
    };
    for (const Case &c : cases) {
        std::string mutated = good;
        mutated[c.offset] = c.value;
        FrameDecoder dec;
        dec.feed(mutated.data(), mutated.size());
        Frame out;
        EXPECT_EQ(dec.next(&out), FrameDecoder::Status::Error)
            << "offset " << c.offset;
        EXPECT_EQ(dec.error(), c.want) << "offset " << c.offset;
        EXPECT_STRNE(net::protoErrorName(dec.error()), "?");
    }
}

TEST(Frame, EncodeRejectsOversizedPayloadAsCallerBug)
{
    Frame f;
    f.payload.assign(net::kMaxPayload + 1, 'x');
    EXPECT_THROW(net::encodeFrame(f), MdesError);
}

TEST(Frame, GarbageBytesNeverCrashTheDecoder)
{
    Rng rng(99);
    for (int iter = 0; iter < 500; ++iter) {
        std::string junk(1 + rng.below(200), '\0');
        for (char &c : junk)
            c = char(rng.below(256));
        FrameDecoder dec;
        dec.feed(junk.data(), junk.size());
        Frame out;
        // Drain until the decoder rests; any outcome is fine except a
        // crash or an over-read (ASan holds the latter).
        while (dec.next(&out) == FrameDecoder::Status::Ready) {
        }
    }
}

TEST(RequestGrammar, RenderedLinesParseBackToEqualRequests)
{
    using service::ScheduleRequest;
    std::vector<ScheduleRequest> reqs;
    {
        ScheduleRequest r;
        r.machine = "K5";
        r.scheduler = service::SchedulerKind::Modulo;
        r.synth_ops = 123;
        r.seed = 7;
        r.deadline_ms = 250;
        reqs.push_back(r);
    }
    {
        ScheduleRequest r;
        r.machine = "Pentium";
        r.transforms = PipelineConfig::none();
        r.bit_vector = false;
        r.verify = true;
        reqs.push_back(r);
    }
    {
        ScheduleRequest r;
        r.machine = "PA8000";
        r.transforms = PipelineConfig::none();
        r.transforms.cse = true;
        r.transforms.hoist = true;
        reqs.push_back(r);
    }
    for (const ScheduleRequest &r : reqs) {
        std::string line = service::renderRequestLine(r);
        service::ScheduleRequest back =
            service::parseRequestLine(line, 1);
        EXPECT_EQ(back.machine, r.machine) << line;
        EXPECT_EQ(back.scheduler, r.scheduler) << line;
        EXPECT_EQ(back.synth_ops, r.synth_ops) << line;
        EXPECT_EQ(back.seed, r.seed) << line;
        EXPECT_EQ(back.deadline_ms, r.deadline_ms) << line;
        EXPECT_EQ(back.bit_vector, r.bit_vector) << line;
        EXPECT_EQ(back.verify, r.verify) << line;
        EXPECT_EQ(back.transforms.cse, r.transforms.cse) << line;
        EXPECT_EQ(back.transforms.minimize, r.transforms.minimize)
            << line;
        EXPECT_EQ(back.transforms.hoist, r.transforms.hoist) << line;
        EXPECT_EQ(back.transforms.sort_or_trees,
                  r.transforms.sort_or_trees)
            << line;
    }
}

TEST(RequestGrammar, NetworkModeRejectsFileReferences)
{
    service::RequestParseOptions opts;
    opts.allow_files = false;
    EXPECT_THROW(
        service::parseRequestLine("source=/etc/passwd", 1, opts),
        MdesError);
    EXPECT_THROW(service::parseRequestLine(
                     "machine=K5 sasm=secret.sasm", 1, opts),
                 MdesError);
    // The same lines are fine when files are allowed (they fail later
    // on open, which is not the parser's concern here).
    EXPECT_NO_THROW(service::parseRequestLine("machine=K5", 1, opts));
}

/** Requests whose responses the socket tests compare in-process. */
std::vector<service::ScheduleRequest>
testMix()
{
    std::vector<service::ScheduleRequest> mix;
    const char *names[] = {"K5", "Pentium", "PA7100"};
    for (const char *name : names) {
        service::ScheduleRequest r;
        r.machine = name;
        r.synth_ops = 60;
        r.seed = 11;
        mix.push_back(r);
    }
    return mix;
}

TEST(NetServer, BinaryModeMatchesInProcessFingerprints)
{
    std::vector<service::ScheduleRequest> mix = testMix();

    service::ServiceConfig cfg;
    cfg.num_workers = 2;
    service::MdesService local(cfg);
    std::vector<service::ScheduleResponse> want = local.runBatch(mix);

    net::ServerConfig sc;
    sc.service.num_workers = 2;
    net::Server server(sc);
    server.start();

    net::BlockingClient client("127.0.0.1", server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.ping());
    for (size_t i = 0; i < mix.size(); ++i) {
        net::NetResponse r = client.request(
            service::renderRequestLine(mix[i]), 0, net::routeKey(mix[i]));
        ASSERT_TRUE(r.ok()) << r.error << ": " << r.message;
        ASSERT_TRUE(want[i].ok());
        EXPECT_EQ(r.fingerprint, service::scheduleFingerprint(want[i]))
            << mix[i].machine;
        EXPECT_EQ(r.machine, want[i].machine);
    }
    server.stop();

    service::ServiceMetrics m = server.metrics();
    EXPECT_TRUE(m.net.enabled);
    EXPECT_EQ(m.net.accepted, 1u);
    EXPECT_EQ(m.net.closed, 1u);
    EXPECT_EQ(m.net.active, 0u);
    // Ping + 3 requests in; pong + 3 responses out.
    EXPECT_EQ(m.net.frames_in, 4u);
    EXPECT_EQ(m.net.frames_out, 4u);
    EXPECT_GT(m.net.bytes_in, 0u);
    EXPECT_GT(m.net.bytes_out, 0u);
    EXPECT_EQ(m.net.protocol_errors, 0u);
    EXPECT_TRUE(m.shedConsistent());
}

TEST(NetServer, JsonModeMatchesBinaryFingerprints)
{
    std::vector<service::ScheduleRequest> mix = testMix();

    net::ServerConfig sc;
    sc.service.num_workers = 2;
    net::Server server(sc);
    server.start();

    net::BlockingClient bin("127.0.0.1", server.port(), false);
    net::BlockingClient json("127.0.0.1", server.port(), true);
    ASSERT_TRUE(bin.connected());
    ASSERT_TRUE(json.connected());
    for (const service::ScheduleRequest &req : mix) {
        std::string line = service::renderRequestLine(req);
        net::NetResponse a = bin.request(line);
        net::NetResponse b = json.request(line);
        ASSERT_TRUE(a.ok()) << a.error;
        ASSERT_TRUE(b.ok()) << b.error;
        EXPECT_EQ(a.fingerprint, b.fingerprint) << line;
    }
    server.stop();
}

TEST(NetServer, OverloadShedsWithTypedErrorNeverSilently)
{
    net::ServerConfig sc;
    sc.service.num_workers = 1;
    sc.service.max_queue = 1; // shed almost everything concurrent
    net::Server server(sc);
    server.start();

    // Hammer from several connections at once so submissions overlap.
    constexpr int kClients = 4, kPerClient = 8;
    std::atomic<uint64_t> ok{0}, shed{0}, other{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            net::BlockingClient client("127.0.0.1", server.port());
            ASSERT_TRUE(client.connected());
            for (int i = 0; i < kPerClient; ++i) {
                service::ScheduleRequest r;
                r.machine = "K5";
                r.synth_ops = 150;
                r.seed = uint64_t(c * kPerClient + i + 1);
                net::NetResponse resp =
                    client.request(service::renderRequestLine(r));
                ASSERT_TRUE(resp.transport_ok);
                if (resp.code == service::ErrorCode::Ok)
                    ++ok;
                else if (resp.code == service::ErrorCode::Overloaded)
                    ++shed;
                else
                    ++other;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    server.stop();

    // Every request got a typed outcome; only Ok or Overloaded occur.
    EXPECT_EQ(ok + shed + other, uint64_t(kClients * kPerClient));
    EXPECT_EQ(other, 0u);
    EXPECT_GT(ok, 0u);

    service::ServiceMetrics m = server.metrics();
    EXPECT_TRUE(m.shedConsistent());
    EXPECT_EQ(m.requests_shed, shed.load());
    EXPECT_EQ(m.net.shed, shed.load());
}

TEST(NetServer, FrameDeadlineExpiresAsTypedError)
{
    net::ServerConfig sc;
    sc.service.num_workers = 1;
    net::Server server(sc);
    server.start();

    net::BlockingClient client("127.0.0.1", server.port());
    ASSERT_TRUE(client.connected());

    // A deadline that has effectively already passed: the service's
    // deadline check fires before (or during) scheduling.
    service::ScheduleRequest r;
    r.machine = "SuperSPARC";
    r.synth_ops = 400;
    net::NetResponse first =
        client.request(service::renderRequestLine(r), 1);
    ASSERT_TRUE(first.transport_ok);
    // Either the request beat the 1ms deadline (tiny machine, warm CPU)
    // or it expired with the typed code - never a hang, never a reset.
    EXPECT_TRUE(first.code == service::ErrorCode::Ok ||
                first.code == service::ErrorCode::DeadlineExceeded)
        << first.error;

    // No deadline: the identical request must succeed.
    net::NetResponse second =
        client.request(service::renderRequestLine(r), 0);
    ASSERT_TRUE(second.transport_ok);
    EXPECT_EQ(second.code, service::ErrorCode::Ok) << second.error;
    server.stop();

    service::ServiceMetrics m = server.metrics();
    if (first.code == service::ErrorCode::DeadlineExceeded) {
        EXPECT_GE(m.net.deadline_expired, 1u);
    }
}

/** Plain blocking loopback connection to @p port (-1 on failure). */
int
rawConnect(uint16_t port)
{
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        close(fd);
        return -1;
    }
    return fd;
}

TEST(NetServer, HugeBadRequestEchoIsTruncatedNotFatal)
{
    net::ServerConfig sc;
    sc.service.num_workers = 1;
    net::Server server(sc);
    server.start();

    net::BlockingClient client("127.0.0.1", server.port());
    ASSERT_TRUE(client.connected());

    // A near-kMaxPayload unknown token of quote characters: the parse
    // error echoes the token and JSON escaping doubles every quote, so
    // an untruncated message could never fit back into a response
    // frame - encoding it would throw on the event-loop thread and
    // std::terminate the server. It must instead answer a bounded,
    // typed BadRequest.
    std::string huge(net::kMaxPayload - 64, '"');
    net::NetResponse bad = client.request(huge);
    ASSERT_TRUE(bad.transport_ok);
    EXPECT_EQ(bad.code, service::ErrorCode::BadRequest);
    EXPECT_LE(bad.message.size(), 600u) << "error echo not truncated";

    // Same connection and server both survived and still serve.
    service::ScheduleRequest r;
    r.machine = "K5";
    r.synth_ops = 40;
    r.seed = 5;
    net::NetResponse good =
        client.request(service::renderRequestLine(r));
    ASSERT_TRUE(good.transport_ok);
    EXPECT_EQ(good.code, service::ErrorCode::Ok) << good.error;
    server.stop();
}

TEST(NetServer, PongFloodPausesReadsInsteadOfBufferingUnbounded)
{
    net::ServerConfig sc;
    sc.service.num_workers = 1;
    sc.write_high_water = 1024; // tiny: a ping burst must trip it
    net::Server server(sc);
    server.start();

    int fd = rawConnect(server.port());
    ASSERT_GE(fd, 0);
    constexpr int kPings = 1000;
    std::string burst;
    for (int i = 0; i < kPings; ++i) {
        Frame f;
        f.type = FrameType::Ping;
        f.id = uint64_t(i + 1);
        burst += net::encodeFrame(f);
    }
    // Write the whole burst before reading anything: pongs pile up in
    // the server's outbound buffer, which must cross the high-water
    // mark and pause reads (pings produce no service completion, so
    // only the enqueue/flush paths can pause and resume).
    size_t off = 0;
    while (off < burst.size()) {
        ssize_t n = send(fd, burst.data() + off, burst.size() - off, 0);
        ASSERT_GT(n, 0);
        off += size_t(n);
    }
    // Drain: every ping still gets its pong; a connection wedged in
    // the paused state would starve this loop at EOF/timeout.
    FrameDecoder dec;
    char buf[4096];
    int pongs = 0;
    while (pongs < kPings) {
        Frame fr;
        FrameDecoder::Status st;
        while ((st = dec.next(&fr)) == FrameDecoder::Status::Ready) {
            EXPECT_EQ(fr.type, FrameType::Pong);
            ++pongs;
        }
        ASSERT_EQ(st, FrameDecoder::Status::NeedMore);
        if (pongs >= kPings)
            break;
        ssize_t n = recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0) << "connection wedged after backpressure pause";
        dec.feed(buf, size_t(n));
    }
    EXPECT_EQ(pongs, kPings);
    close(fd);
    server.stop();

    service::ServiceMetrics m = server.metrics();
    EXPECT_EQ(m.net.frames_in, uint64_t(kPings));
    EXPECT_EQ(m.net.frames_out, uint64_t(kPings));
    EXPECT_GE(m.net.backpressure_stalls, 1u);
}

TEST(NetServer, JsonWireIdsSurviveAbove53Bits)
{
    net::ServerConfig sc;
    sc.service.num_workers = 1;
    net::Server server(sc);
    server.start();

    int fd = rawConnect(server.port());
    ASSERT_GE(fd, 0);
    // 2^64-1 is not representable in a double; the id must still echo
    // bit-exactly (both ends parse the literal token, not the double).
    const std::string line =
        "{\"id\":18446744073709551615,"
        "\"req\":\"machine=K5 ops=30\"}\n";
    ASSERT_EQ(send(fd, line.data(), line.size(), 0),
              ssize_t(line.size()));
    std::string got;
    char buf[4096];
    while (got.find('\n') == std::string::npos) {
        ssize_t n = recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0);
        got.append(buf, size_t(n));
    }
    close(fd);
    net::NetResponse r =
        net::parseResponseJson(got.substr(0, got.find('\n')));
    EXPECT_EQ(r.code, service::ErrorCode::Ok) << r.message;
    EXPECT_EQ(r.id, uint64_t(18446744073709551615ull));
    server.stop();
}

TEST(NetServer, JsonWireNumbersThatDoNotFitAreBadRequests)
{
    net::ServerConfig sc;
    sc.service.num_workers = 1;
    net::Server server(sc);
    server.start();

    int fd = rawConnect(server.port());
    ASSERT_GE(fd, 0);
    // Cast instead of checked, these became id 2^64-1, id 0, id 2, a
    // 1 ms deadline and no deadline.
    const char *lines[] = {
        "{\"id\":-1,\"op\":\"health\"}",
        "{\"id\":1e300,\"op\":\"health\"}",
        "{\"id\":2.7,\"op\":\"health\"}",
        "{\"id\":4,\"req\":\"machine=K5 ops=20000\","
        "\"deadline_ms\":4294967297}",
        "{\"id\":5,\"req\":\"machine=K5 ops=20000\","
        "\"deadline_ms\":4294967296}",
    };
    std::string got;
    char buf[4096];
    for (const char *line : lines) {
        const std::string wire = std::string(line) + "\n";
        ASSERT_EQ(send(fd, wire.data(), wire.size(), 0),
                  ssize_t(wire.size()));
        while (got.find('\n') == std::string::npos) {
            ssize_t n = recv(fd, buf, sizeof(buf), 0);
            ASSERT_GT(n, 0) << line;
            got.append(buf, size_t(n));
        }
        const size_t eol = got.find('\n');
        net::NetResponse r = net::parseResponseJson(got.substr(0, eol));
        got.erase(0, eol + 1);
        EXPECT_EQ(r.code, service::ErrorCode::BadRequest) << line;
    }
    close(fd);
    server.stop();
}

TEST(NetServer, ProtocolViolationGetsErrorFrameThenClose)
{
    net::ServerConfig sc;
    sc.service.num_workers = 1;
    net::Server server(sc);
    server.start();

    net::BlockingClient probe("127.0.0.1", server.port());
    ASSERT_TRUE(probe.connected());
    ASSERT_TRUE(probe.ping());

    // Hand-roll a corrupted frame: good magic, bad version.
    std::string wire = net::encodeFrame(Frame{});
    wire[4] = 3;
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)),
              0);
    ASSERT_EQ(send(fd, wire.data(), wire.size(), 0), ssize_t(wire.size()));
    // The server answers with an Error frame naming the violation and
    // closes; read until EOF and decode what came back.
    std::string got;
    char buf[4096];
    ssize_t n;
    while ((n = recv(fd, buf, sizeof(buf), 0)) > 0)
        got.append(buf, size_t(n));
    close(fd);

    FrameDecoder dec;
    dec.feed(got.data(), got.size());
    Frame resp;
    ASSERT_EQ(dec.next(&resp), FrameDecoder::Status::Ready);
    EXPECT_EQ(resp.type, FrameType::Error);
    EXPECT_NE(resp.payload.find("bad-version"), std::string::npos)
        << resp.payload;

    // The violation never took the server down.
    EXPECT_TRUE(probe.ping());
    server.stop();
    EXPECT_GE(server.metrics().net.protocol_errors, 1u);
}

TEST(NetServer, StatFrameReturnsTheLiveStatsDocument)
{
    net::ServerConfig sc;
    sc.service.num_workers = 2;
    net::Server server(sc);
    server.start();

    net::BlockingClient client("127.0.0.1", server.port());
    ASSERT_TRUE(client.connected());
    for (const service::ScheduleRequest &req : testMix())
        ASSERT_TRUE(client.request(service::renderRequestLine(req)).ok());

    const std::string doc = client.stats();
    ASSERT_FALSE(doc.empty());
    service::StatsDocument snap = service::parseStats(doc);
    EXPECT_EQ(snap.shards, 1u);
    EXPECT_EQ(snap.metrics.requests, 3u);
    EXPECT_EQ(snap.metrics.ok, 3u);
    EXPECT_EQ(snap.metrics.total.count, 3u);
    EXPECT_EQ(snap.metrics.schedule.count, 3u);
    EXPECT_GT(snap.metrics.ops_scheduled, 0u);
    EXPECT_TRUE(snap.metrics.net.enabled);
    EXPECT_GE(snap.metrics.net.stats_requests, 1u);
    // The requests just made are inside the 60s window.
    EXPECT_EQ(snap.metrics.windows.over(snap.now_s, 60).requests, 3u);

    // The JSON-lines wire serves the identical schema via {"op":"stats"}.
    net::BlockingClient json("127.0.0.1", server.port(), true);
    ASSERT_TRUE(json.connected());
    const std::string jdoc = json.stats();
    ASSERT_FALSE(jdoc.empty());
    service::StatsDocument jsnap = service::parseStats(jdoc);
    EXPECT_EQ(jsnap.metrics.requests, 3u);
    EXPECT_GE(jsnap.metrics.net.stats_requests, 2u);
    server.stop();
}

TEST(NetServer, StatFloodCoalescesInsteadOfBufferingUnbounded)
{
    net::ServerConfig sc;
    sc.service.num_workers = 1;
    net::Server server(sc);
    server.start();

    int fd = rawConnect(server.port());
    ASSERT_GE(fd, 0);
    // Write a burst of Stat frames without reading anything. The
    // server keeps at most one stats response buffered per connection
    // and coalesces the rest, so its outbound buffer stays bounded no
    // matter how fast a dashboard polls.
    constexpr int kPolls = 400;
    std::string burst;
    for (int i = 0; i < kPolls; ++i) {
        Frame f;
        f.type = FrameType::Stat;
        f.id = uint64_t(i + 1);
        burst += net::encodeFrame(f);
    }
    size_t off = 0;
    while (off < burst.size()) {
        ssize_t n = send(fd, burst.data() + off, burst.size() - off, 0);
        ASSERT_GT(n, 0);
        off += size_t(n);
    }
    // Drain: the final answer carries the *latest* poll's id (the
    // coalesced waiters were dropped, not queued). Every received
    // payload is a well-formed stats document.
    FrameDecoder dec;
    char buf[8192];
    int responses = 0;
    for (;;) {
        Frame fr;
        FrameDecoder::Status st;
        bool saw_last = false;
        while ((st = dec.next(&fr)) == FrameDecoder::Status::Ready) {
            ASSERT_EQ(fr.type, FrameType::Response);
            ++responses;
            EXPECT_NO_THROW(service::parseStats(fr.payload));
            if (fr.id == uint64_t(kPolls))
                saw_last = true;
        }
        ASSERT_EQ(st, FrameDecoder::Status::NeedMore);
        if (saw_last)
            break;
        ssize_t n = recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0) << "connection wedged during stat flood";
        dec.feed(buf, size_t(n));
    }
    close(fd);
    server.stop();

    // Far fewer responses than polls: the flood was coalesced.
    EXPECT_LT(responses, kPolls / 2) << "stat flood was not coalesced";
    service::ServiceMetrics m = server.metrics();
    EXPECT_EQ(m.net.stats_requests, uint64_t(kPolls));
    EXPECT_GE(m.net.stats_coalesced, 1u);
    EXPECT_EQ(m.net.stats_coalesced + uint64_t(responses),
              uint64_t(kPolls));
}

TEST(NetServer, PeerClosingMidResponseNeverKillsTheServer)
{
    // SIGPIPE regression (DESIGN.md §15): a peer that writes a request
    // and slams the connection shut forces the server to write into a
    // dead socket. Without MSG_NOSIGNAL on every send that raises
    // SIGPIPE and kills the process; with it the write fails with
    // EPIPE and only that connection dies.
    net::ServerConfig sc;
    sc.service.num_workers = 1;
    net::Server server(sc);
    server.start();

    service::ScheduleRequest r;
    r.machine = "K5";
    r.synth_ops = 80;
    r.seed = 3;
    Frame f;
    f.type = FrameType::Request;
    f.payload = service::renderRequestLine(r);
    for (int i = 0; i < 8; ++i) {
        int fd = rawConnect(server.port());
        ASSERT_GE(fd, 0);
        f.id = uint64_t(i + 1);
        std::string wire = net::encodeFrame(f);
        ASSERT_EQ(send(fd, wire.data(), wire.size(), 0),
                  ssize_t(wire.size()));
        // Close without reading: the response lands on a dead socket.
        close(fd);
    }

    // The server (this process) is alive and still answers.
    net::BlockingClient probe("127.0.0.1", server.port());
    ASSERT_TRUE(probe.connected());
    EXPECT_TRUE(probe.ping());
    net::NetResponse resp =
        probe.request(service::renderRequestLine(r));
    ASSERT_TRUE(resp.transport_ok);
    EXPECT_EQ(resp.code, service::ErrorCode::Ok) << resp.error;
    server.stop();
}

TEST(NetServer, HealthOpReportsReadyInBothWireModes)
{
    net::ServerConfig sc;
    sc.service.num_workers = 1;
    net::Server server(sc);
    server.start();

    net::BlockingClient bin("127.0.0.1", server.port(), false);
    net::BlockingClient json("127.0.0.1", server.port(), true);
    ASSERT_TRUE(bin.connected());
    ASSERT_TRUE(json.connected());
    EXPECT_NE(bin.health().find("\"health\":\"ready\""),
              std::string::npos);
    EXPECT_NE(json.health().find("\"health\":\"ready\""),
              std::string::npos);
    EXPECT_FALSE(server.draining());
    server.stop();
}

TEST(NetServer, DrainFinishesInFlightShedsNewAndFlipsHealth)
{
    net::ServerConfig sc;
    sc.service.num_workers = 1;
    net::Server server(sc);
    server.start();

    // Conn A: a request in flight when the drain begins (written raw
    // so this thread does not block on the response).
    int a = rawConnect(server.port());
    ASSERT_GE(a, 0);
    service::ScheduleRequest slow;
    slow.machine = "K5";
    slow.synth_ops = 2000;
    slow.seed = 9;
    Frame f;
    f.type = FrameType::Request;
    f.id = 77;
    f.payload = service::renderRequestLine(slow);
    std::string wire = net::encodeFrame(f);
    ASSERT_EQ(send(a, wire.data(), wire.size(), 0), ssize_t(wire.size()));

    // Conn B: opened before the drain (the listen socket closes with
    // it), polling health across the flip.
    net::BlockingClient b("127.0.0.1", server.port());
    ASSERT_TRUE(b.connected());
    EXPECT_NE(b.health().find("\"ready\""), std::string::npos);

    server.beginDrain(10000);
    EXPECT_TRUE(server.draining());
    // Health answers on the live connection and reports the flip.
    EXPECT_NE(b.health().find("\"draining\""), std::string::npos);

    // A new request after the flip is shed with the typed code.
    service::ScheduleRequest fast;
    fast.machine = "K5";
    fast.synth_ops = 40;
    net::NetResponse shed =
        b.request(service::renderRequestLine(fast));
    ASSERT_TRUE(shed.transport_ok);
    EXPECT_EQ(shed.code, service::ErrorCode::Draining) << shed.error;

    // The in-flight request still completes Ok.
    FrameDecoder dec;
    char buf[16384];
    net::NetResponse inflight;
    bool got = false;
    while (!got) {
        Frame fr;
        FrameDecoder::Status st;
        while ((st = dec.next(&fr)) == FrameDecoder::Status::Ready) {
            if (fr.type == FrameType::Response && fr.id == 77) {
                inflight = net::parseResponseJson(fr.payload);
                got = true;
            }
        }
        if (got)
            break;
        ssize_t n = recv(a, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0) << "in-flight response lost in drain";
        dec.feed(buf, size_t(n));
    }
    EXPECT_EQ(inflight.code, service::ErrorCode::Ok) << inflight.error;
    close(a);

    server.stop();
    service::ServiceMetrics m = server.metrics();
    EXPECT_GE(m.net.draining_shed, 1u);
}

TEST(NetServer, DrainDeadlineEvictsStuckClients)
{
    net::ServerConfig sc;
    sc.service.num_workers = 1;
    net::Server server(sc);
    server.start();

    // A client that connects and then does nothing: it will neither
    // finish work nor close, so only the deadline can end the drain.
    int stuck = rawConnect(server.port());
    ASSERT_GE(stuck, 0);
    // Give the loop a moment to accept before the listen socket goes.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    auto t0 = std::chrono::steady_clock::now();
    server.beginDrain(300);
    server.waitUntilStopped();
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    // Bounded: well past the deadline is a hang, well under it means
    // the deadline was ignored and the loop exited for another reason.
    EXPECT_LT(elapsed, 5000) << "drain did not respect its deadline";
    close(stuck);
    server.stop();
}

/** Read one whole frame from @p fd within @p timeout_ms; false on EOF,
 * reset or timeout. */
bool
readFrame(int fd, Frame *out, int timeout_ms = 10000)
{
    FrameDecoder dec;
    char buf[16384];
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (dec.next(out) != FrameDecoder::Status::Ready) {
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
        pollfd p{fd, POLLIN, 0};
        if (left <= 0 || poll(&p, 1, int(left)) <= 0)
            return false;
        ssize_t n = recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            return false;
        dec.feed(buf, size_t(n));
    }
    return true;
}

TEST(NetServer, DrainAnswersConnectionsWaitingInTheBacklog)
{
    // A listening socket nobody accepts on yet: these clients complete
    // their handshakes and write a request into the backlog.
    int lfd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(bind(lfd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)),
              0);
    ASSERT_EQ(listen(lfd, 16), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(getsockname(lfd, reinterpret_cast<sockaddr *>(&addr), &len),
              0);
    const uint16_t port = ntohs(addr.sin_port);

    service::ScheduleRequest r;
    r.machine = "K5";
    r.synth_ops = 40;
    std::vector<int> fds;
    for (uint64_t id = 1; id <= 3; ++id) {
        int fd = rawConnect(port);
        ASSERT_GE(fd, 0);
        Frame f;
        f.type = FrameType::Request;
        f.id = id;
        f.payload = service::renderRequestLine(r);
        std::string wire = net::encodeFrame(f);
        ASSERT_EQ(send(fd, wire.data(), wire.size(), 0),
                  ssize_t(wire.size()));
        fds.push_back(fd);
    }

    // The server adopts the socket already draining, so its first loop
    // turn applies the drain: the backlog must be answered, not reset.
    net::ServerConfig sc;
    sc.service.num_workers = 1;
    sc.inherit_listen_fd = lfd;
    net::Server server(sc);
    server.beginDrain(5000);
    server.start();
    for (size_t k = 0; k < fds.size(); ++k) {
        Frame fr;
        ASSERT_TRUE(readFrame(fds[k], &fr))
            << "connection " << k + 1 << " in the backlog got no answer";
        EXPECT_EQ(fr.type, FrameType::Response);
        EXPECT_EQ(fr.id, uint64_t(k + 1));
        EXPECT_EQ(net::parseResponseJson(fr.payload).code,
                  service::ErrorCode::Draining);
        close(fds[k]);
    }
    server.waitUntilStopped();
    server.stop();
    EXPECT_EQ(server.metrics().net.draining_shed, fds.size());
}

/** One reply as a raw peer saw it: a frame, or a JSON line (kept whole
 * in `body`, with type Response). */
struct WireReply
{
    FrameType type = FrameType::Response;
    uint64_t id = 0;
    std::string body;
};

/** A raw loopback peer in one wire mode, reading replies with a
 * timeout so a missing answer fails the test instead of hanging it. */
class RawPeer
{
  public:
    RawPeer(uint16_t port, bool json) : fd_(rawConnect(port)), json_(json)
    {
    }
    ~RawPeer()
    {
        if (fd_ >= 0)
            close(fd_);
    }

    bool connected() const { return fd_ >= 0; }

    bool
    send(const std::string &bytes)
    {
        size_t off = 0;
        while (off < bytes.size()) {
            ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            off += size_t(n);
        }
        return true;
    }

    /** The next reply; false on EOF, reset or a 10 s timeout. */
    bool
    next(WireReply *out)
    {
        for (;;) {
            if (json_) {
                size_t nl = lines_.find('\n');
                if (nl != std::string::npos) {
                    out->body = lines_.substr(0, nl);
                    lines_.erase(0, nl + 1);
                    JsonValue doc = parseJson(out->body);
                    const JsonValue *id = doc.find("id");
                    out->id = id ? jsonU64(*id) : ~uint64_t(0);
                    return true;
                }
            } else {
                Frame f;
                FrameDecoder::Status st = dec_.next(&f);
                if (st == FrameDecoder::Status::Error)
                    return false;
                if (st == FrameDecoder::Status::Ready) {
                    out->type = f.type;
                    out->id = f.id;
                    out->body = std::move(f.payload);
                    return true;
                }
            }
            if (!fill())
                return false;
        }
    }

    /** True when the server closed the connection with nothing more
     * to say. */
    bool
    closedByServer()
    {
        WireReply r;
        return !next(&r) && !timed_out_;
    }

  private:
    bool
    fill()
    {
        pollfd p{fd_, POLLIN, 0};
        if (poll(&p, 1, 10000) <= 0) {
            timed_out_ = true;
            return false;
        }
        char buf[16384];
        ssize_t n = recv(fd_, buf, sizeof(buf), 0);
        if (n <= 0)
            return false;
        if (json_)
            lines_.append(buf, size_t(n));
        else
            dec_.feed(buf, size_t(n));
        return true;
    }

    int fd_ = -1;
    bool json_ = false;
    bool timed_out_ = false;
    FrameDecoder dec_;
    std::string lines_;
};

/** The numeric "code" of the reply body @p body. */
uint64_t
replyCode(const std::string &body)
{
    JsonValue doc = parseJson(body);
    const JsonValue *code = doc.find("code");
    return code ? jsonU64(*code) : ~uint64_t(0);
}

TEST(NetServer, EveryReplyEnvelopeInBothWireModes)
{
    // Pins what each kind of message gets back in each wire mode: the
    // frame type, id and JSON code of a binary reply, the id and code
    // of a JSON line (or the spliced {"id":N, prefix of a stats or
    // health document), and which replies close the connection.
    net::ServerConfig sc;
    sc.service.num_workers = 1;
    net::Server server(sc);
    server.start();
    RawPeer bin(server.port(), false);
    RawPeer json(server.port(), true);
    ASSERT_TRUE(bin.connected());
    ASSERT_TRUE(json.connected());

    const uint64_t kOk = uint64_t(service::ErrorCode::Ok);
    const uint64_t kBad = uint64_t(service::ErrorCode::BadRequest);
    const uint64_t kDraining = uint64_t(service::ErrorCode::Draining);
    auto frame = [](FrameType type, uint64_t id, std::string payload) {
        Frame f;
        f.type = type;
        f.id = id;
        f.payload = std::move(payload);
        return net::encodeFrame(f);
    };
    const std::string good = "machine=K5 ops=20 seed=1";
    const std::string bad = "machine=K5 ops=banana";
    WireReply r;

    // A good request.
    ASSERT_TRUE(bin.send(frame(FrameType::Request, 11, good)));
    ASSERT_TRUE(bin.next(&r));
    EXPECT_EQ(r.type, FrameType::Response);
    EXPECT_EQ(r.id, 11u);
    EXPECT_EQ(replyCode(r.body), kOk) << r.body;
    ASSERT_TRUE(json.send("{\"id\":11,\"req\":\"" + good + "\"}\n"));
    ASSERT_TRUE(json.next(&r));
    EXPECT_EQ(r.id, 11u);
    EXPECT_EQ(replyCode(r.body), kOk) << r.body;

    // A bad request line.
    ASSERT_TRUE(bin.send(frame(FrameType::Request, 12, bad)));
    ASSERT_TRUE(bin.next(&r));
    EXPECT_EQ(r.type, FrameType::Error);
    EXPECT_EQ(r.id, 12u);
    EXPECT_EQ(replyCode(r.body), kBad) << r.body;
    ASSERT_TRUE(json.send("{\"id\":12,\"req\":\"" + bad + "\"}\n"));
    ASSERT_TRUE(json.next(&r));
    EXPECT_EQ(r.id, 12u);
    EXPECT_EQ(replyCode(r.body), kBad) << r.body;

    // A malformed message: a frame type only servers send, a line that
    // is not JSON, and a JSON object naming no known op.
    ASSERT_TRUE(bin.send(frame(FrameType::Response, 13, "")));
    ASSERT_TRUE(bin.next(&r));
    EXPECT_EQ(r.type, FrameType::Error);
    EXPECT_EQ(r.id, 13u);
    EXPECT_EQ(replyCode(r.body), kBad) << r.body;
    ASSERT_TRUE(json.send("{oops\n"));
    ASSERT_TRUE(json.next(&r));
    EXPECT_EQ(r.id, 0u);
    EXPECT_EQ(replyCode(r.body), kBad) << r.body;
    ASSERT_TRUE(json.send("{\"id\":13,\"op\":\"nope\"}\n"));
    ASSERT_TRUE(json.next(&r));
    EXPECT_EQ(r.id, 13u);
    EXPECT_EQ(replyCode(r.body), kBad) << r.body;

    // A Stat: the stats document, id spliced into a JSON line.
    ASSERT_TRUE(bin.send(frame(FrameType::Stat, 14, "")));
    ASSERT_TRUE(bin.next(&r));
    EXPECT_EQ(r.type, FrameType::Response);
    EXPECT_EQ(r.id, 14u);
    EXPECT_EQ(r.body.rfind("{\"id\":", 0), std::string::npos) << r.body;
    EXPECT_EQ(service::parseStats(r.body).metrics.ok, 2u);
    ASSERT_TRUE(json.send("{\"id\":14,\"op\":\"stats\"}\n"));
    ASSERT_TRUE(json.next(&r));
    EXPECT_EQ(r.body.rfind("{\"id\":14,\"", 0), 0u) << r.body;
    EXPECT_EQ(r.body.find("\"code\""), std::string::npos) << r.body;

    // A Health: {"health":"ready"}, id spliced into a JSON line.
    ASSERT_TRUE(bin.send(frame(FrameType::Health, 15, "")));
    ASSERT_TRUE(bin.next(&r));
    EXPECT_EQ(r.type, FrameType::Response);
    EXPECT_EQ(r.id, 15u);
    EXPECT_EQ(r.body, "{\"health\":\"ready\"}");
    ASSERT_TRUE(json.send("{\"id\":15,\"op\":\"health\"}\n"));
    ASSERT_TRUE(json.next(&r));
    EXPECT_EQ(r.body, "{\"id\":15,\"health\":\"ready\"}");

    // A Ping: a payload-less Pong; JSON lines have no ping op.
    ASSERT_TRUE(bin.send(frame(FrameType::Ping, 16, "")));
    ASSERT_TRUE(bin.next(&r));
    EXPECT_EQ(r.type, FrameType::Pong);
    EXPECT_EQ(r.id, 16u);
    EXPECT_EQ(r.body, "");
    ASSERT_TRUE(json.send("{\"id\":16,\"op\":\"ping\"}\n"));
    ASSERT_TRUE(json.next(&r));
    EXPECT_EQ(r.id, 16u);
    EXPECT_EQ(replyCode(r.body), kBad) << r.body;

    // A request after beginDrain(): a typed Draining reply, as a
    // Response frame; health reports the flip.
    server.beginDrain(10000);
    ASSERT_TRUE(bin.send(frame(FrameType::Request, 17, good)));
    ASSERT_TRUE(bin.next(&r));
    EXPECT_EQ(r.type, FrameType::Response);
    EXPECT_EQ(r.id, 17u);
    EXPECT_EQ(replyCode(r.body), kDraining) << r.body;
    ASSERT_TRUE(json.send("{\"id\":17,\"req\":\"" + good + "\"}\n"));
    ASSERT_TRUE(json.next(&r));
    EXPECT_EQ(r.id, 17u);
    EXPECT_EQ(replyCode(r.body), kDraining) << r.body;
    ASSERT_TRUE(json.send("{\"id\":18,\"op\":\"health\"}\n"));
    ASSERT_TRUE(json.next(&r));
    EXPECT_EQ(r.body, "{\"id\":18,\"health\":\"draining\"}");

    // A framing violation: one id-0 BadRequest naming it, then close.
    // Every byte sent is read before the server decides, so it closes
    // with a FIN rather than a reset.
    std::string violation = frame(FrameType::Request, 19, "");
    violation[4] = 3; // bad version
    ASSERT_TRUE(bin.send(violation));
    ASSERT_TRUE(bin.next(&r));
    EXPECT_EQ(r.type, FrameType::Error);
    EXPECT_EQ(r.id, 0u);
    EXPECT_EQ(replyCode(r.body), kBad) << r.body;
    EXPECT_NE(r.body.find("bad-version"), std::string::npos) << r.body;
    EXPECT_TRUE(bin.closedByServer());
    ASSERT_TRUE(json.send(std::string(net::kMaxPayload + 1, 'x')));
    ASSERT_TRUE(json.next(&r));
    EXPECT_EQ(r.id, 0u);
    EXPECT_EQ(replyCode(r.body), kBad) << r.body;
    EXPECT_NE(r.body.find("oversized-payload"), std::string::npos)
        << r.body;
    EXPECT_TRUE(json.closedByServer());

    server.waitUntilStopped();
    server.stop();
    service::ServiceMetrics m = server.metrics();
    EXPECT_EQ(m.net.protocol_errors, 2u);
    EXPECT_EQ(m.net.bad_requests, 6u);
    EXPECT_EQ(m.net.draining_shed, 2u);
    EXPECT_EQ(m.net.stats_requests, 2u);
    EXPECT_EQ(m.net.frames_in, 16u);
    EXPECT_EQ(m.net.frames_out, 18u);
}

/**
 * A `--shards 2` fleet under test: runServe in a child forked while
 * this process runs no other thread (every earlier test joined its
 * threads), the bound port reported over a pipe, its stdout sent to
 * @p stdout_fd when one is given. terminate() and the destructor drain
 * it with SIGTERM, then SIGKILL what is left.
 */
class FleetProcess
{
  public:
    explicit FleetProcess(net::ServeOptions opts, int stdout_fd = -1)
    {
        int pfd[2];
        if (pipe(pfd) != 0)
            return;
        std::fflush(stdout); // or the child inherits what is buffered
        pid_ = fork();
        if (pid_ == 0) {
            close(pfd[0]);
            if (stdout_fd >= 0)
                dup2(stdout_fd, STDOUT_FILENO);
            opts.server.host = "127.0.0.1";
            opts.server.port = 0;
            opts.shards = 2;
            opts.port_notify_fd = pfd[1];
            int code = 1;
            try {
                code = net::runServe(opts);
            } catch (const std::exception &) {
            }
            std::fflush(stdout);
            _exit(code);
        }
        close(pfd[1]);
        pollfd p{pfd[0], POLLIN, 0};
        unsigned char b[2];
        if (pid_ > 0 && poll(&p, 1, 30000) > 0 &&
            read(pfd[0], b, sizeof(b)) == 2)
            port_ = uint16_t(b[0] | b[1] << 8);
        close(pfd[0]);
    }

    ~FleetProcess() { terminate(); }

    /** SIGTERM, then SIGKILL after 15 s; the wait status (-1 when
     * already reaped). */
    int
    terminate()
    {
        if (pid_ <= 0)
            return -1;
        kill(pid_, SIGTERM);
        int status = 0;
        if (waitExit(15000, &status) < 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, &status, 0);
            pid_ = -1;
        }
        return status;
    }

    uint16_t port() const { return port_; }

    /** Reap within @p timeout_ms: 0 with @p status filled, or -1. */
    int
    waitExit(int timeout_ms, int *status)
    {
        for (int waited = 0; pid_ > 0; waited += 20) {
            if (waitpid(pid_, status, WNOHANG) == pid_) {
                pid_ = -1;
                return 0;
            }
            if (waited >= timeout_ms)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        return -1;
    }

  private:
    pid_t pid_ = -1;
    uint16_t port_ = 0;
};

/** Fetch a stats document over @p client and parse it. */
service::StatsDocument
statsOver(net::BlockingClient &client)
{
    std::string doc = client.stats();
    EXPECT_FALSE(doc.empty());
    return doc.empty() ? service::StatsDocument{}
                       : service::parseStats(doc);
}

/** CPU time @p pid has used so far (utime + stime), in milliseconds. */
long
cpuMs(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat;
    std::getline(in, stat);
    // Fields after the parenthesized command start at state (field 3);
    // utime and stime are fields 14 and 15, in clock ticks.
    size_t close = stat.rfind(')');
    if (close == std::string::npos)
        return -1;
    std::istringstream rest(stat.substr(close + 2));
    std::string skip;
    for (int field = 3; field < 14; ++field)
        rest >> skip;
    long utime = 0, stime = 0;
    rest >> utime >> stime;
    return (utime + stime) * 1000 / sysconf(_SC_CLK_TCK);
}

/** True once every thread of @p pid is in the stopped state. */
bool
allThreadsStopped(pid_t pid)
{
    std::error_code ec;
    std::filesystem::directory_iterator tasks(
        "/proc/" + std::to_string(pid) + "/task", ec);
    if (ec)
        return false;
    for (const auto &task : tasks) {
        std::ifstream in(task.path() / "stat");
        std::string stat;
        std::getline(in, stat);
        // The state letter follows the parenthesized command.
        size_t close = stat.rfind(')');
        if (close == std::string::npos || close + 2 >= stat.size() ||
            stat[close + 2] != 'T')
            return false;
    }
    return true;
}

/** The shard-mode contract over the serve port, against one fleet. */
class ShardFleet : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        net::ServeOptions opts;
        opts.server.service.num_workers = 1;
        fleet_ = new FleetProcess(opts);
    }

    static void
    TearDownTestSuite()
    {
        delete fleet_;
        fleet_ = nullptr;
    }

    void
    SetUp() override
    {
        ASSERT_NE(fleet_->port(), 0) << "fleet did not start";
    }

    static uint16_t port() { return fleet_->port(); }

    static FleetProcess *fleet_;
};

FleetProcess *ShardFleet::fleet_ = nullptr;

TEST_F(ShardFleet, BareStatOnAFreshConnectionReturnsTheFleetView)
{
    net::BlockingClient client("127.0.0.1", port());
    ASSERT_TRUE(client.connected());
    service::StatsDocument snap = statsOver(client);
    EXPECT_EQ(snap.shards, 2u);
    ASSERT_EQ(snap.per_shard.size(), 2u);
    for (const auto &row : snap.per_shard) {
        EXPECT_GT(row.pid, 0) << "shard " << row.shard;
        EXPECT_EQ(row.state, "live") << "shard " << row.shard;
    }
    EXPECT_EQ(snap.supervision.health, "ready");
}

TEST_F(ShardFleet, BareHealthReturnsTheSupervisionDocument)
{
    net::BlockingClient client("127.0.0.1", port());
    ASSERT_TRUE(client.connected());
    JsonValue doc = parseJson(client.health());
    ASSERT_NE(doc.find("health"), nullptr);
    EXPECT_EQ(doc.find("health")->string, "ready");
    ASSERT_NE(doc.find("shards"), nullptr);
    EXPECT_EQ(jsonU64(*doc.find("shards")), 2u);
    EXPECT_NE(doc.find("quarantined"), nullptr);
}

TEST_F(ShardFleet, StatAfterARequestAndJsonStatsAreOneShardsView)
{
    service::ScheduleRequest r = testMix()[0];
    net::BlockingClient client("127.0.0.1", port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.request(service::renderRequestLine(r)).ok());
    const std::string raw = client.stats();
    EXPECT_EQ(parseJson(raw).find("supervision"), nullptr);
    service::StatsDocument snap = service::parseStats(raw);
    EXPECT_EQ(snap.shards, 1u);
    EXPECT_TRUE(snap.per_shard.empty());
    EXPECT_GE(snap.metrics.requests, 1u);

    net::BlockingClient json("127.0.0.1", port(), true);
    ASSERT_TRUE(json.connected());
    service::StatsDocument jsnap = statsOver(json);
    EXPECT_EQ(jsnap.shards, 1u);
    EXPECT_TRUE(jsnap.per_shard.empty());
}

/** The fleet view from a bare STAT, polled until every shard answered. */
service::StatsDocument
fullFleetStats(uint16_t port)
{
    service::StatsDocument doc;
    for (int attempt = 0; attempt < 20; ++attempt) {
        net::BlockingClient client("127.0.0.1", port);
        doc = statsOver(client);
        if (doc.stale_shards == 0 && doc.per_shard.size() == 2)
            break;
    }
    return doc;
}

TEST_F(ShardFleet, FleetStatSumsEveryShardExactly)
{
    const std::vector<service::ScheduleRequest> once = testMix();
    std::vector<service::ScheduleRequest> mix = once;
    mix.insert(mix.end(), once.begin(), once.end());
    service::ServiceConfig cfg;
    cfg.num_workers = 1;
    service::MdesService local(cfg);
    local.runBatch(mix);
    const service::ServiceMetrics want = local.metricsSnapshot();

    const service::ServiceMetrics before = fullFleetStats(port()).metrics;
    for (const service::ScheduleRequest &req : mix) {
        // A fresh connection per request: whichever shard accepts it.
        net::BlockingClient client("127.0.0.1", port());
        ASSERT_TRUE(client.connected());
        ASSERT_TRUE(client.request(service::renderRequestLine(req)).ok());
    }
    const service::StatsDocument after = fullFleetStats(port());
    ASSERT_EQ(after.stale_shards, 0u);
    const service::ServiceMetrics &m = after.metrics;

    EXPECT_EQ(m.requests - before.requests, mix.size());
    EXPECT_EQ(m.schedule.count - before.schedule.count, mix.size());
    EXPECT_EQ(m.ops_scheduled - before.ops_scheduled, want.ops_scheduled);
    EXPECT_EQ(m.blocks_scheduled - before.blocks_scheduled,
              want.blocks_scheduled);
    EXPECT_EQ(m.attempts - before.attempts, want.attempts);
    EXPECT_EQ(m.resource_checks - before.resource_checks,
              want.resource_checks);

    // Merged bucket by bucket: every series still sums to its count.
    for (const service::StageLatency *s :
         {&m.total, &m.queue_wait, &m.compile, &m.workload, &m.schedule,
          &m.verify})
        EXPECT_EQ(s->log2_us.total(), s->count);
    for (size_t i = 0; i < service::kWindowSlots; ++i)
        EXPECT_EQ(m.windows.slot(i).total.log2_us.total(),
                  m.windows.slot(i).total.count);
    uint64_t shard_requests = 0;
    for (const service::ShardRow &row : after.per_shard)
        shard_requests += row.requests;
    EXPECT_EQ(shard_requests, m.requests);
    // Quiescent, every frame a shard read it answered; a bare fleet
    // STAT is the supervisor's at both ends.
    EXPECT_EQ(m.net.frames_in, m.net.frames_out);
}

TEST_F(ShardFleet, ExitPrintsTheFleetDocument)
{
    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    net::ServeOptions opts;
    opts.server.service.num_workers = 1;
    opts.json_metrics = true;
    FleetProcess fleet(opts, fileno(out));
    ASSERT_NE(fleet.port(), 0);
    const std::vector<service::ScheduleRequest> mix = testMix();
    for (const service::ScheduleRequest &req : mix) {
        net::BlockingClient client("127.0.0.1", fleet.port());
        ASSERT_TRUE(client.connected());
        ASSERT_TRUE(client.request(service::renderRequestLine(req)).ok());
    }
    const int status = fleet.terminate();
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;

    std::rewind(out);
    std::string text, line, last;
    char buf[4096];
    for (size_t n; (n = std::fread(buf, 1, sizeof(buf), out)) > 0;)
        text.append(buf, n);
    std::fclose(out);
    for (std::istringstream lines(text); std::getline(lines, line);)
        if (!line.empty())
            last = line;
    const service::StatsDocument doc = service::parseStats(last);
    EXPECT_EQ(doc.metrics.requests, mix.size());
    EXPECT_EQ(doc.shards, 2u);
    EXPECT_EQ(doc.stale_shards, 0u);
    ASSERT_EQ(doc.per_shard.size(), 2u);
    uint64_t shard_requests = 0;
    for (const service::ShardRow &row : doc.per_shard) {
        EXPECT_FALSE(row.stale) << "shard " << row.shard;
        EXPECT_EQ(row.state, "exited") << "shard " << row.shard;
        shard_requests += row.requests;
    }
    EXPECT_EQ(shard_requests, mix.size());
    EXPECT_EQ(doc.supervision.health, "draining");
}

TEST_F(ShardFleet, BinaryAndJsonRequestsMatchInProcessFingerprints)
{
    std::vector<service::ScheduleRequest> mix = testMix();
    service::ServiceConfig cfg;
    cfg.num_workers = 1;
    std::vector<service::ScheduleResponse> want =
        service::MdesService(cfg).runBatch(mix);
    for (bool json_mode : {false, true}) {
        // A fresh connection per request: whichever shard accepts it.
        for (size_t i = 0; i < mix.size(); ++i) {
            net::BlockingClient client("127.0.0.1", port(), json_mode);
            ASSERT_TRUE(client.connected());
            net::NetResponse got =
                client.request(service::renderRequestLine(mix[i]));
            ASSERT_TRUE(got.ok()) << got.error << ": " << got.message;
            ASSERT_TRUE(want[i].ok());
            EXPECT_EQ(got.fingerprint,
                      service::scheduleFingerprint(want[i]))
                << mix[i].machine << (json_mode ? " (json)" : "");
        }
    }
}

TEST_F(ShardFleet, ConnectionsThatFindEveryShardBusyAreStillServed)
{
    // Three slow requests saturate the fleet's two one-worker shards, so
    // a shard that sees the fourth connection leaves it to its sibling
    // for a moment; one of them must still take it.
    service::ScheduleRequest slow = testMix()[0];
    slow.synth_ops = 4000;
    service::ScheduleRequest fast = testMix()[1];
    std::vector<int> fds;
    for (uint64_t id = 1; id <= 4; ++id) {
        int fd = rawConnect(port());
        ASSERT_GE(fd, 0);
        Frame f;
        f.type = FrameType::Request;
        f.id = id;
        f.payload = service::renderRequestLine(id < 4 ? slow : fast);
        std::string wire = net::encodeFrame(f);
        ASSERT_EQ(send(fd, wire.data(), wire.size(), 0),
                  ssize_t(wire.size()));
        fds.push_back(fd);
    }
    for (size_t k = 0; k < fds.size(); ++k) {
        Frame fr;
        ASSERT_TRUE(readFrame(fds[k], &fr, 60000))
            << "connection " << k + 1 << " got no answer";
        EXPECT_EQ(fr.id, uint64_t(k + 1));
        EXPECT_EQ(net::parseResponseJson(fr.payload).code,
                  service::ErrorCode::Ok);
        close(fds[k]);
    }
}

TEST_F(ShardFleet, StatPeersThatNeverReadDoNotDelayARealPoller)
{
    Frame bare;
    bare.type = FrameType::Stat;
    bare.id = 7;
    const std::string wire = net::encodeFrame(bare);
    std::vector<int> hostile;
    for (int k = 0; k < 30; ++k) {
        int fd = rawConnect(port());
        ASSERT_GE(fd, 0);
        ASSERT_EQ(send(fd, wire.data(), wire.size(), 0),
                  ssize_t(wire.size()));
        hostile.push_back(fd); // held open, never read
    }
    auto t0 = std::chrono::steady_clock::now();
    net::BlockingClient poller("127.0.0.1", port());
    ASSERT_TRUE(poller.connected());
    service::StatsDocument snap = statsOver(poller);
    auto took = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(snap.per_shard.size(), 2u);
    EXPECT_LT(took, std::chrono::seconds(10))
        << "a STAT flood delayed the fleet poller";
    for (int fd : hostile)
        close(fd);
}

TEST_F(ShardFleet, EscalatedConnectionsLeaveNoWakeupBehind)
{
    // With one shard stopped, the other accepts a bare STAT and hands
    // the socket up; the supervisor holds it until its poll gives up on
    // the stopped shard. The peer's FIN in that window must not wake the
    // shard that let the socket go.
    std::vector<int64_t> pids;
    {
        net::BlockingClient client("127.0.0.1", port());
        ASSERT_TRUE(client.connected());
        for (const auto &row : statsOver(client).per_shard)
            pids.push_back(row.pid);
    }
    ASSERT_EQ(pids.size(), 2u);
    ASSERT_GT(pids[0], 0);
    ASSERT_GT(pids[1], 0);
    const pid_t stopped = pid_t(pids[0]), running = pid_t(pids[1]);
    ASSERT_EQ(kill(stopped, SIGSTOP), 0);
    struct Resume
    {
        pid_t pid;
        ~Resume() { kill(pid, SIGCONT); }
    } resume{stopped};
    // A group stop lands thread by thread once the signalled thread
    // runs; until then the shard can still accept and answer polls.
    for (int waited = 0; !allThreadsStopped(stopped) && waited < 5000;
         waited += 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(allThreadsStopped(stopped));

    const long cpu0 = cpuMs(running);
    auto t0 = std::chrono::steady_clock::now();
    int fd = rawConnect(port());
    ASSERT_GE(fd, 0);
    Frame bare;
    bare.type = FrameType::Stat;
    bare.id = 9;
    const std::string wire = net::encodeFrame(bare);
    ASSERT_EQ(send(fd, wire.data(), wire.size(), 0), ssize_t(wire.size()));
    ASSERT_EQ(shutdown(fd, SHUT_WR), 0);
    Frame fr;
    const bool answered = readFrame(fd, &fr, 10000);
    const long window_ms =
        long(std::chrono::duration_cast<std::chrono::milliseconds>(
                 std::chrono::steady_clock::now() - t0)
                 .count());
    const long used_ms = cpuMs(running) - cpu0;
    close(fd);
    ASSERT_TRUE(answered) << "the fleet STAT got no answer";
    EXPECT_EQ(service::parseStats(fr.payload).per_shard.size(), 2u);
    // The poll waits out its deadline for the stopped shard; a shorter
    // window would not test anything.
    ASSERT_GE(window_ms, 250);
    EXPECT_LT(used_ms, window_ms / 3)
        << "the shard that escalated the socket spun for its whole "
           "hand-off window of "
        << window_ms << " ms";
}

TEST(ShardFleetQuarantine, EveryQuarantinedSlotExitsAndThePortRefuses)
{
    // One rapid crash quarantines a slot, and every crash is rapid.
    net::ServeOptions opts;
    opts.server.service.num_workers = 1;
    opts.quarantine_after = 1;
    opts.rapid_crash_window_ms = 600000;
    FleetProcess fleet(opts);
    ASSERT_NE(fleet.port(), 0) << "fleet did not start";
    std::vector<int64_t> pids;
    {
        net::BlockingClient client("127.0.0.1", fleet.port());
        ASSERT_TRUE(client.connected());
        for (const auto &row : statsOver(client).per_shard)
            pids.push_back(row.pid);
    }
    ASSERT_EQ(pids.size(), 2u);
    for (int64_t pid : pids) {
        ASSERT_GT(pid, 0);
        kill(pid_t(pid), SIGKILL);
    }
    int status = 0;
    ASSERT_EQ(fleet.waitExit(15000, &status), 0)
        << "the supervisor kept running with every slot quarantined";
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1);
    net::BlockingClient late("127.0.0.1", fleet.port());
    EXPECT_FALSE(late.connected())
        << "the port still accepts with no shard left to serve it";
}

} // namespace
} // namespace mdes
