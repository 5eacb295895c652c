#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/signalfd.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <iostream>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/frame.h"
#include "service/request_parse.h"
#include "service/stats.h"
#include "support/diagnostics.h"
#include "support/faultsim.h"
#include "support/flightrec.h"
#include "support/io_retry.h"
#include "support/json.h"

namespace mdes::net {

using service::ErrorCode;
using service::MdesService;
using service::ScheduleRequest;
using service::ScheduleResponse;

namespace {

void
setNonBlocking(int fd)
{
    int flags = fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/** Bind+listen a nonblocking TCP socket on @p host:@p port (numeric
 * address or "localhost"); fills @p bound_port with the resolved
 * ephemeral port. Throws MdesError on failure. */
int
makeListenSocket(const std::string &host, uint16_t port,
                 uint16_t *bound_port)
{
    int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throw MdesError(std::string("net: socket: ") + strerror(errno));
    int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    std::string numeric = host == "localhost" ? "127.0.0.1" : host;
    if (inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
        close(fd);
        throw MdesError("net: bad listen address '" + host +
                        "' (numeric IPv4 or 'localhost')");
    }
    if (bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0) {
        int e = errno;
        close(fd);
        throw MdesError("net: bind " + host + ":" + std::to_string(port) +
                        ": " + strerror(e));
    }
    if (listen(fd, 128) != 0) {
        int e = errno;
        close(fd);
        throw MdesError(std::string("net: listen: ") + strerror(e));
    }
    socklen_t len = sizeof(addr);
    if (getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) == 0)
        *bound_port = ntohs(addr.sin_port);
    return fd;
}

/** A shard's escalation of a connection to the supervisor: 'c', the
 * opening frame's type, its id (u64le), and the socket as the only
 * SCM_RIGHTS descriptor. */
constexpr size_t kEscalationSize = 10;

/** Send the datagram @p data over the SOCK_SEQPACKET channel @p chan
 * with @p fd attached via SCM_RIGHTS. */
bool
sendWithFd(int chan, const std::string &data, int fd)
{
    iovec iov{const_cast<char *>(data.data()), data.size()};
    alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))] = {};
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = cbuf;
    msg.msg_controllen = sizeof(cbuf);
    cmsghdr *cm = CMSG_FIRSTHDR(&msg);
    cm->cmsg_level = SOL_SOCKET;
    cm->cmsg_type = SCM_RIGHTS;
    cm->cmsg_len = CMSG_LEN(sizeof(int));
    std::memcpy(CMSG_DATA(cm), &fd, sizeof(int));
    for (;;) {
        // MSG_NOSIGNAL: the supervisor may be gone; that must cost
        // EPIPE here, never a SIGPIPE that kills the shard.
        if (sendmsg(chan, &msg, MSG_NOSIGNAL) >= 0)
            return true;
        if (errno != EINTR)
            return false;
    }
}

/**
 * Receive one datagram from a shard's channel into @p buf. Returns its
 * length, 0 for a dropped message, -1 on EAGAIN, -2 on EOF or error.
 * A message carrying descriptors must be a well-formed escalation:
 * exactly kEscalationSize bytes and exactly one descriptor, which lands
 * in @p fd. Anything else that carries descriptors, and anything cut
 * short (MSG_TRUNC, MSG_CTRUNC), is dropped after closing every
 * descriptor it brought.
 */
ssize_t
recvFromShard(int chan, char *buf, size_t cap, int *fd)
{
    *fd = -1;
    iovec iov{buf, cap};
    // Room for more than one descriptor, so extra ones are seen (and
    // closed) rather than silently cut off.
    alignas(cmsghdr) char cbuf[CMSG_SPACE(4 * sizeof(int))];
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = cbuf;
    msg.msg_controllen = sizeof(cbuf);
    ssize_t n;
    do {
        n = recvmsg(chan, &msg, MSG_CMSG_CLOEXEC);
    } while (n < 0 && errno == EINTR);
    if (n < 0)
        return errno == EAGAIN || errno == EWOULDBLOCK ? -1 : -2;
    if (n == 0)
        return -2;
    std::vector<int> fds;
    for (cmsghdr *cm = CMSG_FIRSTHDR(&msg); cm;
         cm = CMSG_NXTHDR(&msg, cm)) {
        if (cm->cmsg_level != SOL_SOCKET || cm->cmsg_type != SCM_RIGHTS)
            continue;
        size_t count = (cm->cmsg_len - CMSG_LEN(0)) / sizeof(int);
        for (size_t k = 0; k < count; ++k) {
            int got = -1;
            std::memcpy(&got, CMSG_DATA(cm) + k * sizeof(int),
                        sizeof(int));
            fds.push_back(got);
        }
    }
    bool cut = msg.msg_flags & (MSG_TRUNC | MSG_CTRUNC);
    if (fds.empty() && !cut)
        return n;
    if (!cut && fds.size() == 1 && size_t(n) == kEscalationSize &&
        buf[0] == 'c') {
        *fd = fds[0];
        return n;
    }
    for (int f : fds)
        ::close(f);
    return 0;
}

/** Thread-safe monotonic net counters; the loop thread writes, metrics
 * snapshots read (relaxed - these are statistics, not synchronization). */
struct NetCounters
{
    std::atomic<uint64_t> accepted{0}, closed{0}, active{0}, resets{0};
    std::atomic<uint64_t> frames_in{0}, frames_out{0};
    std::atomic<uint64_t> bytes_in{0}, bytes_out{0};
    std::atomic<uint64_t> protocol_errors{0}, bad_requests{0};
    std::atomic<uint64_t> shed{0}, deadline_expired{0};
    std::atomic<uint64_t> backpressure_stalls{0}, cancelled_on_close{0};
    std::atomic<uint64_t> stats_requests{0}, stats_coalesced{0};
    std::atomic<uint64_t> draining_shed{0};

    void
    fill(service::NetStats &out) const
    {
        out.enabled = true;
        out.accepted = accepted.load(std::memory_order_relaxed);
        out.closed = closed.load(std::memory_order_relaxed);
        out.active = active.load(std::memory_order_relaxed);
        out.resets = resets.load(std::memory_order_relaxed);
        out.frames_in = frames_in.load(std::memory_order_relaxed);
        out.frames_out = frames_out.load(std::memory_order_relaxed);
        out.bytes_in = bytes_in.load(std::memory_order_relaxed);
        out.bytes_out = bytes_out.load(std::memory_order_relaxed);
        out.protocol_errors =
            protocol_errors.load(std::memory_order_relaxed);
        out.bad_requests = bad_requests.load(std::memory_order_relaxed);
        out.shed = shed.load(std::memory_order_relaxed);
        out.deadline_expired =
            deadline_expired.load(std::memory_order_relaxed);
        out.backpressure_stalls =
            backpressure_stalls.load(std::memory_order_relaxed);
        out.cancelled_on_close =
            cancelled_on_close.load(std::memory_order_relaxed);
        out.stats_requests =
            stats_requests.load(std::memory_order_relaxed);
        out.stats_coalesced =
            stats_coalesced.load(std::memory_order_relaxed);
        out.draining_shed =
            draining_shed.load(std::memory_order_relaxed);
    }
};

/** One client connection's loop-local state. */
struct Conn
{
    int fd = -1;
    uint64_t id = 0;
    enum class Mode { Unknown, Binary, Json } mode = Mode::Unknown;

    FrameDecoder decoder;
    /** JSON mode: bytes up to the next newline. */
    std::string jsonbuf;

    /** Outbound bytes not yet written ([out_pos, size)). */
    std::string out;
    size_t out_pos = 0;

    /** Requests submitted to the service, not yet responded. */
    uint32_t inflight = 0;
    /** Their service ids, for cancel-on-close (best effort: an id may
     * be missing if its completion fired before submit() returned). */
    std::vector<uint64_t> pending;

    bool paused = false;    // EPOLLIN dropped (backpressure)
    bool closing = false;   // flush out, then close
    bool framed = false;    // a message has been dispatched
    uint32_t epoll_events = 0;

    /** STAT coalescing: at most one stats response may occupy `out` at
     * a time; further STATs arriving while it drains collapse into one
     * answer carrying the latest id, sent when the buffer empties. A
     * stat flood therefore contributes at most one response to `out`
     * no matter how fast it polls. */
    bool stat_inflight = false;
    bool stat_waiting = false;
    uint64_t stat_waiting_id = 0;

    size_t
    outstandingOut() const
    {
        return out.size() - out_pos;
    }
};

/** epoll user-data ids for the non-connection fds. */
constexpr uint64_t kIdListen = 1, kIdFeed = 2, kIdEvent = 3;
constexpr uint64_t kFirstConnId = 16;

/** The longest a fleet shard whose workers are all busy leaves a new
 * connection to its siblings; it takes the connection sooner when one
 * of its own requests completes. The cap binds only when none completes
 * within it, and then an immediate accept would have had the request
 * wait at least as long for a worker; it bounds how long such a shard's
 * admission control (and its Overloaded answers) waits on slow work. */
constexpr std::chrono::milliseconds kAcceptDefer(1);

/** Ceiling on error text echoed back to a peer. Parse errors quote the
 * offending token, which a hostile request can grow to nearly
 * kMaxPayload - and jsonEscape can expand it up to 6x beyond that -
 * so untruncated echoes would make the response frame unencodable.
 * 512 bytes keeps every response comfortably inside kMaxPayload. */
constexpr size_t kMaxErrorMessage = 512;

std::string
truncateErrorMessage(const std::string &msg)
{
    if (msg.size() <= kMaxErrorMessage)
        return msg;
    return msg.substr(0, kMaxErrorMessage) + "... [truncated]";
}

/**
 * The one reply writer for both wire modes: @p body, a JSON object, as
 * the payload of a @p type frame, or as one JSON line. A line has no
 * header to carry the id, so a body without an id of its own (a stats
 * or health document: @p splice_id) gets it spliced in front.
 */
std::string
encodeReply(Conn::Mode mode, FrameType type, uint64_t id, std::string body,
            bool splice_id = false)
{
    if (mode == Conn::Mode::Json) {
        if (splice_id)
            body = "{\"id\":" + std::to_string(id) + "," + body.substr(1);
        return body + "\n";
    }
    Frame f;
    f.type = type;
    f.id = id;
    f.payload = std::move(body);
    return encodeFrame(f);
}

/** A reply carrying only the typed error @p code and @p message. */
std::string
errorReply(Conn::Mode mode, FrameType type, uint64_t id, ErrorCode code,
           std::string message)
{
    ScheduleResponse resp;
    resp.error = {code, std::move(message)};
    return encodeReply(mode, type, id, serializeResponse(id, resp));
}

/** Sentinel a completion leaves in its request-id holder to record
 * that it already fired (service ids start at 1 and never reach it). */
constexpr uint64_t kRidFired = ~uint64_t(0);

/** One finished request on its way back to the loop. */
struct Completion
{
    uint64_t conn_id = 0;
    /** Service request id (0 when unknown; see Conn::pending). */
    uint64_t request_id = 0;
    ErrorCode code = ErrorCode::Ok;
    /** Fully serialized wire bytes (frame or JSON line). */
    std::string bytes;
};

} // namespace

struct Server::Impl
{
    ServerConfig config;
    std::unique_ptr<MdesService> svc;

    int epoll_fd = -1;
    int event_fd = -1;
    int listen_fd = -1;
    int feed_fd = -1;
    uint16_t bound_port = 0;

    std::thread loop;
    std::atomic<bool> stop_requested{false};
    /** Graceful drain (DESIGN.md §15): set by beginDrain() from any
     * thread; the loop stops accepting, sheds new requests with typed
     * Draining responses, and exits once no connection remains (or the
     * deadline below passes, steady-clock microseconds). */
    std::atomic<bool> drain_requested{false};
    std::atomic<int64_t> drain_deadline_us{0};
    std::mutex done_mu;
    std::condition_variable done_cv;
    bool loop_done = false;
    bool started = false;
    bool stopped = false;

    std::mutex comp_mu;
    std::vector<Completion> completions;

    NetCounters counters;
    /** Metrics captured at stop() so metrics() works after shutdown. */
    service::ServiceMetrics final_metrics;

    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
    uint64_t next_conn_id = kFirstConnId;
    /** Set while the listen fd is unwatched: accept at this time. */
    std::chrono::steady_clock::time_point accept_at{};

    // --- epoll plumbing ----------------------------------------------

    void
    epollAdd(int fd, uint64_t id, uint32_t events)
    {
        epoll_event ev{};
        ev.events = events;
        ev.data.u64 = id;
        if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0)
            throw MdesError(std::string("net: epoll_ctl add: ") +
                            strerror(errno));
    }

    void
    updateInterest(Conn &conn)
    {
        uint32_t events = 0;
        if (!conn.paused && !conn.closing)
            events |= EPOLLIN;
        if (conn.outstandingOut() > 0)
            events |= EPOLLOUT;
        if (events == conn.epoll_events)
            return;
        epoll_event ev{};
        ev.events = events;
        ev.data.u64 = conn.id;
        epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
        conn.epoll_events = events;
    }

    void
    wake()
    {
        uint64_t one = 1;
        [[maybe_unused]] ssize_t n =
            io::writeRetry(event_fd, &one, sizeof(one));
    }

    void
    beginDrain(uint64_t deadline_ms)
    {
        auto now_us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
        drain_deadline_us.store(now_us + int64_t(deadline_ms) * 1000,
                                std::memory_order_release);
        drain_requested.store(true, std::memory_order_release);
        wake();
    }

    // --- connection lifecycle ----------------------------------------

    /** Adopt @p fd, just accepted, as a new connection. Applies the
     * net/accept-fail fault site. */
    void
    adoptConnection(int fd)
    {
        setNonBlocking(fd);
        uint64_t id = next_conn_id++;
        faultsim::TokenScope scope(id);
        if (faultsim::probe(faultsim::Site::NetAcceptFail).fired) {
            ::close(fd);
            counters.resets.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->id = id;
        conn->epoll_events = EPOLLIN;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = id;
        if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
            // Must not throw out of the loop thread; drop the conn.
            ::close(fd);
            return;
        }
        conns.emplace(id, std::move(conn));
        counters.accepted.fetch_add(1, std::memory_order_relaxed);
        counters.active.fetch_add(1, std::memory_order_relaxed);
    }

    /** Close @p conn, cancelling whatever is still in flight. @p abrupt
     * marks server-initiated teardown (counted as a reset). */
    void
    closeConn(Conn &conn, bool abrupt)
    {
        if (conn.inflight) {
            counters.cancelled_on_close.fetch_add(
                conn.inflight, std::memory_order_relaxed);
            for (uint64_t rid : conn.pending)
                svc->cancel(rid);
        }
        if (abrupt)
            counters.resets.fetch_add(1, std::memory_order_relaxed);
        ::close(conn.fd);
        counters.closed.fetch_add(1, std::memory_order_relaxed);
        counters.active.fetch_sub(1, std::memory_order_relaxed);
        conns.erase(conn.id); // invalidates conn
    }

    // --- outbound path ------------------------------------------------

    void
    enqueueOut(Conn &conn, std::string bytes)
    {
        counters.frames_out.fetch_add(1, std::memory_order_relaxed);
        if (conn.outstandingOut() == 0) {
            conn.out = std::move(bytes);
            conn.out_pos = 0;
        } else {
            conn.out += bytes;
        }
        // Every enqueue can cross the high-water mark, not just request
        // submission: a peer that floods pings or malformed frames
        // while never reading must also stop being read, or its
        // outbound buffer grows without bound.
        maybePause(conn);
    }

    /** Write until EAGAIN or drained; returns false when the
     * connection died (already closed). */
    bool
    flushWrites(Conn &conn)
    {
        faultsim::TokenScope scope(conn.id);
        for (;;) {
            while (conn.outstandingOut() > 0) {
                auto stall =
                    faultsim::probe(faultsim::Site::NetStalledWrite);
                if (stall.fired && stall.delay_us)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(stall.delay_us));
                size_t n = conn.outstandingOut();
                if (faultsim::probe(faultsim::Site::NetShortWrite).fired)
                    n = 1;
                // sendRetry = EINTR-retried send with MSG_NOSIGNAL: a
                // peer that closed mid-response costs EPIPE (the conn
                // is torn down below), never a process-killing SIGPIPE.
                ssize_t w = io::sendRetry(
                    conn.fd, conn.out.data() + conn.out_pos, n);
                if (w > 0) {
                    conn.out_pos += size_t(w);
                    counters.bytes_out.fetch_add(
                        uint64_t(w), std::memory_order_relaxed);
                    continue;
                }
                if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                    return true;
                closeConn(conn, /*abrupt=*/true);
                return false;
            }
            conn.out.clear();
            conn.out_pos = 0;
            // Fully drained: the in-flight stat response (if any) is on
            // the wire, so a coalesced poll can now be answered - with
            // a *fresh* snapshot, which is what the poller wants.
            if (conn.stat_inflight) {
                conn.stat_inflight = false;
                if (conn.stat_waiting) {
                    conn.stat_waiting = false;
                    conn.stat_inflight = true;
                    enqueueOut(conn, encodeReply(conn.mode,
                                                 FrameType::Response,
                                                 conn.stat_waiting_id,
                                                 statsJson(),
                                                 /*splice_id=*/true));
                    continue; // try to write it out right now
                }
            }
            break;
        }
        if (conn.closing) {
            closeConn(conn, /*abrupt=*/false);
            return false;
        }
        return true;
    }

    // --- backpressure -------------------------------------------------

    void
    maybePause(Conn &conn)
    {
        if (conn.paused)
            return;
        if (conn.inflight >= config.max_inflight_per_conn ||
            conn.outstandingOut() > config.write_high_water) {
            conn.paused = true;
            counters.backpressure_stalls.fetch_add(
                1, std::memory_order_relaxed);
        }
    }

    void
    maybeResume(Conn &conn)
    {
        if (conn.paused && conn.inflight < config.max_inflight_per_conn &&
            conn.outstandingOut() <= config.write_high_water)
            conn.paused = false;
    }

    // --- replies -------------------------------------------------------

    /** Respond to a malformed-but-framed request: typed BadRequest, the
     * connection survives. */
    void
    sendBadRequest(Conn &conn, uint64_t wire_id, const std::string &msg)
    {
        counters.bad_requests.fetch_add(1, std::memory_order_relaxed);
        enqueueOut(conn, errorReply(conn.mode, FrameType::Error, wire_id,
                                    ErrorCode::BadRequest, msg));
    }

    /** Shed one request arriving after beginDrain(): a typed Draining
     * response, so the client knows to retry against another instance
     * instead of seeing a silent EOF. The connection survives - it may
     * still be reading earlier in-flight responses. */
    void
    sendDraining(Conn &conn, uint64_t wire_id)
    {
        counters.draining_shed.fetch_add(1, std::memory_order_relaxed);
        enqueueOut(conn, errorReply(conn.mode, FrameType::Response, wire_id,
                                    ErrorCode::Draining,
                                    "server draining; retry another instance"));
    }

    /** A framing violation: one typed id-0 error naming the ProtoError,
     * then flush and close (the stream has no trustworthy resync
     * point). */
    void
    sendProtocolError(Conn &conn, ProtoError err)
    {
        counters.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        enqueueOut(conn, errorReply(conn.mode, FrameType::Error, 0,
                                    ErrorCode::BadRequest,
                                    std::string("protocol error: ") +
                                        protoErrorName(err)));
        conn.closing = true;
    }

    /** One health answer: the process's own lifecycle state. The shard
     * parent answers fleet Health frames itself with the supervision
     * view; this one is what a single server or an individual shard
     * reports. */
    void
    sendHealth(Conn &conn, uint64_t wire_id)
    {
        const bool draining = drain_requested.load(std::memory_order_acquire);
        enqueueOut(conn, encodeReply(conn.mode, FrameType::Response,
                                     wire_id,
                                     draining ? "{\"health\":\"draining\"}"
                                              : "{\"health\":\"ready\"}",
                                     /*splice_id=*/true));
    }

    void
    submitRequest(Conn &conn, uint64_t wire_id, ScheduleRequest req)
    {
        ++conn.inflight;
        const Conn::Mode mode = conn.mode;
        uint64_t conn_id = conn.id;
        Impl *self = this;
        // The completion may run before submit() returns (shed path).
        // The holder arbitrates: whichever side runs second sees what
        // the first left behind - the completion either reads the real
        // id or marks kRidFired so the submit side skips the pending
        // bookkeeping for an id that can never be removed.
        auto rid_holder = std::make_shared<std::atomic<uint64_t>>(0);
        uint64_t rid = svc->submit(
            std::move(req),
            [self, conn_id, wire_id, mode, rid_holder](
                ScheduleResponse resp) {
                Completion c;
                c.conn_id = conn_id;
                c.request_id = rid_holder->exchange(
                    kRidFired, std::memory_order_acq_rel);
                c.code = resp.error.code;
                // A worker (or the loop, on the shed path) must never
                // unwind: fall back to a minimal typed error if the
                // response cannot be framed.
                try {
                    c.bytes = encodeReply(mode, FrameType::Response, wire_id,
                                          serializeResponse(wire_id, resp));
                } catch (const std::exception &) {
                    c.code = ErrorCode::Internal;
                    c.bytes = errorReply(mode, FrameType::Error, wire_id,
                                         c.code,
                                         "response serialization failed");
                }
                {
                    std::lock_guard<std::mutex> lock(self->comp_mu);
                    self->completions.push_back(std::move(c));
                }
                self->wake();
            });
        if (rid_holder->exchange(rid, std::memory_order_acq_rel) !=
            kRidFired)
            conn.pending.push_back(rid);
        maybePause(conn);
    }

    /** This process's stats document, net section included. */
    std::string
    statsJson()
    {
        service::StatsDocument doc{.now_s = service::windowNowS(),
                                   .metrics = svc->metricsSnapshot()};
        counters.fill(doc.metrics.net);
        return service::statsToJson(doc);
    }

    /** One STAT poll (either wire mode). Serialized per connection:
     * while a stats response is still draining, further polls coalesce
     * into one pending answer with the latest id. */
    void
    handleStat(Conn &conn, uint64_t wire_id)
    {
        counters.stats_requests.fetch_add(1, std::memory_order_relaxed);
        if (conn.stat_inflight) {
            if (conn.stat_waiting)
                counters.stats_coalesced.fetch_add(
                    1, std::memory_order_relaxed);
            conn.stat_waiting = true;
            conn.stat_waiting_id = wire_id;
            return;
        }
        conn.stat_inflight = true;
        enqueueOut(conn, encodeReply(conn.mode, FrameType::Response,
                                     wire_id, statsJson(),
                                     /*splice_id=*/true));
    }

    // --- inbound path -------------------------------------------------

    /** The one dispatcher: handle one decoded message, a binary frame
     * or a JSON line decoded to the same Frame. Returns false when the
     * connection was torn down. */
    bool
    handleFrame(Conn &conn, Frame &frame)
    {
        faultsim::TokenScope scope(conn.id);
        const bool opening = !conn.framed;
        conn.framed = true;
        if (opening && feed_fd >= 0 && conn.mode == Conn::Mode::Binary &&
            frame.payload.empty() &&
            (frame.type == FrameType::Stat ||
             frame.type == FrameType::Health) &&
            escalate(conn, frame))
            return false;
        // Counted only here, where this shard answers: an escalated
        // frame is the supervisor's, and it counts neither end.
        counters.frames_in.fetch_add(1, std::memory_order_relaxed);
        switch (frame.type) {
        case FrameType::Ping:
            enqueueOut(conn,
                       encodeReply(conn.mode, FrameType::Pong, frame.id, ""));
            return true;
        case FrameType::Pong:
            return true;
        case FrameType::Stat:
            handleStat(conn, frame.id);
            return true;
        case FrameType::Health:
            sendHealth(conn, frame.id);
            return true;
        case FrameType::Response:
        case FrameType::Error:
            sendBadRequest(conn, frame.id,
                           "unexpected frame type from client");
            return true;
        case FrameType::Request:
            break;
        }
        if (drain_requested.load(std::memory_order_acquire)) {
            sendDraining(conn, frame.id);
            return true;
        }
        // Injected peer reset: evaluated exactly once per decoded
        // request (a protocol event, not a syscall), so replays of the
        // same connection stream make the same decision.
        if (faultsim::probe(faultsim::Site::NetPeerReset).fired) {
            closeConn(conn, /*abrupt=*/true);
            return false;
        }
        ScheduleRequest req;
        try {
            service::RequestParseOptions opts;
            opts.allow_files = false;
            req = service::parseRequestLine(frame.payload, 0, opts);
        } catch (const MdesError &e) {
            sendBadRequest(conn, frame.id, e.what());
            return true;
        }
        if (frame.deadline_ms)
            req.deadline_ms = int64_t(frame.deadline_ms);
        submitRequest(conn, frame.id, std::move(req));
        return true;
    }

    /** Decode one JSON line into the frame the binary decoder would
     * yield - {"op":"stats"} a Stat, {"op":"health"} a Health, anything
     * else a Request carrying "req", "deadline_ms" and the id - and
     * dispatch it. A line that does not decode is a BadRequest echoing
     * whatever id was read. Returns false when the connection was torn
     * down. */
    bool
    handleJsonLine(Conn &conn, const std::string &line)
    {
        if (line.empty())
            return true;
        Frame frame;
        try {
            JsonValue doc = parseJson(line);
            if (doc.kind != JsonValue::Kind::Object)
                throw MdesError("request must be a JSON object");
            // jsonU64: the wire id is a full u64 and must not round
            // through the parser's double above 2^53.
            if (const JsonValue *id = doc.find("id"))
                frame.id = jsonU64(*id);
            if (const JsonValue *op = doc.find("op")) {
                if (op->kind != JsonValue::Kind::String)
                    throw MdesError(
                        "unknown op (\"stats\" or \"health\")");
                if (op->string == "stats")
                    frame.type = FrameType::Stat;
                else if (op->string == "health")
                    frame.type = FrameType::Health;
                else
                    throw MdesError(
                        "unknown op (\"stats\" or \"health\")");
            } else {
                const JsonValue *req = doc.find("req");
                if (!req || req->kind != JsonValue::Kind::String)
                    throw MdesError("missing string field 'req'");
                frame.payload = req->string;
                if (const JsonValue *dl = doc.find("deadline_ms")) {
                    const uint64_t ms = jsonU64(*dl);
                    if (ms > UINT32_MAX)
                        throw MdesError("deadline_ms above 2^32-1");
                    frame.deadline_ms = uint32_t(ms);
                }
                // "route" is accepted and ignored, as in the frame
                // header.
            }
        } catch (const MdesError &e) {
            counters.frames_in.fetch_add(1, std::memory_order_relaxed);
            sendBadRequest(conn, frame.id, e.what());
            return true;
        }
        return handleFrame(conn, frame);
    }

    /** Feed freshly read bytes through the mode-appropriate parser.
     * Returns false when the connection was torn down. */
    bool
    consume(Conn &conn, const char *data, size_t len)
    {
        if (conn.mode == Conn::Mode::Unknown && len > 0)
            conn.mode = data[0] == '{' ? Conn::Mode::Json
                                       : Conn::Mode::Binary;
        if (conn.mode == Conn::Mode::Json) {
            conn.jsonbuf.append(data, len);
            size_t start = 0;
            for (;;) {
                size_t nl = conn.jsonbuf.find('\n', start);
                if (nl == std::string::npos)
                    break;
                std::string line =
                    conn.jsonbuf.substr(start, nl - start);
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                start = nl + 1;
                if (!handleJsonLine(conn, line))
                    return false;
            }
            conn.jsonbuf.erase(0, start);
            if (conn.jsonbuf.size() > kMaxPayload) {
                sendProtocolError(conn, ProtoError::OversizedPayload);
            }
            return true;
        }
        conn.decoder.feed(data, len);
        for (;;) {
            Frame frame;
            FrameDecoder::Status st = conn.decoder.next(&frame);
            if (st == FrameDecoder::Status::NeedMore)
                return true;
            if (st == FrameDecoder::Status::Error) {
                sendProtocolError(conn, conn.decoder.error());
                return true;
            }
            if (!handleFrame(conn, frame))
                return false;
            // Keep decoding even when paused: backpressure stops
            // *reading the socket*, not already-buffered frames -
            // otherwise a paused connection whose peer is done sending
            // would never see its remaining requests submitted.
            if (conn.closing)
                return true;
        }
    }

    void
    handleReadable(Conn &conn)
    {
        faultsim::TokenScope scope(conn.id);
        char buf[16384];
        for (;;) {
            size_t want = sizeof(buf);
            if (faultsim::probe(faultsim::Site::NetShortRead).fired)
                want = 1;
            ssize_t n = io::readRetry(conn.fd, buf, want);
            if (n > 0) {
                counters.bytes_in.fetch_add(uint64_t(n),
                                            std::memory_order_relaxed);
                if (!consume(conn, buf, size_t(n)))
                    return; // conn gone
                if (conn.paused || conn.closing)
                    break;
                continue;
            }
            if (n == 0) {
                closeConn(conn, /*abrupt=*/false);
                return;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            closeConn(conn, /*abrupt=*/true);
            return;
        }
        if (!flushWrites(conn))
            return;
        // The flush may have drained a pause caused purely by output
        // (ping/bad-frame floods produce no completion to resume via
        // drainCompletions); re-evaluate here or the connection wedges
        // with no interest bits armed.
        maybeResume(conn);
        updateInterest(conn);
    }

    void
    handleAccept()
    {
        for (;;) {
            int fd = io::accept4Retry(listen_fd, nullptr, nullptr,
                                      SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (fd < 0)
                return; // EAGAIN or transient accept error
            adoptConnection(fd);
        }
    }

    /**
     * The listen socket is readable. A fleet's shards all wake and race
     * to accept, and the race goes to the shard that wakes first, not
     * to the least loaded one. So a shard whose workers are all busy
     * stops watching the socket, leaving the connection to an idle
     * sibling, until one of its own requests completes or kAcceptDefer
     * passes (resumeAccepting). A connection still waiting by then
     * found no idle sibling.
     */
    void
    onListenReadable()
    {
        uint64_t inflight = 0;
        for (const auto &[id, conn] : conns)
            inflight += conn->inflight;
        if (feed_fd < 0 || inflight < svc->numWorkers()) {
            handleAccept();
            return;
        }
        watchListen(0);
        accept_at = std::chrono::steady_clock::now() + kAcceptDefer;
    }

    /** End a deferral: watch the listen socket again and accept. */
    void
    resumeAccepting()
    {
        accept_at = {};
        watchListen(EPOLLIN);
        handleAccept();
    }

    void
    watchListen(uint32_t events)
    {
        epoll_event ev{};
        ev.events = events;
        ev.data.u64 = kIdListen;
        epoll_ctl(epoll_fd, EPOLL_CTL_MOD, listen_fd, &ev);
    }

    /** Shard child: answer the supervisor's stat poll ('s' + 8-byte
     * seq) with one datagram of the same 9 bytes + this shard's stats
     * document. Sent best-effort on the nonblocking channel: a full
     * buffer just means the supervisor reports this shard stale for
     * that poll. */
    void
    answerStatPoll(const std::string &poll)
    {
        if (poll.size() < 9)
            return;
        std::string reply = poll.substr(0, 9) + statsJson();
        [[maybe_unused]] ssize_t n =
            io::sendRetry(feed_fd, reply.data(), reply.size());
    }

    /**
     * Shard child: a connection that opens with a payload-less Stat or
     * Health frame asks for the fleet, which only the supervisor knows.
     * Pass the socket up the feed channel ('c' + type + id, fd attached)
     * and forget it; the supervisor answers and closes. Returns false
     * (the connection stays here and gets this shard's own answer) when
     * the channel will not take it.
     */
    bool
    escalate(Conn &conn, const Frame &frame)
    {
        std::string msg(1, 'c');
        msg.push_back(char(frame.type));
        for (int b = 0; b < 8; ++b)
            msg.push_back(char((frame.id >> (8 * b)) & 0xff));
        if (!sendWithFd(feed_fd, msg, conn.fd))
            return false;
        // The supervisor now holds the same open socket, and epoll keeps
        // an entry until the last holder closes it: unregister first, or
        // every byte or FIN the peer sends wakes this loop for a
        // connection it no longer has, and it spins.
        epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
        closeConn(conn, /*abrupt=*/false);
        return true;
    }

    /** Shard child: dispatch one supervisor control datagram. 's'+seq
     * is a stat poll, 'h'+seq a watchdog heartbeat (echoed verbatim),
     * 'd'+u32le a drain command (DESIGN.md §15). */
    void
    handleFeedDatagram(const std::string &data)
    {
        if (data.empty())
            return;
        if (data[0] == 's') {
            answerStatPoll(data);
            return;
        }
        if (data[0] == 'h' && data.size() >= 9) {
            uint64_t seq = 0;
            for (int b = 0; b < 8; ++b)
                seq |= uint64_t(uint8_t(data[size_t(1 + b)])) << (8 * b);
            // The wedge fault: drop the echo so the supervisor's
            // watchdog sees a silent shard and SIGKILLs us. Keyed by the
            // probe seq so chaos replays make the same drop decisions.
            faultsim::TokenScope scope(seq);
            if (faultsim::probe(faultsim::Site::NetHeartbeatDrop).fired)
                return;
            [[maybe_unused]] ssize_t n =
                io::sendRetry(feed_fd, data.data(), 9);
            return;
        }
        if (data[0] == 'd' && data.size() >= 5) {
            uint32_t ms = 0;
            for (int b = 0; b < 4; ++b)
                ms |= uint32_t(uint8_t(data[size_t(1 + b)])) << (8 * b);
            beginDrain(ms);
            return;
        }
        // Unknown control byte: a newer supervisor talking to an older
        // shard; ignore rather than kill the feed.
    }

    /** Shard child: read control datagrams off the feed channel.
     * Returns false on channel EOF (graceful-shutdown cue). */
    bool
    handleFeed()
    {
        char buf[64];
        for (;;) {
            ssize_t n = io::readRetry(feed_fd, buf, sizeof(buf));
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return true;
            if (n <= 0)
                return false; // EOF: the supervisor is gone
            handleFeedDatagram(std::string(buf, size_t(n)));
        }
    }

    /** Deliver finished requests; returns whether there were any. */
    bool
    drainCompletions()
    {
        std::vector<Completion> batch;
        {
            std::lock_guard<std::mutex> lock(comp_mu);
            batch.swap(completions);
        }
        for (Completion &c : batch) {
            if (c.code == ErrorCode::Overloaded)
                counters.shed.fetch_add(1, std::memory_order_relaxed);
            else if (c.code == ErrorCode::DeadlineExceeded)
                counters.deadline_expired.fetch_add(
                    1, std::memory_order_relaxed);
            auto it = conns.find(c.conn_id);
            if (it == conns.end())
                continue; // connection closed first; already counted
            Conn &conn = *it->second;
            if (conn.inflight)
                --conn.inflight;
            if (c.request_id) {
                auto &p = conn.pending;
                for (size_t i = 0; i < p.size(); ++i) {
                    if (p[i] == c.request_id) {
                        p[i] = p.back();
                        p.pop_back();
                        break;
                    }
                }
            }
            enqueueOut(conn, std::move(c.bytes));
            // Resume only after the flush: the just-enqueued response
            // counts against the high-water mark until written, and a
            // pre-flush resume decision could strand a paused
            // connection whose buffer then drains completely.
            if (flushWrites(conn)) {
                maybeResume(conn);
                updateInterest(conn);
            }
        }
        return !batch.empty();
    }

    void
    run()
    {
        epoll_event evs[64];
        bool done = false;
        bool drain_applied = false;
        while (!done) {
            int timeout = -1;
            if (drain_requested.load(std::memory_order_acquire)) {
                if (!drain_applied) {
                    drain_applied = true;
                    // Stop admitting, but first take every connection
                    // already in the backlog: its handshake completed
                    // and it may have written a request, so closing the
                    // listen socket under it would reset it instead of
                    // answering (Ok or Draining). Later clients are
                    // refused outright instead of queueing behind a
                    // dying process - or, in a fleet, go to a shard
                    // that still holds the shared socket.
                    if (listen_fd >= 0) {
                        handleAccept();
                        epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd,
                                  nullptr);
                        ::close(listen_fd);
                        listen_fd = -1;
                        accept_at = {};
                    }
                }
                // Drained = no connection remains: every in-flight
                // request was answered and its bytes flushed (clients
                // close after reading). Past the deadline we exit
                // anyway - a stuck client that never reads its
                // response must not hold the process hostage.
                if (conns.empty())
                    break;
                auto now_us =
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now()
                            .time_since_epoch())
                        .count();
                int64_t left_ms =
                    (drain_deadline_us.load(std::memory_order_acquire) -
                     now_us) /
                    1000;
                if (left_ms <= 0)
                    break;
                timeout = int(std::min<int64_t>(left_ms, 100));
            }
            if (accept_at != std::chrono::steady_clock::time_point{}) {
                auto left = std::chrono::ceil<std::chrono::milliseconds>(
                                accept_at - std::chrono::steady_clock::now())
                                .count();
                if (left <= 0)
                    resumeAccepting();
                else if (timeout < 0 || left < timeout)
                    timeout = int(left);
            }
            int n = io::epollWaitRetry(epoll_fd, evs, 64, timeout);
            if (n < 0)
                break;
            for (int i = 0; i < n && !done; ++i) {
                uint64_t id = evs[i].data.u64;
                if (id == kIdEvent) {
                    uint64_t junk;
                    [[maybe_unused]] ssize_t r =
                        ::read(event_fd, &junk, sizeof(junk));
                    // A worker freed up: take the connections this shard
                    // left to its siblings now, not when the cap passes.
                    if (drainCompletions() &&
                        accept_at != std::chrono::steady_clock::time_point{})
                        resumeAccepting();
                    if (stop_requested.load(std::memory_order_acquire))
                        done = true;
                } else if (id == kIdListen) {
                    onListenReadable();
                } else if (id == kIdFeed) {
                    if (!handleFeed()) {
                        stop_requested.store(
                            true, std::memory_order_release);
                        done = true;
                    }
                } else {
                    auto it = conns.find(id);
                    if (it == conns.end())
                        continue; // closed earlier in this batch
                    uint32_t events = evs[i].events;
                    // Nothing may unwind the loop thread (that would
                    // std::terminate the process): an unexpected
                    // exception costs the offending connection only.
                    try {
                        Conn &conn = *it->second;
                        if (events & (EPOLLHUP | EPOLLERR)) {
                            closeConn(conn, /*abrupt=*/true);
                            continue;
                        }
                        if (events & EPOLLOUT) {
                            if (!flushWrites(conn))
                                continue;
                            maybeResume(conn);
                            updateInterest(conn);
                            // re-find: flush may have closed on
                            // `closing`
                            if (conns.find(id) == conns.end())
                                continue;
                        }
                        if (events & EPOLLIN)
                            handleReadable(conn);
                    } catch (const std::exception &) {
                        auto again = conns.find(id);
                        if (again != conns.end())
                            closeConn(*again->second, /*abrupt=*/true);
                    }
                }
            }
        }
        // Final drain so late completions are counted, then teardown.
        drainCompletions();
        std::vector<uint64_t> ids;
        ids.reserve(conns.size());
        for (auto &[id, conn] : conns)
            ids.push_back(id);
        for (uint64_t id : ids) {
            auto it = conns.find(id);
            if (it != conns.end())
                closeConn(*it->second, /*abrupt=*/false);
        }
        {
            std::lock_guard<std::mutex> lock(done_mu);
            loop_done = true;
        }
        done_cv.notify_all();
    }
};

Server::Server(ServerConfig config) : impl_(std::make_unique<Impl>())
{
    impl_->config = std::move(config);
}

Server::~Server()
{
    try {
        stop();
    } catch (...) {
        // Destructors must not throw; stop() failures are already
        // reflected in closed fds.
    }
}

void
Server::start()
{
    Impl &im = *impl_;
    if (im.started)
        return;
    im.epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    if (im.epoll_fd < 0)
        throw MdesError(std::string("net: epoll_create1: ") +
                        strerror(errno));
    im.event_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (im.event_fd < 0)
        throw MdesError(std::string("net: eventfd: ") + strerror(errno));
    im.epollAdd(im.event_fd, kIdEvent, EPOLLIN);

    if (im.config.conn_feed_fd >= 0) {
        im.feed_fd = im.config.conn_feed_fd;
        setNonBlocking(im.feed_fd);
        im.epollAdd(im.feed_fd, kIdFeed, EPOLLIN);
    }
    if (im.config.inherit_listen_fd >= 0) {
        im.listen_fd = im.config.inherit_listen_fd;
        setNonBlocking(im.listen_fd);
    } else {
        im.listen_fd = makeListenSocket(im.config.host, im.config.port,
                                        &im.bound_port);
    }
    // Level-triggered and never EPOLLEXCLUSIVE: a fleet's shards share
    // one listen socket, and an exclusive wakeup can land on a stopped
    // shard, leaving the connection unaccepted until the watchdog
    // kills it. Every shard wakes; one accept wins, the rest see EAGAIN.
    im.epollAdd(im.listen_fd, kIdListen, EPOLLIN);

    im.svc = std::make_unique<MdesService>(im.config.service);
    im.loop = std::thread([&im] { im.run(); });
    im.started = true;
}

void
Server::stop()
{
    Impl &im = *impl_;
    if (!im.started || im.stopped)
        return;
    im.stop_requested.store(true, std::memory_order_release);
    im.wake();
    im.loop.join();
    // Capture the final snapshot before the service goes away, so
    // metrics() keeps answering after shutdown.
    im.final_metrics = im.svc->metricsSnapshot();
    im.counters.fill(im.final_metrics.net);
    // A shard's last datagram: its final stats document ('x' +
    // document) for the fleet's exit dump. Best-effort: a full channel
    // leaves this shard stale there.
    if (im.feed_fd >= 0) {
        const std::string report = "x" + im.statsJson();
        [[maybe_unused]] ssize_t n =
            io::sendRetry(im.feed_fd, report.data(), report.size());
    }
    // Service teardown drains outstanding jobs; their completions still
    // push to the (now undrained) queue and poke the eventfd - both
    // stay valid until below.
    im.svc.reset();
    if (im.listen_fd >= 0)
        ::close(im.listen_fd);
    if (im.feed_fd >= 0)
        ::close(im.feed_fd);
    ::close(im.event_fd);
    ::close(im.epoll_fd);
    im.listen_fd = im.feed_fd = im.event_fd = im.epoll_fd = -1;
    im.stopped = true;
}

uint16_t
Server::port() const
{
    return impl_->bound_port;
}

service::ServiceMetrics
Server::metrics() const
{
    Impl &im = *impl_;
    if (!im.svc)
        return im.final_metrics;
    service::ServiceMetrics m = im.svc->metricsSnapshot();
    im.counters.fill(m.net);
    return m;
}

service::MdesService &
Server::service()
{
    return *impl_->svc;
}

bool
Server::stopping() const
{
    return impl_->stop_requested.load(std::memory_order_acquire);
}

void
Server::beginDrain(uint64_t deadline_ms)
{
    impl_->beginDrain(deadline_ms);
}

bool
Server::draining() const
{
    return impl_->drain_requested.load(std::memory_order_acquire);
}

void
Server::waitUntilStopped()
{
    Impl &im = *impl_;
    std::unique_lock<std::mutex> lock(im.done_mu);
    im.done_cv.wait(lock, [&im] { return im.loop_done; });
}

std::string
serializeResponse(uint64_t id, const ScheduleResponse &resp)
{
    JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("code").value(uint64_t(resp.error.code));
    w.key("error").value(service::errorCodeName(resp.error.code));
    if (resp.error)
        w.key("message").value(truncateErrorMessage(resp.error.message));
    if (!resp.machine.empty())
        w.key("machine").value(resp.machine);
    // Decimal string: a u64 does not survive a JSON double. Errors get
    // a literal 0 so no client mistakes the empty-schedule hash (the
    // FNV basis) for a real fingerprint.
    w.key("fingerprint")
        .value(std::to_string(
            resp.ok() ? service::scheduleFingerprint(resp) : 0));
    w.key("cache_hit").value(resp.cache_hit);
    w.key("disk_hit").value(resp.disk_hit);
    w.key("degraded").value(resp.degraded);
    w.key("total_cycles").value(resp.total_cycles);
    w.key("blocks").value(
        uint64_t(resp.schedules.size() + resp.modulo.size()));
    w.endObject();
    return w.str();
}

// ---------------------------------------------------------------------
// mdesc serve: signal-driven single-process and fork-per-shard modes.
// ---------------------------------------------------------------------

namespace {

/** Block SIGINT/SIGTERM in the calling thread (inherited by threads
 * spawned after); returns the set for sigwait/signalfd. */
sigset_t
blockTermSignals()
{
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);
    return set;
}

/** Print @p doc at exit: one JSON line, or the text tables. */
void
dumpStats(const service::StatsDocument &doc, bool json)
{
    if (json)
        std::cout << service::statsToJson(doc) << "\n";
    else
        std::cout << service::renderStats(doc);
}

/** Arm the flight-recorder spool for this serving process (@p shard
 * >= 0 selects a per-shard subdirectory). No-op when disabled. */
void
armFlightRecorder(const ServeOptions &opts, int shard)
{
    if (opts.flightrec_dir.empty())
        return;
    // Crash capture (DESIGN.md §15): fatal signals dump the trace rings
    // to one fleet-wide crash directory (files are named by pid, so
    // shards never collide), decodable by `mdesc flight decode`.
    flightrec::armCrashCapture(opts.flightrec_dir + "/crash");
    flightrec::SpoolConfig cfg;
    cfg.dir = opts.flightrec_dir;
    if (shard >= 0)
        cfg.dir += "/shard-" + std::to_string(shard);
    cfg.max_bytes = opts.flightrec_max_bytes;
    cfg.slow_us = opts.flightrec_slow_ms * 1000;
    flightrec::armSpool(cfg);
    // Announce the disk side effect (opt-in, but say where it lands).
    std::cout << "mdesc serve: flight recorder spooling to " << cfg.dir
              << " (cap " << (cfg.max_bytes >> 20) << " MiB, slow >= "
              << opts.flightrec_slow_ms << " ms)\n";
}

/** Tell the launcher (the chaos harness) which port a port-0 server
 * bound: one little-endian u16 on opts.port_notify_fd, then close. */
void
notifyPort(int fd, uint16_t port)
{
    if (fd < 0)
        return;
    unsigned char b[2] = {uint8_t(port & 0xff), uint8_t(port >> 8)};
    [[maybe_unused]] ssize_t n = io::writeRetry(fd, b, sizeof(b));
    ::close(fd);
}

int
runSingleServe(const ServeOptions &opts)
{
    sigset_t set = blockTermSignals();
    armFlightRecorder(opts, /*shard=*/-1);
    Server server(opts.server);
    server.start();
    notifyPort(opts.port_notify_fd, server.port());
    std::cout << "mdesc serve: listening on " << opts.server.host << ":"
              << server.port() << " (pid " << getpid() << ", "
              << server.service().numWorkers() << " workers)\n"
              << std::flush;
    int sig = 0;
    sigwait(&set, &sig);
    if (sig == SIGTERM) {
        // Graceful drain (DESIGN.md §15): stop accepting, let in-flight
        // work finish under the deadline, shed new requests with typed
        // Draining responses. SIGINT stays the fast path.
        std::cout << "mdesc serve: " << strsignal(sig)
                  << ", draining (deadline " << opts.drain_deadline_ms
                  << " ms)\n"
                  << std::flush;
        server.beginDrain(opts.drain_deadline_ms);
        server.waitUntilStopped();
        std::cout << "mdesc serve: drained, shutting down\n";
    } else {
        std::cout << "mdesc serve: " << strsignal(sig)
                  << ", shutting down\n";
    }
    server.stop();
    dumpStats({.now_s = service::windowNowS(), .metrics = server.metrics()},
              opts.json_metrics);
    return 0;
}

/** Write @p line to stderr with one write(2), so the lines of shards
 * sharing the stream never interleave. */
void
writeLine(const std::string &line)
{
    [[maybe_unused]] ssize_t n =
        io::writeRetry(STDERR_FILENO, line.data(), line.size());
}

/** Shard child body: accept on the shared @p listen_fd and take
 * supervisor datagrams on @p feed_fd until feed EOF or a finished
 * drain. Never returns to the caller's stack - exits the process. */
[[noreturn]] void
runShardChild(const ServeOptions &opts, unsigned shard, int feed_fd,
              int listen_fd)
{
    const std::string who = "mdesc serve: shard " + std::to_string(shard);
    int code = 0;
    try {
        armFlightRecorder(opts, int(shard));
        ServerConfig cfg = opts.server;
        cfg.conn_feed_fd = feed_fd;
        cfg.inherit_listen_fd = listen_fd;
        Server server(cfg);
        server.start();
        server.waitUntilStopped();
        server.stop();
        service::ServiceMetrics m = server.metrics();
        writeLine(who + " exiting (" + std::to_string(m.requests) +
                  " requests, " + std::to_string(m.net.frames_in) +
                  " frames in, " + std::to_string(m.cache.compiles) +
                  " compiles)\n");
    } catch (const std::exception &e) {
        writeLine(who + ": " + e.what() + "\n");
        code = 1;
    }
    _exit(code);
}

/** Close every fd except stdio and the two kept. A freshly forked shard
 * keeps only the shared listen socket and its own feed channel: its
 * siblings' channels, the supervisor's epoll and signalfd, and the
 * STAT connections it is answering must not leak into it (leaked feed
 * ends would mask sibling EOFs). */
void
closeAllFdsExcept(int keep_a, int keep_b)
{
    long max = sysconf(_SC_OPEN_MAX);
    if (max <= 0 || max > 65536)
        max = 65536;
    for (int fd = 3; fd < int(max); ++fd)
        if (fd != keep_a && fd != keep_b)
            ::close(fd);
}

using Clock = std::chrono::steady_clock;

/** Most STAT/HEALTH connections the supervisor holds at once; beyond
 * it a new one is shed by closing, which a poller sees as a reset and
 * retries. */
constexpr size_t kMaxFleetConns = 64;
/** A fleet poll reports shards that have not answered by then stale. */
constexpr std::chrono::milliseconds kPollDeadline(300);
/** A peer gets this long to take its answer before it is closed. */
constexpr std::chrono::seconds kAnswerDeadline(2);
/** epoll ids: the signalfd, shard i's channel (kChanId + i), and an
 * answered connection (kConnId + its fd). */
constexpr uint64_t kSignalId = 1, kChanId = 16, kConnId = uint64_t(1) << 32;

/** One shard slot's supervision state (DESIGN.md §15). */
struct ShardSlot
{
    pid_t pid = -1;
    /** Supervisor end of the feed channel; -1 while the shard is down. */
    int chan = -1;
    uint64_t restarts = 0;
    uint64_t crashes = 0;
    uint64_t wedges = 0;
    /** Consecutive crashes younger than rapid_crash_window_ms; drives
     * the exponential backoff and the quarantine decision. */
    uint32_t rapid = 0;
    bool quarantined = false;
    /** Watchdog SIGKILL sent; the next reap counts as a wedge, not a
     * crash. */
    bool kill_pending = false;
    bool drain_sent = false;
    Clock::time_point started{};
    /** When down: earliest respawn time (crash-loop backoff). */
    Clock::time_point restart_at{};
    Clock::time_point last_beat{};
    /** The fleet poll in flight still waits for this shard's reply. */
    bool poll_pending = false;
    /** This shard's stats document for the current poll ("" = stale). */
    std::string stats;
    /** The document this incarnation sent as it exited ("" = none). */
    std::string final_stats;
};

/** A STAT or HEALTH connection a shard passed up, until answered. */
struct FleetConn
{
    int fd = -1;
    /** Frame id, echoed in the answer. */
    uint64_t id = 0;
    /** Health: answered from supervision state, no fleet poll. */
    bool health = false;
    /** Stat: the fleet poll that answers it (0 = the next one). */
    uint64_t poll = 0;
    /** The encoded answer ([off, size) still to write); empty until
     * ready. */
    std::string out;
    size_t off = 0;
    bool watched = false; // registered for EPOLLOUT
    Clock::time_point deadline{};
};

/**
 * The `--shards` supervisor (DESIGN.md §12, §15). One thread and one
 * epoll loop own everything: the slot table, every shard's feed
 * channel (it is their only reader), the heartbeat and fleet-poll
 * timers, and the STAT/HEALTH connections shards pass up. Shards accept
 * client connections themselves from the listen socket bound here
 * before the first fork, so no client byte passes through this process
 * except the fleet answers it writes. With no other thread alive, a
 * respawn forks a clean copy.
 */
class Supervisor
{
  public:
    explicit Supervisor(const ServeOptions &opts)
        : opts_(opts), slots_(opts.shards)
    {
    }

    int
    run()
    {
        sigset_t set;
        sigemptyset(&set);
        sigaddset(&set, SIGINT);
        sigaddset(&set, SIGTERM);
        sigaddset(&set, SIGCHLD);
        pthread_sigmask(SIG_BLOCK, &set, nullptr);

        uint16_t port = 0;
        listen_fd_ = makeListenSocket(opts_.server.host, opts_.server.port,
                                      &port);
        // The supervisor gets crash capture too: its SIGSEGV is as much
        // a fleet outage as a shard's.
        if (!opts_.flightrec_dir.empty())
            flightrec::armCrashCapture(opts_.flightrec_dir + "/crash");
        ep_ = epoll_create1(EPOLL_CLOEXEC);
        sfd_ = signalfd(-1, &set, SFD_CLOEXEC | SFD_NONBLOCK);
        if (ep_ < 0 || sfd_ < 0)
            throw MdesError(std::string("net: epoll/signalfd: ") +
                            strerror(errno));
        watch(sfd_, kSignalId, EPOLLIN);
        for (unsigned i = 0; i < slots_.size(); ++i)
            if (!spawn(i))
                throw MdesError(std::string("net: cannot start shard: ") +
                                strerror(errno));

        notifyPort(opts_.port_notify_fd, port);
        std::cout << "mdesc serve: listening on " << opts_.server.host
                  << ":" << port << " (pid " << getpid() << ", "
                  << slots_.size() << " shards)\n"
                  << std::flush;

        next_beat_ = Clock::now();
        epoll_event evs[64];
        while (!done_) {
            int n = io::epollWaitRetry(ep_, evs, 64, timeoutMs());
            if (n < 0)
                break;
            for (int k = 0; k < n && !done_; ++k) {
                uint64_t id = evs[k].data.u64;
                if (id == kSignalId)
                    onSignals();
                else if (id >= kConnId)
                    onWritable(int(id - kConnId));
                else if (id >= kChanId && id - kChanId < slots_.size())
                    onChannel(unsigned(id - kChanId));
            }
            if (!done_)
                tick();
        }
        return shutdown();
    }

  private:
    const ServeOptions &opts_;
    std::vector<ShardSlot> slots_;
    std::vector<FleetConn> conns_;
    /** Receive buffer for shard datagrams (a stats reply is the
     * largest). */
    std::vector<char> buf_ = std::vector<char>(service::kStatsDatagramMax);
    int listen_fd_ = -1;
    int ep_ = -1;
    int sfd_ = -1;
    uint64_t poll_seq_ = 0;
    bool polling_ = false;
    Clock::time_point poll_deadline_{};
    uint64_t beat_seq_ = 0;
    Clock::time_point next_beat_{};
    bool draining_ = false;
    Clock::time_point drain_deadline_{};
    bool done_ = false;
    bool unclean_exit_ = false;

    void
    watch(int fd, uint64_t id, uint32_t events)
    {
        epoll_event ev{};
        ev.events = events;
        ev.data.u64 = id;
        epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev);
    }

    /** Fork shard @p i. Only the listen socket and the shard's own feed
     * end cross into the child; signals stay blocked there, its
     * shutdown cues being feed EOF and the 'd' drain datagram. */
    bool
    spawn(unsigned i)
    {
        int pair[2];
        if (socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, pair) !=
            0)
            return false;
        pid_t pid = fork();
        if (pid < 0) {
            ::close(pair[0]);
            ::close(pair[1]);
            return false;
        }
        if (pid == 0) {
            closeAllFdsExcept(listen_fd_, pair[1]);
            runShardChild(opts_, i, pair[1], listen_fd_);
        }
        ::close(pair[1]);
        setNonBlocking(pair[0]);
        watch(pair[0], kChanId + i, EPOLLIN);
        ShardSlot &s = slots_[i];
        s.chan = pair[0];
        s.pid = pid;
        s.kill_pending = false;
        s.restart_at = {};
        s.started = s.last_beat = Clock::now();
        return true;
    }

    /** Send one control datagram to shard @p s; false when it is down or
     * the channel refused it. */
    static bool
    sendTo(const ShardSlot &s, const char *msg, size_t len)
    {
        return s.chan >= 0 &&
               ::send(s.chan, msg, len, MSG_NOSIGNAL) == ssize_t(len);
    }

    void
    closeChan(ShardSlot &s)
    {
        if (s.chan < 0)
            return;
        epoll_ctl(ep_, EPOLL_CTL_DEL, s.chan, nullptr);
        ::close(s.chan);
        s.chan = -1;
        if (s.poll_pending) {
            s.poll_pending = false;
            maybeFinishPoll();
        }
    }

    /** Epoll timeout: the next timer due, at most 200 ms away, so the
     * supervision tick runs even when no fd becomes ready. */
    int
    timeoutMs() const
    {
        Clock::time_point next =
            Clock::now() + std::chrono::milliseconds(200);
        next = std::min(next, next_beat_);
        if (polling_)
            next = std::min(next, poll_deadline_);
        for (const ShardSlot &s : slots_)
            if (s.restart_at != Clock::time_point{} && !draining_)
                next = std::min(next, s.restart_at);
        auto ms =
            std::chrono::ceil<std::chrono::milliseconds>(next - Clock::now())
                .count();
        return int(std::max<int64_t>(ms, 0));
    }

    // --- shard channels ----------------------------------------------

    /** Drain shard @p i's channel: heartbeat echoes, stat replies,
     * escalated connections and the exit document. Any datagram is
     * proof of life. */
    void
    onChannel(unsigned i)
    {
        ShardSlot &s = slots_[i];
        char *buf = buf_.data();
        while (s.chan >= 0) {
            int fd = -1;
            ssize_t n = recvFromShard(s.chan, buf, buf_.size(), &fd);
            if (n == -1)
                return;
            if (n == -2) {
                closeChan(s); // the shard died; the reap handles it
                return;
            }
            if (n == 0)
                continue; // malformed, already cleaned up
            s.last_beat = Clock::now();
            if (fd >= 0) {
                uint64_t id = 0;
                for (int b = 0; b < 8; ++b)
                    id |= uint64_t(uint8_t(buf[2 + b])) << (8 * b);
                adopt(fd, FrameType(uint8_t(buf[1])), id);
            } else if (buf[0] == 's' && n > 9) {
                uint64_t seq = 0;
                for (int b = 0; b < 8; ++b)
                    seq |= uint64_t(uint8_t(buf[1 + b])) << (8 * b);
                // A late reply to an earlier poll is discarded.
                if (polling_ && seq == poll_seq_ && s.poll_pending) {
                    s.stats.assign(buf + 9, size_t(n) - 9);
                    s.poll_pending = false;
                    maybeFinishPoll();
                }
            } else if (buf[0] == 'x') {
                s.final_stats.assign(buf + 1, size_t(n) - 1);
            }
        }
    }

    // --- fleet STAT and HEALTH ----------------------------------------

    /** Take over an escalated connection and queue its answer. */
    void
    adopt(int fd, FrameType type, uint64_t id)
    {
        reapConns(); // answered connections no longer count
        bool stat = type == FrameType::Stat;
        if ((!stat && type != FrameType::Health) ||
            conns_.size() >= kMaxFleetConns) {
            ::close(fd); // shed: the poller retries
            return;
        }
        setNonBlocking(fd);
        FleetConn c;
        c.fd = fd;
        c.id = id;
        c.health = !stat;
        conns_.push_back(std::move(c));
        if (!stat)
            answer(conns_.back(), healthJson());
        else if (!polling_)
            startPoll();
    }

    /** Poll every shard ('s' + seq) for the STATs waiting on the next
     * poll. A STAT that arrives while a poll is in flight waits for the
     * next one, so its answer is never older than its question. */
    void
    startPoll()
    {
        ++poll_seq_;
        polling_ = true;
        poll_deadline_ = Clock::now() + kPollDeadline;
        for (FleetConn &c : conns_)
            if (!c.health && c.poll == 0)
                c.poll = poll_seq_;
        char msg[9];
        msg[0] = 's';
        for (int b = 0; b < 8; ++b)
            msg[1 + b] = char((poll_seq_ >> (8 * b)) & 0xff);
        for (ShardSlot &s : slots_) {
            s.stats.clear();
            s.poll_pending = sendTo(s, msg, sizeof(msg));
        }
        maybeFinishPoll();
    }

    /** Answer the poll's STATs once every shard replied or the deadline
     * passed (a shard that missed it is reported stale, never waited
     * on: a partial fleet view beats a blocked one). */
    void
    maybeFinishPoll()
    {
        if (!polling_)
            return;
        bool waiting = false;
        for (const ShardSlot &s : slots_)
            waiting |= s.poll_pending;
        if (waiting && Clock::now() < poll_deadline_)
            return;
        polling_ = false;
        for (ShardSlot &s : slots_)
            s.poll_pending = false;
        const std::string doc = fleetStats(&ShardSlot::stats);
        bool more = false;
        for (FleetConn &c : conns_) {
            if (c.health || c.fd < 0)
                continue;
            if (c.poll == poll_seq_)
                answer(c, doc);
            else if (c.poll == 0)
                more = true;
        }
        if (more)
            startPoll();
    }

    /** The fleet document over each slot's @p doc, which it takes ("" =
     * stale). */
    std::string
    fleetStats(std::string ShardSlot::*doc)
    {
        std::vector<std::string> docs;
        for (ShardSlot &s : slots_)
            docs.push_back(std::exchange(s.*doc, {}));
        service::SupervisionInfo sup;
        std::vector<service::ShardSupervision> rows;
        supervision(&sup, &rows);
        return service::mergeShardStats(docs, service::windowNowS(), sup,
                                        rows);
    }

    /** Encode @p payload as @p c's Response frame and start writing. */
    void
    answer(FleetConn &c, const std::string &payload)
    {
        Frame f;
        f.type = FrameType::Response;
        f.id = c.id;
        f.payload = payload;
        c.out = encodeFrame(f);
        c.deadline = Clock::now() + kAnswerDeadline;
        flush(c);
    }

    /** Write what the peer takes without blocking; close the connection
     * once the answer is out or the peer is gone. */
    void
    flush(FleetConn &c)
    {
        while (c.off < c.out.size()) {
            ssize_t w = io::sendRetry(c.fd, c.out.data() + c.off,
                                      c.out.size() - c.off);
            if (w > 0) {
                c.off += size_t(w);
                continue;
            }
            if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                if (!c.watched) {
                    watch(c.fd, kConnId + uint64_t(c.fd), EPOLLOUT);
                    c.watched = true;
                }
                return;
            }
            break; // peer reset
        }
        closeConn(c);
    }

    void
    closeConn(FleetConn &c)
    {
        if (c.fd < 0)
            return;
        if (c.watched)
            epoll_ctl(ep_, EPOLL_CTL_DEL, c.fd, nullptr);
        ::close(c.fd);
        c.fd = -1;
    }

    void
    onWritable(int fd)
    {
        for (FleetConn &c : conns_)
            if (c.fd == fd)
                flush(c);
    }

    /** Drop closed connections and close those past their deadline
     * (peers that never read). */
    void
    reapConns()
    {
        auto now = Clock::now();
        for (FleetConn &c : conns_)
            if (c.fd >= 0 && !c.out.empty() && now >= c.deadline)
                closeConn(c);
        conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                    [](const FleetConn &c) {
                                        return c.fd < 0;
                                    }),
                     conns_.end());
    }

    /** Fleet and per-shard supervision view for stats and health. */
    void
    supervision(service::SupervisionInfo *sup,
                std::vector<service::ShardSupervision> *rows) const
    {
        for (const ShardSlot &s : slots_) {
            service::ShardSupervision row;
            row.pid = s.pid;
            row.restarts = s.restarts;
            row.crashes = s.crashes;
            row.wedges = s.wedges;
            // Down with no restart due: drained or shut down.
            row.state = s.quarantined ? "quarantined"
                        : s.pid > 0  ? "live"
                        : s.restart_at != Clock::time_point{} ? "backoff"
                                                               : "exited";
            rows->push_back(row);
            sup->restarts += s.restarts;
            sup->crashes += s.crashes;
            sup->wedged_shards += s.wedges;
            if (s.quarantined)
                ++sup->quarantined;
        }
        sup->health = draining_         ? "draining"
                      : sup->quarantined ? "degraded"
                                         : "ready";
    }

    /** The health document: supervision state, no shard round-trip (a
     * wedged fleet must still answer health probes). */
    std::string
    healthJson() const
    {
        service::SupervisionInfo sup;
        std::vector<service::ShardSupervision> rows;
        supervision(&sup, &rows);
        return "{\"health\":\"" + sup.health + "\",\"shards\":" +
               std::to_string(slots_.size()) +
               ",\"restarts\":" + std::to_string(sup.restarts) +
               ",\"crashes\":" + std::to_string(sup.crashes) +
               ",\"wedged_shards\":" + std::to_string(sup.wedged_shards) +
               ",\"quarantined\":" + std::to_string(sup.quarantined) + "}";
    }

    // --- supervision ----------------------------------------------------

    void
    onSignals()
    {
        signalfd_siginfo si;
        while (::read(sfd_, &si, sizeof(si)) == ssize_t(sizeof(si))) {
            if (si.ssi_signo == SIGCHLD)
                reapChildren();
            else if (si.ssi_signo == SIGTERM)
                beginDrain();
            else
                done_ = true; // SIGINT: immediate shutdown
        }
    }

    /** Timers: the fleet poll deadline, answer deadlines, heartbeats,
     * the watchdog, restarts, and drain progress. */
    void
    tick()
    {
        reapChildren(); // SIGCHLD coalesces; sweep every tick
        maybeFinishPoll();
        reapConns();
        auto now = Clock::now();
        if (now >= next_beat_) {
            ++beat_seq_;
            char msg[9];
            msg[0] = 'h';
            for (int b = 0; b < 8; ++b)
                msg[1 + b] = char((beat_seq_ >> (8 * b)) & 0xff);
            for (const ShardSlot &s : slots_)
                if (s.pid > 0 && !s.drain_sent)
                    sendTo(s, msg, sizeof(msg));
            next_beat_ =
                now + std::chrono::milliseconds(opts_.heartbeat_interval_ms);
        }
        if (draining_) {
            drainProgress(now);
            return;
        }
        for (unsigned i = 0; i < slots_.size(); ++i) {
            ShardSlot &s = slots_[i];
            if (s.pid > 0 && !s.kill_pending &&
                now - s.last_beat >
                    std::chrono::milliseconds(opts_.heartbeat_timeout_ms)) {
                // Wedged: alive for waitpid but its loop is silent. The
                // reap that follows takes the normal restart path.
                s.kill_pending = true;
                std::cout << "mdesc serve: shard " << i
                          << " wedged (no heartbeat), SIGKILL pid "
                          << s.pid << "\n"
                          << std::flush;
                ::kill(s.pid, SIGKILL);
            } else if (s.pid < 0 && !s.quarantined &&
                       s.restart_at != Clock::time_point{} &&
                       now >= s.restart_at) {
                if (!spawn(i)) { // fork failed: try again later
                    s.restart_at = now + std::chrono::milliseconds(
                                             opts_.restart_backoff_base_ms);
                    continue;
                }
                ++s.restarts;
                std::cout << "mdesc serve: shard " << i
                          << " restarted (restart #" << s.restarts
                          << ")\n"
                          << std::flush;
            }
        }
    }

    /** Reap dead children (SIGCHLD coalesces, so sweep until WNOHANG
     * returns nothing). Classifies wedge vs crash, escalates the
     * crash-loop backoff, and quarantines a slot that keeps dying. */
    void
    reapChildren()
    {
        for (;;) {
            int status = 0;
            pid_t pid = waitpid(-1, &status, WNOHANG);
            if (pid <= 0)
                return;
            for (unsigned i = 0; i < slots_.size(); ++i) {
                ShardSlot &s = slots_[i];
                if (s.pid == pid) {
                    reaped(i, status);
                    break;
                }
            }
        }
    }

    void
    reaped(unsigned i, int status)
    {
        ShardSlot &s = slots_[i];
        auto now = Clock::now();
        onChannel(i); // what it sent before it died, exit document too
        closeChan(s);
        s.pid = -1;
        if (draining_ || s.drain_sent) {
            // Expected exit during drain; unclean ones surface in the
            // final exit code.
            if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
                unclean_exit_ = true;
            return;
        }
        if (s.kill_pending) {
            ++s.wedges;
            s.kill_pending = false;
        } else {
            ++s.crashes;
        }
        bool rapid = now - s.started < std::chrono::milliseconds(
                                           opts_.rapid_crash_window_ms);
        s.rapid = rapid ? s.rapid + 1 : 0;
        std::string note =
            "mdesc serve: shard " + std::to_string(i) +
            (WIFSIGNALED(status)
                 ? " killed by signal " + std::to_string(WTERMSIG(status))
                 : " exited with status " +
                       std::to_string(WEXITSTATUS(status)));
        if (s.rapid >= opts_.quarantine_after) {
            s.quarantined = true;
            note += "; quarantined after " + std::to_string(s.rapid) +
                    " rapid crashes";
        } else {
            uint64_t shift = std::min<uint32_t>(s.rapid, 10);
            uint64_t backoff_ms =
                std::min(opts_.restart_backoff_base_ms << shift,
                         opts_.restart_backoff_max_ms);
            s.restart_at = now + std::chrono::milliseconds(backoff_ms);
            note += "; restart in " + std::to_string(backoff_ms) + " ms";
        }
        std::cout << note << "\n" << std::flush;
        // With every slot quarantined nothing would ever accept again:
        // exit, so the port refuses connections instead of holding
        // clients in the backlog for ever. (A slot in backoff still
        // comes back; its connections wait for the respawn.)
        for (const ShardSlot &other : slots_)
            if (!other.quarantined)
                return;
        std::cout << "mdesc serve: every shard slot is quarantined, "
                     "exiting\n"
                  << std::flush;
        unclean_exit_ = true;
        done_ = true;
    }

    /** SIGTERM (DESIGN.md §15): stop being a source of the listen
     * socket and tell every live shard to drain. Each shard accepts what
     * is in the backlog, sheds new requests with Draining, finishes its
     * in-flight work and exits; the last one out closes the socket. */
    void
    beginDrain()
    {
        if (draining_)
            return;
        draining_ = true;
        drain_deadline_ =
            Clock::now() + std::chrono::milliseconds(opts_.drain_deadline_ms);
        ::close(listen_fd_);
        listen_fd_ = -1;
        std::cout << "mdesc serve: SIGTERM, draining " << slots_.size()
                  << " shards (deadline " << opts_.drain_deadline_ms
                  << " ms)\n"
                  << std::flush;
        char msg[5];
        msg[0] = 'd';
        uint32_t ms32 = uint32_t(
            std::min<uint64_t>(opts_.drain_deadline_ms, 0xffffffffull));
        for (int b = 0; b < 4; ++b)
            msg[1 + b] = char((ms32 >> (8 * b)) & 0xff);
        for (ShardSlot &s : slots_)
            if (s.pid > 0) {
                sendTo(s, msg, sizeof(msg));
                s.drain_sent = true;
            }
    }

    /** Wait for the drained shards' reaps; SIGKILL stragglers past the
     * deadline plus a grace second. */
    void
    drainProgress(Clock::time_point now)
    {
        bool all_exited = true;
        for (const ShardSlot &s : slots_) {
            if (s.pid <= 0)
                continue;
            all_exited = false;
            if (now >= drain_deadline_ + std::chrono::seconds(1)) {
                ::kill(s.pid, SIGKILL);
                unclean_exit_ = true;
            }
        }
        if (all_exited || now >= drain_deadline_ + std::chrono::seconds(5))
            done_ = true; // absolute cap; shutdown reaps what remains
    }

    int
    shutdown()
    {
        std::cout << "mdesc serve: shutting down " << slots_.size()
                  << " shards\n"
                  << std::flush;
        for (FleetConn &c : conns_)
            closeConn(c);
        if (listen_fd_ >= 0)
            ::close(listen_fd_);
        ::close(sfd_);
        // Every exit from here on is expected. Feed EOF makes the
        // children drain and exit; half-closing leaves the way up open
        // for their exit documents, which the reap takes.
        draining_ = true;
        for (ShardSlot &s : slots_)
            if (s.chan >= 0)
                ::shutdown(s.chan, SHUT_WR);
        for (unsigned i = 0; i < slots_.size(); ++i) {
            int status = 0;
            if (slots_[i].pid <= 0)
                continue;
            if (waitpid(slots_[i].pid, &status, 0) == slots_[i].pid)
                reaped(i, status);
            else
                unclean_exit_ = true;
        }
        ::close(ep_);
        std::cout << "mdesc serve: shards exited "
                  << (unclean_exit_ ? "with errors" : "cleanly") << "\n";
        // The fleet's exit document; a slot that sent none is stale.
        dumpStats(service::parseStats(fleetStats(&ShardSlot::final_stats)),
                  opts_.json_metrics);
        return unclean_exit_ ? 1 : 0;
    }
};

} // namespace

int
runServe(const ServeOptions &opts)
{
    if (opts.shards > 1)
        return Supervisor(opts).run();
    return runSingleServe(opts);
}

} // namespace mdes::net
