#ifndef MDES_NET_SERVER_H
#define MDES_NET_SERVER_H

/**
 * @file
 * mdes::net - the socket serving tier in front of MdesService.
 *
 * One epoll event loop owns every connection (no thread per
 * connection); scheduling work never runs on the loop. A decoded
 * request is handed to MdesService::submit() with a completion
 * callback, the worker thread serializes the response and pushes it to
 * a completion queue, and an eventfd wakes the loop to write it out.
 * The loop therefore only ever parses frames, moves bytes, and flips
 * epoll interest bits - it stays responsive under any scheduling load.
 *
 * Two wire modes share one connection handler, distinguished by the
 * first byte a client sends: 'M' (the frame magic) selects the binary
 * length-prefixed protocol (frame.h), '{' selects newline-delimited
 * JSON for humans and scripts. A JSON line is a second encoding of a
 * Frame: the loop decodes each line into the Request, Stat or Health
 * frame the binary decoder would yield, and one dispatcher handles
 * both. Every reply leaves through one writer, which wraps the JSON
 * body in a frame or ends it with a newline by the connection's mode,
 * splicing the id into a stats or health document on a line.
 *
 * Backpressure composes with the service's admission control rather
 * than duplicating it: a connection that exceeds its in-flight cap or
 * whose outbound buffer crosses the high-water mark stops being read
 * (EPOLLIN dropped) until it drains - per-connection flow control -
 * while the bounded admission queue sheds excess aggregate load with
 * typed Overloaded responses the client sees immediately. Nothing
 * stalls silently and nothing is dropped without an error frame.
 *
 * Shard mode (DESIGN.md §12): `mdesc serve --shards N` binds the listen
 * socket, then forks N shards sharing it and one on-disk artifact
 * store. Every shard accepts client connections itself, and the parent
 * never reads a request. Each shard keeps one SOCK_SEQPACKET feed
 * channel to the parent. Down it go stat polls, heartbeats and drain
 * commands; up it come their replies and the one kind of connection a
 * shard cannot answer alone: one that opens with a payload-less Stat
 * or Health frame asks for the fleet view, so the shard passes its
 * socket up via SCM_RIGHTS, and the parent writes the fleet STAT or
 * HEALTH answer to that socket and closes it.
 *
 * Supervision plane (DESIGN.md §15): the shard parent is one thread
 * running one epoll loop. It reaps children on SIGCHLD and restarts
 * crashed shards with exponential crash-loop backoff, quarantining a
 * slot that crashes rapidly (and exiting once every slot is
 * quarantined). A watchdog heartbeats every shard over its feed
 * channel and SIGKILLs one that goes silent past a deadline (accounted
 * as "wedged", distinct from crashes). SIGTERM triggers a graceful
 * drain instead of an abrupt close: the listen socket stops accepting
 * once the backlog is taken, in-flight requests finish under a
 * deadline, and new requests are shed with a typed Draining response.
 * Fatal signals dump the flight-recorder rings to a crash capture
 * decodable offline by `mdesc flight decode`.
 */

#include <cstdint>
#include <memory>
#include <string>

#include "service/service.h"
#include "support/flightrec.h"

namespace mdes::net {

/** Server construction parameters. */
struct ServerConfig
{
    /** Listen address (single-process and shard-parent modes). */
    std::string host = "127.0.0.1";
    /** Listen port; 0 picks an ephemeral port (see Server::port()). */
    uint16_t port = 0;

    /** The backing service (workers, cache, store, admission bound). */
    service::ServiceConfig service;

    /** Per-connection in-flight request cap; reads pause above it. */
    uint32_t max_inflight_per_conn = 32;
    /** Outbound buffer bytes above which reads pause until drained. */
    size_t write_high_water = 256 * 1024;

    /** Pre-bound listening socket to adopt instead of binding
     * host:port (-1 = bind); a fleet's shards all adopt the socket the
     * parent bound. The server takes ownership of its copy, and a
     * drain accepts what is in the backlog before closing it. */
    int inherit_listen_fd = -1;
    /** Shard-child mode: the SOCK_SEQPACKET channel to the shard
     * parent (-1 = none). It carries the parent's stat polls,
     * heartbeats and drain commands, and this shard's replies,
     * escalated fleet STAT/HEALTH connections and, at stop(), final
     * stats document. EOF on this fd triggers graceful shutdown. */
    int conn_feed_fd = -1;
};

/**
 * The epoll socket server. start() binds (or adopts the configured
 * fds), constructs the MdesService, and spawns the event-loop thread;
 * stop() shuts the loop down, drains the service, and joins. Safe to
 * construct before fork() - no threads exist until start().
 */
class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind/adopt sockets, build the service, start the loop thread.
     * Throws MdesError when the socket setup fails. */
    void start();

    /** Graceful shutdown: close connections, drain the service, join
     * the loop. Idempotent. */
    void stop();

    /** The bound listen port (after start(); resolves port 0). */
    uint16_t port() const;

    /** Service metrics snapshot with the net section filled in. */
    service::ServiceMetrics metrics() const;

    /** The backing service (valid between start() and stop()). */
    service::MdesService &service();

    /**
     * Flip into draining mode (DESIGN.md §15): accept the connections
     * already in the listen backlog, then stop accepting; shed every
     * subsequently-arriving request with a typed Draining response,
     * let in-flight work finish, and exit the event loop once the last
     * in-flight response has been written (or @p deadline_ms elapses,
     * whichever is first — a stuck client must not hold the process
     * hostage). Idempotent; callable from any thread (including a
     * signal-watcher thread), and before start().
     */
    void beginDrain(uint64_t deadline_ms);

    /** True once beginDrain() was called (health reports "draining"). */
    bool draining() const;

    /** Block until the event loop exits (feed-fd EOF or stop()); the
     * caller still calls stop() to join and drain. */
    void waitUntilStopped();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Serialize one response as the single-line JSON object both wire
 * modes carry: {"id":..,"code":..,"error":..,"fingerprint":..,...}.
 * The numeric "code" is the authoritative machine-readable field;
 * "error" is its printable name. No trailing newline.
 */
std::string serializeResponse(uint64_t id,
                              const service::ScheduleResponse &resp);

/** `mdesc serve` options on top of the server itself. */
struct ServeOptions
{
    ServerConfig server;
    /** Fork this many shard workers (0/1 = single process). */
    unsigned shards = 0;
    /** Dump metrics as JSON instead of tables on shutdown. */
    bool json_metrics = false;

    /** Flight-recorder spool directory ("" - the default - disables
     * tail capture; opt in with `--flightrec <dir>`). Writing trace
     * files is a disk side effect deployments must ask for, never get
     * silently. Shard children append "/shard-N" so concurrent
     * processes never fight over one directory's byte-cap
     * accounting. */
    std::string flightrec_dir;
    /** Spool byte cap (oldest captures evicted first). */
    uint64_t flightrec_max_bytes = flightrec::SpoolConfig{}.max_bytes;
    /** Latency above which an otherwise-successful request's trace is
     * spooled (0 = only errors trigger capture). */
    uint64_t flightrec_slow_ms = 500;

    // ---- Supervision plane knobs (DESIGN.md §15) -------------------

    /** SIGTERM drain budget: in-flight requests get this long to
     * finish before the process exits anyway. */
    uint64_t drain_deadline_ms = 5000;
    /** First restart delay after a shard crash; doubles per rapid
     * crash (500ms, 1s, 2s, ...). */
    uint64_t restart_backoff_base_ms = 500;
    /** Backoff ceiling. */
    uint64_t restart_backoff_max_ms = 10000;
    /** A shard that dies younger than this is a "rapid" crash and
     * escalates the backoff; surviving longer resets the streak. */
    uint64_t rapid_crash_window_ms = 3000;
    /** Rapid crashes in a row before the slot is quarantined (no
     * further restarts; fleet health turns "degraded"; once every slot
     * is quarantined the parent exits 1). */
    uint32_t quarantine_after = 5;
    /** Watchdog heartbeat period (parent → shard 'h' probes). */
    uint64_t heartbeat_interval_ms = 500;
    /** A shard silent longer than this is SIGKILLed as wedged. */
    uint64_t heartbeat_timeout_ms = 3000;
    /** When >= 0, the bound listen port is written to this fd as
     * little-endian u16 once serving begins (then the fd is closed) —
     * the chaos harness's rendezvous with a port-0 server. */
    int port_notify_fd = -1;
};

/**
 * Run a server until SIGINT/SIGTERM, then shut down cleanly and dump
 * metrics; dispatches to the fork-per-shard supervisor when
 * opts.shards > 1. Returns a process exit code.
 */
int runServe(const ServeOptions &opts);

} // namespace mdes::net

#endif // MDES_NET_SERVER_H
