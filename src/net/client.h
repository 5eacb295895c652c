#ifndef MDES_NET_CLIENT_H
#define MDES_NET_CLIENT_H

/**
 * @file
 * Blocking client for the mdes::net protocol - the counterpart the
 * tools (mdesc netbatch), the chaos harness, and the network bench
 * drive the server with. One connection, one outstanding request at a
 * time; pipelined load is produced by running several clients. Every
 * call is one send() of a frame (or the JSON line that decodes to it)
 * and one receive() loop that waits for the reply.
 *
 * Transport failures (connect refused, reset, EOF mid-response) are
 * not exceptions: they come back as NetResponse::transport_ok == false
 * so retry loops - the chaos harness's bounded-retry client - can tell
 * "the connection died" (retryable) from a typed service error
 * (definitive).
 */

#include <cstdint>
#include <initializer_list>
#include <string>

#include "net/frame.h"
#include "service/service.h"

namespace mdes::net {

/** One request's outcome as observed through the socket. */
struct NetResponse
{
    /** False when the transport failed before a response arrived
     * (connect/reset/EOF); every other field is meaningless then. */
    bool transport_ok = false;

    uint64_t id = 0;
    service::ErrorCode code = service::ErrorCode::Internal;
    /** Printable code name as sent by the server ("ok", "overloaded"). */
    std::string error;
    std::string message;
    std::string machine;
    /** scheduleFingerprint() of the response, for cross-path equality
     * against an in-process run. */
    uint64_t fingerprint = 0;
    bool cache_hit = false;
    bool disk_hit = false;
    bool degraded = false;
    uint64_t total_cycles = 0;
    uint64_t blocks = 0;

    bool
    ok() const
    {
        return transport_ok && code == service::ErrorCode::Ok;
    }
};

/** Parse the server's response JSON body into a NetResponse (with
 * transport_ok set); throws MdesError on malformed JSON. */
NetResponse parseResponseJson(const std::string &body);

/**
 * The frame header's route value for @p req: the artifactKey of its
 * compiled description when the client can compute it (built-in
 * machine), else 0. The server ignores it - any shard serves any key
 * from the shared store - so no caller in this repository sets it
 * except the end-to-end benchmark (perfbench/), which is kept working
 * unchanged.
 */
uint64_t routeKey(const service::ScheduleRequest &req);

/** Blocking protocol client (binary frames or JSON-lines mode). */
class BlockingClient
{
  public:
    /** Connect to @p host:@p port; check connected() - a refused
     * connection is a state, not an exception. */
    BlockingClient(const std::string &host, uint16_t port,
                   bool json_mode = false);
    ~BlockingClient();

    BlockingClient(const BlockingClient &) = delete;
    BlockingClient &operator=(const BlockingClient &) = delete;

    bool connected() const { return fd_ >= 0; }

    /**
     * Send one request line (request_parse.h grammar) and block for
     * its response. @p deadline_ms rides in the frame header (JSON
     * mode: the "deadline_ms" field); @p route fills the header's
     * route field, which the server ignores (see routeKey()).
     */
    NetResponse request(const std::string &line, uint32_t deadline_ms = 0,
                        uint64_t route = 0);

    /** Binary-mode liveness probe (Ping/Pong round trip). */
    bool ping();

    /**
     * Fetch the live stats document (service/stats.h schema). Binary
     * mode sends a Stat frame; JSON mode sends {"op":"stats"}. Against
     * a sharded server, a Stat frame that opens a connection returns
     * the parent's merged fleet view - and the parent closes the
     * connection after answering, so poll with a fresh client per
     * refresh. Later on a connection, or in JSON mode, the shard that
     * accepted it answers with its own view. Returns "" on transport
     * failure.
     */
    std::string stats();

    /**
     * Fetch the health document (DESIGN.md §15). Binary mode sends a
     * Health frame; JSON mode sends {"op":"health"}. A single server
     * (or the shard that accepted the connection) answers
     * {"health":"ready"|"draining"}; a Health frame that opens a
     * connection to a sharded server goes to the parent, which answers
     * its supervision view ("ready", "draining", or "degraded" plus
     * fleet counters, closing the connection after answering like
     * stats() does). Against a single server the connection stays
     * usable, so a drain flip is observable by polling one long-lived
     * connection. Returns "" on transport failure.
     */
    std::string health();

  private:
    /** Write @p frame in this connection's wire mode: the frame itself,
     * or the JSON line that decodes to it ({"op":"stats"} for a Stat,
     * {"op":"health"} for a Health, {"req":..} for a Request). False,
     * with the connection closed, when it cannot be sent. */
    bool send(const Frame &frame);

    /** The one read loop: block until the reply to @p id arrives as a
     * frame of one of @p types, skipping any other frame. A JSON line
     * has no header, so it is the reply to the one message outstanding
     * and arrives as a Response. Bytes past the reply stay buffered for
     * the next call. False, with the connection closed, on EOF, reset
     * or a framing error. */
    bool receive(uint64_t id, std::initializer_list<FrameType> types,
                 Frame *out);

    void disconnect();

    int fd_ = -1;
    bool json_mode_ = false;
    uint64_t next_id_ = 1;
    /** Inbound bytes not yet consumed: frames, or JSON lines. */
    FrameDecoder decoder_;
    std::string lines_;
};

} // namespace mdes::net

#endif // MDES_NET_CLIENT_H
