#ifndef MDES_NET_FRAME_H
#define MDES_NET_FRAME_H

/**
 * @file
 * mdes::net wire framing - the length-prefixed binary protocol.
 *
 * Every message is one frame: a fixed 32-byte little-endian header
 * followed by payload_len bytes of payload. The header (DESIGN.md §12):
 *
 *     offset  size  field
 *          0     4  magic "MDN1"
 *          4     1  version (currently 1)
 *          5     1  type (FrameType)
 *          6     2  flags (must be zero; reserved)
 *          8     4  payload_len (u32, capped at kMaxPayload)
 *         12     4  deadline_ms (u32; 0 = no deadline)
 *         16     8  id (u64; echoed verbatim in the response)
 *         24     8  route (u64; ignored by the server, see routeKey())
 *
 * A Request payload is one request line in the batch grammar
 * (request_parse.h); Response/Error payloads are a JSON object - the
 * same object the newline-delimited JSON debug mode uses, so there is
 * exactly one response serializer.
 *
 * Decoding is incremental (FrameDecoder): bytes arrive in arbitrary
 * fragments from a nonblocking socket, the decoder buffers until a
 * whole frame is present, and every malformed input - bad magic, wrong
 * version, unknown type, nonzero flags, oversized length - yields a
 * typed ProtoError instead of a crash or an over-read. The fuzz test
 * (test_net.cpp) feeds truncations at every byte offset and flipped
 * length prefixes to hold that contract.
 */

#include <cstddef>
#include <cstdint>
#include <string>

namespace mdes::net {

/** Frame header magic, on the wire as 'M''D''N''1'. */
inline constexpr char kMagic[4] = {'M', 'D', 'N', '1'};
inline constexpr uint8_t kVersion = 1;
inline constexpr size_t kHeaderSize = 32;
/** Payload ceiling: request lines and response JSON are small; anything
 * larger is a framing error, not a legitimate message. */
inline constexpr uint32_t kMaxPayload = 1u << 20;

/** What a frame carries. */
enum class FrameType : uint8_t {
    Request = 1,
    Response = 2,
    /** A response that is an error at the protocol level (the payload
     * still carries the JSON error body). */
    Error = 3,
    Ping = 4,
    Pong = 5,
    /** Live stats poll (stats.h); answered with a Response frame whose
     * payload is the stats JSON document. In --shards mode a
     * payload-less Stat that opens a connection is passed to the
     * parent, which answers with the merged fleet view and closes. */
    Stat = 6,
    /** Load-balancer health probe; answered with a Response frame
     * whose payload is {"health":"ready"|"draining"|"degraded",...}.
     * In --shards mode a payload-less Health that opens a connection
     * is passed to the parent, which answers from its supervision
     * state (DESIGN.md §15). Equivalent to the JSON {"op":"health"}
     * op. */
    Health = 7,
};

/** True when @p t is a value FrameType names. */
bool frameTypeValid(uint8_t t);

/** One decoded (or to-be-encoded) frame. */
struct Frame
{
    FrameType type = FrameType::Request;
    /** Request deadline in ms from receipt (0 = none). */
    uint32_t deadline_ms = 0;
    /** Client-chosen correlation id, echoed in the response. */
    uint64_t id = 0;
    /** Wire-format header field, ignored by the server (kept for
     * compatibility; see routeKey()). */
    uint64_t route = 0;
    std::string payload{};
};

/** Typed framing violations (each maps to ErrorCode::BadRequest with a
 * message naming the ProtoError). */
enum class ProtoError : uint8_t {
    None = 0,
    BadMagic,
    BadVersion,
    BadType,
    BadFlags,
    OversizedPayload,
};

/** Stable printable name, e.g. "bad-magic". */
const char *protoErrorName(ProtoError e);

/** Serialize @p frame (header + payload) ready for the wire. Payloads
 * over kMaxPayload throw MdesError (caller bug, not peer input). */
std::string encodeFrame(const Frame &frame);

/**
 * Incremental frame decoder. Feed arbitrary byte fragments; next()
 * yields complete frames in order. After an Error the decoder is
 * poisoned (a byte stream with a framing violation has no trustworthy
 * resynchronization point) and the connection must be closed.
 */
class FrameDecoder
{
  public:
    enum class Status { NeedMore, Ready, Error };

    /** Append @p len raw bytes from the wire. */
    void feed(const char *data, size_t len);

    /**
     * Try to decode the next frame into @p out. Ready fills @p out and
     * consumes its bytes; NeedMore means feed() more; Error poisons the
     * decoder (see error()). Never reads past the buffered bytes.
     */
    Status next(Frame *out);

    /** The violation that poisoned the decoder (None before that). */
    ProtoError error() const { return error_; }

    /** Bytes buffered but not yet consumed by next(). */
    size_t buffered() const { return buf_.size() - pos_; }

    /**
     * Steal the buffered-but-unconsumed bytes and reset the decoder.
     * A caller that read past the frame it wanted (pipelined traffic)
     * restores these to the connection's input buffer instead of
     * dropping them, so the next reader still sees its frame.
     */
    std::string takeResidue();

  private:
    std::string buf_;
    /** Consumed prefix of buf_ (compacted opportunistically). */
    size_t pos_ = 0;
    ProtoError error_ = ProtoError::None;
};

} // namespace mdes::net

#endif // MDES_NET_FRAME_H
