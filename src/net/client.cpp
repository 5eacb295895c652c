#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "machines/machines.h"
#include "net/frame.h"
#include "store/store.h"
#include "support/diagnostics.h"
#include "support/io_retry.h"
#include "support/json.h"

namespace mdes::net {

using service::ErrorCode;

NetResponse
parseResponseJson(const std::string &body)
{
    JsonValue doc = parseJson(body);
    if (doc.kind != JsonValue::Kind::Object)
        throw MdesError("net: response is not a JSON object");
    NetResponse r;
    r.transport_ok = true;
    // jsonU64 (not .number): ids and cycle counts are full u64s and
    // must not round through the parser's double above 2^53.
    if (const JsonValue *v = doc.find("id"))
        r.id = jsonU64(*v);
    if (const JsonValue *v = doc.find("code")) {
        const uint64_t code = jsonU64(*v);
        if (code >= uint64_t(ErrorCode::kNumCodes))
            throw MdesError("net: unknown error code " +
                            std::to_string(code));
        r.code = ErrorCode(code);
    }
    if (const JsonValue *v = doc.find("error"))
        r.error = v->string;
    if (const JsonValue *v = doc.find("message"))
        r.message = v->string;
    if (const JsonValue *v = doc.find("machine"))
        r.machine = v->string;
    if (const JsonValue *v = doc.find("fingerprint")) {
        try {
            r.fingerprint = std::stoull(v->string);
        } catch (const std::exception &) {
            throw MdesError("net: bad fingerprint '" + v->string + "'");
        }
    }
    if (const JsonValue *v = doc.find("cache_hit"))
        r.cache_hit = v->boolean;
    if (const JsonValue *v = doc.find("disk_hit"))
        r.disk_hit = v->boolean;
    if (const JsonValue *v = doc.find("degraded"))
        r.degraded = v->boolean;
    if (const JsonValue *v = doc.find("total_cycles"))
        r.total_cycles = jsonU64(*v);
    if (const JsonValue *v = doc.find("blocks"))
        r.blocks = jsonU64(*v);
    return r;
}

uint64_t
routeKey(const service::ScheduleRequest &req)
{
    if (req.machine.empty() || !req.source.empty())
        return 0;
    const machines::MachineInfo *info = machines::byName(req.machine);
    if (!info)
        return 0;
    return store::artifactKey(info->source, req.transforms,
                              req.bit_vector);
}

BlockingClient::BlockingClient(const std::string &host, uint16_t port,
                               bool json_mode)
    : json_mode_(json_mode)
{
    int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    std::string numeric = host == "localhost" ? "127.0.0.1" : host;
    if (inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return;
    }
    for (;;) {
        if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                    sizeof(addr)) == 0)
            break;
        if (errno == EINTR)
            continue;
        ::close(fd);
        return;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fd_ = fd;
}

BlockingClient::~BlockingClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

namespace {

/** Send all of @p data; false on connection loss. MSG_NOSIGNAL (via
 * io::sendRetry) turns a peer that closed mid-write into EPIPE instead
 * of a process-killing SIGPIPE - the chaos harness slams connections
 * shut constantly and the client must shrug, not die. */
bool
writeAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n =
            io::sendRetry(fd, data.data() + off, data.size() - off);
        if (n > 0) {
            off += size_t(n);
            continue;
        }
        return false;
    }
    return true;
}

} // namespace

void
BlockingClient::disconnect()
{
    ::close(fd_);
    fd_ = -1;
}

bool
BlockingClient::send(const Frame &frame)
{
    if (fd_ < 0)
        return false;
    std::string wire;
    if (!json_mode_) {
        wire = encodeFrame(frame);
    } else {
        JsonWriter w;
        w.beginObject();
        w.key("id").value(frame.id);
        if (frame.type == FrameType::Stat) {
            w.key("op").value("stats");
        } else if (frame.type == FrameType::Health) {
            w.key("op").value("health");
        } else {
            w.key("req").value(frame.payload);
            if (frame.deadline_ms)
                w.key("deadline_ms").value(uint64_t(frame.deadline_ms));
            if (frame.route)
                w.key("route").value(frame.route);
        }
        w.endObject();
        wire = w.str() + "\n";
    }
    if (writeAll(fd_, wire))
        return true;
    disconnect();
    return false;
}

bool
BlockingClient::receive(uint64_t id, std::initializer_list<FrameType> types,
                        Frame *out)
{
    char buf[16384];
    for (;;) {
        if (json_mode_) {
            // A line has no header: it answers the one message
            // outstanding.
            size_t nl = lines_.find('\n');
            if (nl != std::string::npos) {
                out->type = FrameType::Response;
                out->id = id;
                out->payload = lines_.substr(0, nl);
                lines_.erase(0, nl + 1);
                return true;
            }
        } else {
            FrameDecoder::Status st = decoder_.next(out);
            if (st == FrameDecoder::Status::Error)
                break;
            if (st == FrameDecoder::Status::Ready) {
                if (out->id == id &&
                    std::find(types.begin(), types.end(), out->type) !=
                        types.end())
                    return true;
                continue; // an earlier reply or a pong; keep reading
            }
        }
        ssize_t n = ::read(fd_, buf, sizeof(buf));
        if (n > 0) {
            if (json_mode_)
                lines_.append(buf, size_t(n));
            else
                decoder_.feed(buf, size_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        break; // EOF or reset before the reply
    }
    disconnect();
    return false;
}

NetResponse
BlockingClient::request(const std::string &line, uint32_t deadline_ms,
                        uint64_t route)
{
    Frame f{.type = FrameType::Request,
            .deadline_ms = deadline_ms,
            .id = next_id_++,
            .route = route,
            .payload = line};
    Frame reply;
    if (!send(f) ||
        !receive(f.id, {FrameType::Response, FrameType::Error}, &reply))
        return {};
    try {
        return parseResponseJson(reply.payload);
    } catch (const MdesError &) {
        disconnect();
        return {};
    }
}

std::string
BlockingClient::stats()
{
    Frame f{.type = FrameType::Stat, .id = next_id_++};
    Frame reply;
    return send(f) && receive(f.id, {FrameType::Response}, &reply)
               ? reply.payload
               : "";
}

std::string
BlockingClient::health()
{
    Frame f{.type = FrameType::Health, .id = next_id_++};
    Frame reply;
    return send(f) && receive(f.id, {FrameType::Response}, &reply)
               ? reply.payload
               : "";
}

bool
BlockingClient::ping()
{
    if (json_mode_)
        return false; // JSON lines have no ping
    Frame f{.type = FrameType::Ping, .id = next_id_++};
    Frame reply;
    return send(f) && receive(f.id, {FrameType::Pong}, &reply);
}

} // namespace mdes::net
