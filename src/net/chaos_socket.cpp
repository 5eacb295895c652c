#include "net/chaos_socket.h"

#include "net/client.h"
#include "net/server.h"
#include "service/request_parse.h"

namespace mdes::net {

using service::ErrorCode;
using service::ScheduleRequest;
using service::chaos::ChaosConfig;
using service::chaos::Outcome;
using service::chaos::RunStats;

service::chaos::RunDriver
chaosSocketDriver()
{
    return [](const ChaosConfig &config, const std::string &store_dir,
              const std::vector<ScheduleRequest> &mix) {
        ServerConfig sc;
        sc.host = "127.0.0.1";
        sc.port = 0; // ephemeral
        sc.service.num_workers = config.workers;
        sc.service.cache_capacity = config.requests + 4;
        sc.service.store_dir = store_dir;

        RunStats result;
        Server server(sc);
        server.start();
        uint16_t port = server.port();

        for (const ScheduleRequest &req : mix) {
            std::string line = service::renderRequestLine(req);
            Outcome o;
            bool answered = false;
            // One connection per request is the churn; a transport
            // failure retries on another fresh connection.
            for (unsigned attempt = 0;
                 attempt <= kMaxTransportRetries && !answered; ++attempt) {
                BlockingClient client("127.0.0.1", port);
                if (!client.connected())
                    continue;
                NetResponse resp = client.request(line);
                if (!resp.transport_ok)
                    continue;
                answered = true;
                o.error_code = int(resp.code);
                o.degraded = resp.degraded;
                o.fingerprint =
                    resp.code == ErrorCode::Ok ? resp.fingerprint : 0;
            }
            if (!answered) {
                // Exhausted retries: surface it as an outcome the
                // invariant checks will reject, never a silent gap.
                o.error_code = int(ErrorCode::Internal);
                o.degraded = false;
                o.fingerprint = 0;
            }
            if (o.error_code != int(ErrorCode::Ok))
                ++result.failed;
            if (o.degraded)
                ++result.degraded;
            result.outcomes.push_back(o);
        }

        server.stop();
        service::ServiceMetrics m = server.metrics();
        result.compiles = m.cache.compiles;
        return result;
    };
}

} // namespace mdes::net
