/**
 * @file
 * The closed-loop clients, the targets they drive (in-process service,
 * loopback socket, `mdesc serve` fleet), and the result printer.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "net/client.h"
#include "perfbench.h"

namespace mdes::perfbench {

namespace {

class ServiceSession : public Session
{
  public:
    explicit ServiceSession(service::MdesService &svc) : svc_(svc) {}

    Reply
    request(const Input &in) override
    {
        service::ScheduleResponse resp = svc_.wait(svc_.submit(in.req));
        return {resp.ok(), service::scheduleFingerprint(resp),
                resp.total_cycles};
    }

  private:
    service::MdesService &svc_;
};

class SocketSession : public Session
{
  public:
    explicit SocketSession(uint16_t port) : client_("127.0.0.1", port) {}

    Reply
    request(const Input &in) override
    {
        net::NetResponse r = client_.request(in.line, 0, in.route);
        return {r.ok(), r.fingerprint, r.total_cycles};
    }

  private:
    net::BlockingClient client_;
};

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Per-client tallies, merged after the clients join. */
struct ClientLog
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<double> latency_ms;
    std::vector<double> conn_setup_ms;
    std::vector<double> done_s;
};

} // namespace

std::unique_ptr<Session>
ServiceTarget::open()
{
    return std::make_unique<ServiceSession>(svc_);
}

std::unique_ptr<Session>
SocketTarget::open()
{
    return std::make_unique<SocketSession>(port_);
}

Fleet::Fleet(const std::string &mdesc, const std::string &store_dir,
             const std::string &log_path)
{
    int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log < 0)
        throw MdesError("cannot open " + log_path);
    pid_ = fork();
    if (pid_ == 0) {
        // Only async-signal-safe calls until exec. The fleet dies with
        // the benchmark even if the benchmark is killed.
        prctl(PR_SET_PDEATHSIG, SIGTERM);
        dup2(log, 1);
        dup2(log, 2);
        execl(mdesc.c_str(), "mdesc", "serve", "--listen", "127.0.0.1:0",
              "--shards", "2", "--workers", "1", "--store",
              store_dir.c_str(), (char *)nullptr);
        _exit(127);
    }
    ::close(log);
    if (pid_ < 0)
        throw MdesError(std::string("fork: ") + strerror(errno));

    // The server prints "listening on 127.0.0.1:<port>" once it serves.
    const std::string marker = "listening on 127.0.0.1:";
    Clock::time_point t0 = Clock::now();
    while (secondsSince(t0) < 30) {
        std::ifstream in(log_path);
        std::stringstream ss;
        ss << in.rdbuf();
        const std::string text = ss.str();
        size_t at = text.find(marker);
        if (at != std::string::npos &&
            text.find(' ', at + marker.size()) != std::string::npos) {
            port_ = uint16_t(std::stoul(text.substr(at + marker.size())));
            return;
        }
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw MdesError("mdesc serve exited during start-up: " + text);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop();
    throw MdesError("mdesc serve did not start listening within 30 s");
}

Fleet::~Fleet()
{
    stop();
}

void
Fleet::stop()
{
    if (pid_ <= 0)
        return;
    kill(pid_, SIGTERM);
    Clock::time_point t0 = Clock::now();
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (secondsSince(t0) > 15) {
            kill(pid_, SIGKILL);
            waitpid(pid_, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
}

LoopResult
closedLoop(Target &target, const Workload &w, double seconds)
{
    const size_t n = w.order.size();
    std::vector<ClientLog> logs(w.clients);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    {
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < w.clients; ++c)
            clients.emplace_back([&, c] {
                ClientLog &log = logs[c];
                std::unique_ptr<Session> session = target.open();
                size_t pos = c * n / w.clients;
                unsigned since_connect = 0;
                bool fresh = false;
                Clock::time_point connected_at;
                while (Clock::now() < deadline) {
                    if (w.reconnect_every &&
                        since_connect == w.reconnect_every) {
                        session.reset();
                        connected_at = Clock::now();
                        session = target.open();
                        since_connect = 0;
                        fresh = true;
                    }
                    const Input &in = w.inputs[w.order[pos++ % n]];
                    Clock::time_point t0 = Clock::now();
                    Reply r = session->request(in);
                    Clock::time_point t1 = Clock::now();
                    ++log.attempted;
                    if (!r.ok || r.fingerprint != in.fingerprint ||
                        r.cycles != in.cycles)
                        ++log.failed;
                    log.latency_ms.push_back(msBetween(t0, t1));
                    log.done_s.push_back(msBetween(start, t1) / 1e3);
                    if (fresh)
                        log.conn_setup_ms.push_back(
                            msBetween(connected_at, t1));
                    fresh = false;
                    ++since_connect;
                }
            });
        for (std::thread &t : clients)
            t.join();
    }
    LoopResult r;
    r.elapsed_s = secondsSince(start);
    for (ClientLog &log : logs) {
        r.attempted += log.attempted;
        r.failed += log.failed;
        r.latency_ms.insert(r.latency_ms.end(), log.latency_ms.begin(),
                            log.latency_ms.end());
        r.conn_setup_ms.insert(r.conn_setup_ms.end(),
                               log.conn_setup_ms.begin(),
                               log.conn_setup_ms.end());
        r.done_s.insert(r.done_s.end(), log.done_s.begin(), log.done_s.end());
    }
    return r;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

uint64_t
peakRssKb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6));
    return 0;
}

double
processCpuS(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat;
    std::getline(in, stat);
    // Fields after the parenthesized command start at state (field 3);
    // utime and stime are fields 14 and 15, in clock ticks.
    size_t close = stat.rfind(')');
    if (close == std::string::npos)
        return 0;
    std::istringstream rest(stat.substr(close + 1));
    std::string field;
    for (int i = 3; i < 14 && rest >> field; ++i) {
    }
    unsigned long long utime = 0, stime = 0;
    if (!(rest >> utime >> stime))
        return 0;
    return double(utime + stime) / double(sysconf(_SC_CLK_TCK));
}

std::vector<pid_t>
childPids(pid_t pid)
{
    std::vector<pid_t> out;
    DIR *proc = opendir("/proc");
    if (!proc)
        return out;
    while (dirent *e = readdir(proc)) {
        if (e->d_name[0] < '0' || e->d_name[0] > '9')
            continue;
        std::ifstream in(std::string("/proc/") + e->d_name + "/stat");
        std::string stat;
        std::getline(in, stat);
        // Fields after the parenthesized command: state, then ppid.
        size_t close = stat.rfind(')');
        if (close == std::string::npos)
            continue;
        std::istringstream rest(stat.substr(close + 1));
        std::string state;
        long ppid = 0;
        if (rest >> state >> ppid && ppid == pid)
            out.push_back(pid_t(std::atol(e->d_name)));
    }
    closedir(proc);
    return out;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}\n";
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
}

} // namespace mdes::perfbench
