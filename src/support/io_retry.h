#ifndef MDES_SUPPORT_IO_RETRY_H
#define MDES_SUPPORT_IO_RETRY_H

/**
 * @file
 * mdes::io - EINTR-safe syscall wrappers for the serving stack.
 *
 * The supervision plane (DESIGN.md §15) leans on signals: SIGCHLD
 * announces shard deaths to the supervisor loop, signalfd carries
 * termination, and the watchdog escalates to SIGKILL. Every blocking
 * syscall on the serving path can therefore return -1/EINTR at any
 * moment, and one forgotten retry turns a routine child exit into a
 * spurious connection reset. All retry loops live behind these
 * wrappers so there is exactly one place to audit.
 *
 * retryIntr() is the primitive: it re-runs any callable returning a
 * signed result until the result is not -1/EINTR. The named wrappers
 * cover the syscalls the socket tier actually uses; epollWaitRetry()
 * additionally re-arms a finite timeout with the remaining time, so a
 * burst of SIGCHLDs cannot stretch a 100 ms wait into seconds.
 */

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

namespace mdes::io {

/** Run @p fn until it stops failing with EINTR; returns its result. */
template <typename Fn>
auto
retryIntr(Fn &&fn) -> decltype(fn())
{
    for (;;) {
        auto r = fn();
        if (r >= 0 || errno != EINTR)
            return r;
    }
}

inline ssize_t
readRetry(int fd, void *buf, size_t len)
{
    return retryIntr([&] { return ::read(fd, buf, len); });
}

inline ssize_t
writeRetry(int fd, const void *buf, size_t len)
{
    return retryIntr([&] { return ::write(fd, buf, len); });
}

/** send() with MSG_NOSIGNAL always ORed in: a peer that closed
 * mid-response yields EPIPE instead of a process-killing SIGPIPE. */
inline ssize_t
sendRetry(int fd, const void *buf, size_t len, int flags = 0)
{
    return retryIntr(
        [&] { return ::send(fd, buf, len, flags | MSG_NOSIGNAL); });
}

inline int
accept4Retry(int fd, sockaddr *addr, socklen_t *alen, int flags)
{
    return retryIntr([&] { return ::accept4(fd, addr, alen, flags); });
}

/**
 * epoll_wait() that survives EINTR without distorting the deadline: a
 * finite timeout is re-armed with the time still remaining, never the
 * original duration. timeout_ms < 0 blocks indefinitely, as usual.
 */
inline int
epollWaitRetry(int epfd, epoll_event *events, int maxevents, int timeout_ms)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        timeout_ms >= 0 ? Clock::now() + std::chrono::milliseconds(timeout_ms)
                        : Clock::time_point{};
    for (;;) {
        int n = ::epoll_wait(epfd, events, maxevents, timeout_ms);
        if (n >= 0 || errno != EINTR)
            return n;
        if (timeout_ms >= 0) {
            auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
            timeout_ms = left > 0 ? int(left) : 0;
        }
    }
}

} // namespace mdes::io

#endif // MDES_SUPPORT_IO_RETRY_H
