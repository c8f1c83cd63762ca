/**
 * @file
 * Thin POSIX socket helpers for the serving subsystem: RAII fds,
 * loopback-friendly TCP listen/connect, non-blocking mode, and a
 * self-pipe for waking a poll() loop from another thread.
 *
 * Everything throws FatalError on setup failures (bad port, bind in
 * use); steady-state I/O errors are reported through return values so
 * the server can evict one session without tearing the process down.
 */
#ifndef ZIRIA_ZSERVE_SOCKET_H
#define ZIRIA_ZSERVE_SOCKET_H

#include <cstdint>
#include <string>
#include <utility>

namespace ziria {
namespace serve {

/** Owning file-descriptor handle (move-only). */
class SockFd
{
  public:
    SockFd() = default;
    explicit SockFd(int fd) : fd_(fd) {}
    ~SockFd() { reset(); }

    SockFd(SockFd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    SockFd&
    operator=(SockFd&& o) noexcept
    {
        if (this != &o) {
            reset();
            fd_ = o.fd_;
            o.fd_ = -1;
        }
        return *this;
    }
    SockFd(const SockFd&) = delete;
    SockFd& operator=(const SockFd&) = delete;

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    int
    release()
    {
        int fd = fd_;
        fd_ = -1;
        return fd;
    }

    void reset();

  private:
    int fd_ = -1;
};

/**
 * Create a TCP listening socket bound to 127.0.0.1:@p port (0 = let the
 * kernel pick an ephemeral port).  SO_REUSEADDR is set so restart loops
 * do not trip over TIME_WAIT.
 */
SockFd listenTcp(uint16_t port, int backlog = 64);

/** Blocking TCP connect to @p host:@p port. */
SockFd connectTcp(const std::string& host, uint16_t port);

/** The locally bound port of a socket (after bind/listen). */
uint16_t boundPort(int fd);

/** Switch a descriptor to non-blocking mode. */
void setNonBlocking(int fd, bool on = true);

/** Disable Nagle batching (latency-sensitive frame streams). */
void setNoDelay(int fd);

/**
 * Write all @p n bytes, retrying short writes; poll-waits @p fd for
 * writability between attempts.  Returns false on a connection error.
 */
bool sendAll(int fd, const uint8_t* data, size_t n);

/**
 * Read up to @p n bytes.  Returns bytes read, 0 on orderly peer close,
 * -1 on EAGAIN (non-blocking, nothing available), -2 on error.
 */
long recvSome(int fd, uint8_t* data, size_t n);

/**
 * Self-pipe wakeup for poll() loops: any thread calls wake(); the poll
 * loop includes readFd() in its fd set and calls drain() when readable.
 */
class Wakeup
{
  public:
    Wakeup();
    ~Wakeup();
    Wakeup(const Wakeup&) = delete;
    Wakeup& operator=(const Wakeup&) = delete;

    int readFd() const { return fds_[0]; }
    void wake();
    void drain();

  private:
    int fds_[2] = {-1, -1};
};

} // namespace serve
} // namespace ziria

#endif // ZIRIA_ZSERVE_SOCKET_H
