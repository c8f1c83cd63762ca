#include "zserve/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/panic.h"

namespace ziria {
namespace serve {

namespace {

sockaddr_in
loopbackAddr(const std::string& host, uint16_t port)
{
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (host.empty()) {
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    } else if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        fatalf("bad IPv4 address '", host, "'");
    }
    return addr;
}

} // namespace

void
SockFd::reset()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

SockFd
listenTcp(uint16_t port, int backlog)
{
    SockFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        fatalf("socket(): ", std::strerror(errno));
    int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr = loopbackAddr("", port);
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0)
        fatalf("bind(port ", port, "): ", std::strerror(errno));
    if (::listen(fd.get(), backlog) != 0)
        fatalf("listen(): ", std::strerror(errno));
    return fd;
}

SockFd
connectTcp(const std::string& host, uint16_t port)
{
    SockFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        fatalf("socket(): ", std::strerror(errno));
    sockaddr_in addr = loopbackAddr(host, port);
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof addr) != 0)
        fatalf("connect(", host.empty() ? "127.0.0.1" : host, ":", port,
               "): ", std::strerror(errno));
    return fd;
}

uint16_t
boundPort(int fd)
{
    sockaddr_in addr;
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
        fatalf("getsockname(): ", std::strerror(errno));
    return ntohs(addr.sin_port);
}

void
setNonBlocking(int fd, bool on)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0)
        fatalf("fcntl(F_GETFL): ", std::strerror(errno));
    if (on)
        flags |= O_NONBLOCK;
    else
        flags &= ~O_NONBLOCK;
    if (::fcntl(fd, F_SETFL, flags) < 0)
        fatalf("fcntl(F_SETFL): ", std::strerror(errno));
}

void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool
sendAll(int fd, const uint8_t* data, size_t n)
{
    size_t off = 0;
    while (off < n) {
        long w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
        if (w > 0) {
            off += static_cast<size_t>(w);
            continue;
        }
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                      errno == EINTR)) {
            pollfd p{fd, POLLOUT, 0};
            ::poll(&p, 1, 100);
            continue;
        }
        return false;
    }
    return true;
}

long
recvSome(int fd, uint8_t* data, size_t n)
{
    for (;;) {
        long r = ::recv(fd, data, n, 0);
        if (r >= 0)
            return r;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return -1;
        return -2;
    }
}

Wakeup::Wakeup()
{
    if (::pipe(fds_) != 0)
        fatalf("pipe(): ", std::strerror(errno));
    setNonBlocking(fds_[0]);
    setNonBlocking(fds_[1]);
}

Wakeup::~Wakeup()
{
    if (fds_[0] >= 0)
        ::close(fds_[0]);
    if (fds_[1] >= 0)
        ::close(fds_[1]);
}

void
Wakeup::wake()
{
    uint8_t b = 1;
    // A full pipe already guarantees a pending wakeup; ignore EAGAIN.
    (void)!::write(fds_[1], &b, 1);
}

void
Wakeup::drain()
{
    uint8_t buf[64];
    while (::read(fds_[0], buf, sizeof buf) > 0) {
    }
}

} // namespace serve
} // namespace ziria
