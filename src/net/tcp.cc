#include "net/tcp.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/types.h>
#include <thread>
#include <unistd.h>

#include "circuit/spec.h"

namespace haac {

namespace {

[[noreturn]] void
fail(const std::string &what)
{
    throw NetError(what + ": " + std::strerror(errno));
}

void
setTimeout(int fd, int optname, int ms)
{
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv));
}

std::string
endpointString(const sockaddr *sa, socklen_t len)
{
    char host[NI_MAXHOST] = "?";
    char serv[NI_MAXSERV] = "?";
    if (getnameinfo(sa, len, host, sizeof(host), serv, sizeof(serv),
                    NI_NUMERICHOST | NI_NUMERICSERV) == 0)
        return std::string(host) + ":" + serv;
    return "?";
}

struct AddrInfoHolder
{
    addrinfo *list = nullptr;
    ~AddrInfoHolder()
    {
        if (list)
            freeaddrinfo(list);
    }
};

} // namespace

TcpTransport::TcpTransport(int fd, std::string peer,
                           const TcpOptions &opts)
    : fd_(fd), peer_(std::move(peer))
{
    applyOptions(opts);
}

void
TcpTransport::applyOptions(const TcpOptions &opts)
{
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (opts.ioTimeoutMs > 0) {
        setTimeout(fd_, SO_RCVTIMEO, opts.ioTimeoutMs);
        setTimeout(fd_, SO_SNDTIMEO, opts.ioTimeoutMs);
    }
}

TcpTransport::~TcpTransport()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::unique_ptr<TcpTransport>
TcpTransport::connect(const std::string &host, uint16_t port,
                      const TcpOptions &opts)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    AddrInfoHolder res;
    const std::string serv = std::to_string(port);
    int rc = getaddrinfo(host.c_str(), serv.c_str(), &hints, &res.list);
    if (rc != 0)
        throw NetError("resolve " + host + ": " + gai_strerror(rc));

    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(opts.connectTimeoutMs);
    auto remaining_ms = [&]() -> long {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now())
                .count();
        return left > 0 ? left : 0;
    };
    std::string last_error = "no addresses";
    do {
        for (addrinfo *ai = res.list; ai; ai = ai->ai_next) {
            int fd = ::socket(ai->ai_family, ai->ai_socktype,
                              ai->ai_protocol);
            if (fd < 0) {
                last_error = std::strerror(errno);
                continue;
            }
            // Non-blocking connect + poll, so a filtered host (SYNs
            // silently dropped) cannot hang past the deadline — the
            // kernel's own SYN retry cycle runs minutes.
            const int flags = ::fcntl(fd, F_GETFL, 0);
            ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
            bool connected =
                ::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0;
            if (!connected && errno == EINPROGRESS) {
                pollfd pfd{};
                pfd.fd = fd;
                pfd.events = POLLOUT;
                const long wait = remaining_ms();
                if (::poll(&pfd, 1, int(wait > 0 ? wait : 1)) > 0) {
                    int err = 0;
                    socklen_t len = sizeof(err);
                    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
                    if (err == 0)
                        connected = true;
                    else
                        last_error = std::strerror(err);
                } else {
                    last_error = "connect timed out";
                }
            } else if (!connected) {
                last_error = std::strerror(errno);
            }
            if (connected) {
                ::fcntl(fd, F_SETFL, flags); // back to blocking I/O
                return std::unique_ptr<TcpTransport>(new TcpTransport(
                    fd, endpointString(ai->ai_addr, ai->ai_addrlen),
                    opts));
            }
            ::close(fd);
        }
        if (remaining_ms() == 0)
            break;
        // The peer may simply not be listening yet (two-terminal
        // launches race); retry until the connect deadline.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    } while (Clock::now() < deadline);
    throw NetError("connect to " + host + ":" + serv + ": " +
                   last_error);
}

void
TcpTransport::writeAll(const uint8_t *data, size_t n)
{
    size_t sent = 0;
    while (sent < n) {
        ssize_t rc = ::send(fd_, data + sent, n - sent, MSG_NOSIGNAL);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                throw NetError("send to " + peer_ + ": timeout");
            fail("send to " + peer_);
        }
        sent += size_t(rc);
    }
}

void
TcpTransport::readAll(uint8_t *data, size_t n)
{
    size_t got = 0;
    while (got < n) {
        ssize_t rc = ::recv(fd_, data + got, n - got, 0);
        if (rc == 0)
            throw NetError("recv from " + peer_ +
                           ": peer closed the connection");
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                throw NetError("recv from " + peer_ + ": timeout");
            fail("recv from " + peer_);
        }
        got += size_t(rc);
    }
}

std::string
TcpTransport::describe() const
{
    return "tcp:" + peer_;
}

TcpListener::TcpListener(uint16_t port, const std::string &bind_host,
                         int backlog)
    : fd_(-1), port_(0)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    AddrInfoHolder res;
    const std::string serv = std::to_string(port);
    int rc = getaddrinfo(bind_host.c_str(), serv.c_str(), &hints,
                         &res.list);
    if (rc != 0)
        throw NetError("resolve " + bind_host + ": " +
                       gai_strerror(rc));

    std::string last_error = "no addresses";
    for (addrinfo *ai = res.list; ai; ai = ai->ai_next) {
        int fd = ::socket(ai->ai_family, ai->ai_socktype,
                          ai->ai_protocol);
        if (fd < 0) {
            last_error = std::strerror(errno);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(fd, backlog) == 0) {
            fd_ = fd;
            sockaddr_storage bound{};
            socklen_t len = sizeof(bound);
            if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                              &len) == 0) {
                if (bound.ss_family == AF_INET)
                    port_ = ntohs(
                        reinterpret_cast<sockaddr_in *>(&bound)
                            ->sin_port);
                else if (bound.ss_family == AF_INET6)
                    port_ = ntohs(
                        reinterpret_cast<sockaddr_in6 *>(&bound)
                            ->sin6_port);
            }
            return;
        }
        last_error = std::strerror(errno);
        ::close(fd);
    }
    throw NetError("listen on " + bind_host + ":" + serv + ": " +
                   last_error);
}

TcpListener::~TcpListener()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
TcpListener::close()
{
    // Shutdown only: unblocks a concurrent accept() (it fails with
    // EINVAL → NetError) without freeing the fd underneath it; the
    // destructor releases the descriptor.
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

std::unique_ptr<TcpTransport>
TcpListener::accept(const TcpOptions &opts)
{
    sockaddr_storage peer{};
    socklen_t len = sizeof(peer);
    int fd = ::accept(fd_, reinterpret_cast<sockaddr *>(&peer), &len);
    if (fd < 0)
        fail("accept");
    return std::unique_ptr<TcpTransport>(new TcpTransport(
        fd, endpointString(reinterpret_cast<sockaddr *>(&peer), len),
        opts));
}

std::pair<std::string, uint16_t>
splitEndpoint(const std::string &endpoint, const char *default_host)
{
    const size_t colon = endpoint.rfind(':');
    const size_t at = colon == std::string::npos ? 0 : colon + 1;
    const uint32_t port = parseSpecSize(endpoint.substr(at), 65535);
    if (port == 0)
        throw std::invalid_argument("endpoint \"" + endpoint +
                                    "\": bad port");
    const std::string host = at == 0 ? "" : endpoint.substr(0, colon);
    return {host.empty() ? default_host : host, uint16_t(port)};
}

} // namespace haac
