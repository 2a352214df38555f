/**
 * @file
 * TcpTransport: the Transport over POSIX stream sockets.
 *
 * Blocking I/O with configurable timeouts (SO_RCVTIMEO/SO_SNDTIMEO)
 * and Nagle always disabled — the remote protocol has two strict
 * turnaround points (choice bits up, result echo back) where a
 * delayed ACK + Nagle interaction would otherwise stall every
 * session by ~40 ms. connect() is non-blocking under the hood with a
 * poll() bounded by the remaining deadline — a filtered host that
 * swallows SYNs fails by connectTimeoutMs, not the kernel's
 * minutes-long retransmission ceiling — and retries refused
 * connections until that deadline so the two-terminal demos don't
 * depend on launch order.
 */
#ifndef HAAC_NET_TCP_H
#define HAAC_NET_TCP_H

#include <memory>
#include <string>
#include <utility>

#include "net/transport.h"

namespace haac {

struct TcpOptions
{
    /** Per-recv/send timeout; 0 disables (block forever). */
    int ioTimeoutMs = 30000;
    /** Keep retrying connect() to a not-yet-listening peer this long. */
    int connectTimeoutMs = 10000;
};

class TcpTransport : public Transport
{
  public:
    /** Connect to @p host : @p port (IPv4/IPv6, name or literal). */
    static std::unique_ptr<TcpTransport>
    connect(const std::string &host, uint16_t port,
            const TcpOptions &opts = {});

    ~TcpTransport() override;
    TcpTransport(const TcpTransport &) = delete;
    TcpTransport &operator=(const TcpTransport &) = delete;

    void writeAll(const uint8_t *data, size_t n) override;
    void readAll(uint8_t *data, size_t n) override;
    std::string describe() const override;

  private:
    friend class TcpListener;
    TcpTransport(int fd, std::string peer, const TcpOptions &opts);
    void applyOptions(const TcpOptions &opts);

    int fd_;
    std::string peer_;
};

/** Listening socket; accept() yields connected TcpTransports. */
class TcpListener
{
  public:
    /**
     * Bind and listen on @p port (0 picks an ephemeral port — read it
     * back with port(), as the tests and `haac_server --port 0` do).
     *
     * @param bind_host interface to bind ("0.0.0.0", "127.0.0.1", ...).
     */
    explicit TcpListener(uint16_t port,
                         const std::string &bind_host = "0.0.0.0",
                         int backlog = 64);
    ~TcpListener();
    TcpListener(const TcpListener &) = delete;
    TcpListener &operator=(const TcpListener &) = delete;

    /** The bound port (resolves port 0 to the kernel's choice). */
    uint16_t port() const { return port_; }

    /** Block for the next connection; throws NetError on failure. */
    std::unique_ptr<TcpTransport> accept(const TcpOptions &opts = {});

    /**
     * Close the listening socket from another thread; a blocked
     * accept() then fails with NetError, which is how the server's
     * accept loop is told to wind down.
     */
    void close();

  private:
    int fd_;
    uint16_t port_;
};

/**
 * Split "host:port" or a bare "port" at the last colon (IPv6 literals
 * keep theirs); no host means @p default_host. @throws
 * std::invalid_argument for a port that is not [1-9][0-9]* <= 65535.
 */
std::pair<std::string, uint16_t>
splitEndpoint(const std::string &endpoint, const char *default_host);

} // namespace haac

#endif // HAAC_NET_TCP_H
