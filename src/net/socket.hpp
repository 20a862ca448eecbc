#ifndef FTSIM_NET_SOCKET_HPP
#define FTSIM_NET_SOCKET_HPP

/**
 * @file
 * Dependency-free POSIX TCP primitives for the serving front end.
 *
 * Two small RAII types wrap the raw socket API the way `common/table`
 * wraps formatting: no external library, no exceptions on the data
 * path, everything a `Result` or a status enum the caller branches on.
 * Both own their fd through `UniqueFd`.
 *
 *  - `TcpListener` binds/listens on a host:port (port 0 = ephemeral;
 *    `port()` reports the kernel's pick) and accepts non-blocking
 *    `Connection`s.
 *  - `Connection` is one accepted (or connected) stream. `readSome` /
 *    `writeSome` never block: they return `IoStatus::WouldBlock` when
 *    the kernel buffer is empty/full, which is the poll loop's cue to
 *    wait for readiness. Blocking callers (the client) use
 *    `Connection::connectTo`, which leaves the fd in blocking mode.
 *
 * Both types are move-only; destruction closes the fd. Network errors
 * surface as `ErrorCode::InvalidArgument` results (the service's
 * catch-all for "the caller's environment is wrong") with the errno
 * text attached — callers treat any error as fatal for that socket,
 * never for the process.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "common/result.hpp"

namespace ftsim {

/** Owns one fd: move-only, closed on destruction or reset(). */
class UniqueFd {
  public:
    UniqueFd() = default;
    explicit UniqueFd(int fd) : fd_(fd) {}
    ~UniqueFd() { reset(); }

    UniqueFd(UniqueFd&& other) noexcept
        : fd_(std::exchange(other.fd_, -1))
    {
    }
    UniqueFd& operator=(UniqueFd&& other) noexcept
    {
        if (this != &other) {
            reset();
            fd_ = std::exchange(other.fd_, -1);
        }
        return *this;
    }

    bool valid() const { return fd_ >= 0; }

    int get() const { return fd_; }

    /** Closes the fd now (safe to call again). */
    void reset();

  private:
    int fd_ = -1;
};

/** Outcome of one non-blocking read/write attempt. */
enum class IoStatus {
    Ok,          ///< `bytes` were transferred (> 0).
    WouldBlock,  ///< Kernel buffer empty/full; poll for readiness.
    Eof,         ///< Peer closed its end (reads only).
    Error,       ///< Hard socket error; close the connection.
};

/** Result of Connection::readSome / writeSome. */
struct IoResult {
    IoStatus status = IoStatus::Error;
    std::size_t bytes = 0;
};

/** One TCP stream (accepted or connected); move-only RAII fd. */
class Connection {
  public:
    Connection() = default;
    /** Adopts @p fd. @p peer is a display label. */
    Connection(UniqueFd fd, std::string peer)
        : fd_(std::move(fd)), peer_(std::move(peer))
    {
    }

    /**
     * Blocking connect to @p host:@p port (numeric IPv4 or a name
     * resolvable via getaddrinfo, e.g. "localhost"). The returned
     * connection stays in blocking mode — it is the client-side
     * constructor; servers get non-blocking fds from TcpListener.
     */
    static Result<Connection> connectTo(const std::string& host,
                                        std::uint16_t port);

    /**
     * Begins a *non-blocking* connect to @p host:@p port and returns
     * with the handshake still in flight (the fd is non-blocking).
     * Poll the fd for POLLOUT, then call finishConnect() for the
     * outcome — how the router's heal loop re-dials dead shards
     * without ever blocking its event loop.
     */
    static Result<Connection> connectStart(const std::string& host,
                                           std::uint16_t port);

    /**
     * Resolves a connectStart() handshake once the fd polls POLLOUT
     * (or POLLERR): true when the connection is established, the
     * peer's refusal as a typed error (fd closed) otherwise.
     */
    Result<bool> finishConnect();

    /** True while the fd is open. */
    bool valid() const { return fd_.valid(); }

    int fd() const { return fd_.get(); }

    /** "ip:port" of the remote end (best effort). */
    const std::string& peer() const { return peer_; }

    /** One read(2); at most @p cap bytes into @p buf. */
    IoResult readSome(char* buf, std::size_t cap);

    /** One write(2); at most @p len bytes from @p buf. */
    IoResult writeSome(const char* buf, std::size_t len);

    /** Closes the fd now (destructor-safe to call again). */
    void close() { fd_.reset(); }

  private:
    UniqueFd fd_;
    std::string peer_;
};

/** Listening TCP socket; accepts non-blocking Connections. */
class TcpListener {
  public:
    /**
     * Binds and listens on @p host:@p port with SO_REUSEADDR. Port 0
     * asks the kernel for an ephemeral port — read it back via
     * `port()` (how the tests and ci.sh avoid fixed-port collisions).
     * The listening fd is non-blocking.
     */
    static Result<TcpListener> bind(const std::string& host,
                                    std::uint16_t port,
                                    int backlog = 128);

    bool valid() const { return fd_.valid(); }

    int fd() const { return fd_.get(); }

    /** The bound port (the kernel's pick when bind asked for 0). */
    std::uint16_t port() const { return port_; }

    /**
     * Accepts one pending connection, non-blocking fd, or an
     * invalid Connection when none is pending (the poll loop's
     * "drained the backlog" signal). Hard accept errors also return
     * invalid — the listener itself stays usable.
     */
    Connection accept();

    /** Stops listening (closes the fd; pending connects are reset). */
    void close() { fd_.reset(); }

  private:
    UniqueFd fd_;
    std::uint16_t port_ = 0;
};

/** Sets O_NONBLOCK on @p fd; returns false on fcntl failure. */
bool setNonBlocking(int fd);

}  // namespace ftsim

#endif  // FTSIM_NET_SOCKET_HPP
