#include "net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hpp"

namespace ftsim {

namespace {

std::string
errnoText()
{
    return std::strerror(errno);
}

/** Resolves host:port to an IPv4 sockaddr via getaddrinfo. */
Result<sockaddr_in>
resolve(const std::string& host, std::uint16_t port)
{
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* found = nullptr;
    const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &found);
    if (rc != 0 || found == nullptr)
        return Error{ErrorCode::InvalidArgument,
                     strCat("cannot resolve host '", host,
                            "': ", ::gai_strerror(rc))};
    sockaddr_in addr{};
    std::memcpy(&addr, found->ai_addr, sizeof(addr));
    addr.sin_port = htons(port);
    ::freeaddrinfo(found);
    return addr;
}

/** Request/response lines are small; without NODELAY, Nagle delays
 *  each pipelined line behind the previous ACK. */
void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

std::string
peerLabel(const sockaddr_in& addr)
{
    char ip[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
    return strCat(ip, ':', ntohs(addr.sin_port));
}

}  // namespace

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) >= 0;
}

void
UniqueFd::reset()
{
    if (fd_ >= 0)
        ::close(std::exchange(fd_, -1));
}

// ---- Connection ---------------------------------------------------------

Result<Connection>
Connection::connectTo(const std::string& host, std::uint16_t port)
{
    Result<sockaddr_in> addr = resolve(host, port);
    if (!addr)
        return addr.error();
    UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        return Error{ErrorCode::InvalidArgument,
                     strCat("socket(): ", errnoText())};
    if (::connect(fd.get(),
                  reinterpret_cast<const sockaddr*>(&addr.value()),
                  sizeof(addr.value())) != 0)
        return Error{ErrorCode::InvalidArgument,
                     strCat("cannot connect to ", host, ':', port, ": ",
                            errnoText())};
    setNoDelay(fd.get());
    return Connection(std::move(fd), strCat(host, ':', port));
}

Result<Connection>
Connection::connectStart(const std::string& host, std::uint16_t port)
{
    Result<sockaddr_in> addr = resolve(host, port);
    if (!addr)
        return addr.error();
    UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        return Error{ErrorCode::InvalidArgument,
                     strCat("socket(): ", errnoText())};
    if (!setNonBlocking(fd.get()))
        return Error{ErrorCode::InvalidArgument,
                     "cannot make socket non-blocking"};
    if (::connect(fd.get(),
                  reinterpret_cast<const sockaddr*>(&addr.value()),
                  sizeof(addr.value())) != 0 &&
        errno != EINPROGRESS)
        return Error{ErrorCode::Unavailable,
                     strCat("cannot connect to ", host, ':', port, ": ",
                            errnoText())};
    setNoDelay(fd.get());
    return Connection(std::move(fd), strCat(host, ':', port));
}

Result<bool>
Connection::finishConnect()
{
    if (!valid())
        return Error{ErrorCode::Unavailable, "connection not open"};
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd(), SOL_SOCKET, SO_ERROR, &err, &len) != 0)
        err = errno;
    if (err != 0) {
        close();
        return Error{ErrorCode::Unavailable,
                     strCat("cannot connect to ", peer_, ": ",
                            std::strerror(err))};
    }
    return true;
}

IoResult
Connection::readSome(char* buf, std::size_t cap)
{
    if (!valid())
        return {IoStatus::Error, 0};
    const ssize_t n = ::read(fd(), buf, cap);
    if (n > 0)
        return {IoStatus::Ok, static_cast<std::size_t>(n)};
    if (n == 0)
        return {IoStatus::Eof, 0};
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
        return {IoStatus::WouldBlock, 0};
    return {IoStatus::Error, 0};
}

IoResult
Connection::writeSome(const char* buf, std::size_t len)
{
    if (!valid())
        return {IoStatus::Error, 0};
    // MSG_NOSIGNAL: a peer that closed mid-write must produce EPIPE,
    // not a process-killing SIGPIPE.
    const ssize_t n = ::send(fd(), buf, len, MSG_NOSIGNAL);
    if (n >= 0)
        return {IoStatus::Ok, static_cast<std::size_t>(n)};
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
        return {IoStatus::WouldBlock, 0};
    return {IoStatus::Error, 0};
}

// ---- TcpListener --------------------------------------------------------

Result<TcpListener>
TcpListener::bind(const std::string& host, std::uint16_t port,
                  int backlog)
{
    Result<sockaddr_in> addr = resolve(host, port);
    if (!addr)
        return addr.error();
    TcpListener listener;
    listener.fd_ = UniqueFd(::socket(AF_INET, SOCK_STREAM, 0));
    const int fd = listener.fd();
    if (fd < 0)
        return Error{ErrorCode::InvalidArgument,
                     strCat("socket(): ", errnoText())};
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr.value()),
               sizeof(addr.value())) != 0 ||
        ::listen(fd, backlog) != 0 || !setNonBlocking(fd))
        return Error{ErrorCode::InvalidArgument,
                     strCat("cannot listen on ", host, ':', port, ": ",
                            errnoText())};
    // Read the bound port back: with port 0 the kernel picked one.
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) == 0)
        listener.port_ = ntohs(bound.sin_port);
    else
        listener.port_ = port;
    return listener;
}

Connection
TcpListener::accept()
{
    if (!valid())
        return Connection();
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    UniqueFd fd(
        ::accept(fd_.get(), reinterpret_cast<sockaddr*>(&peer), &peer_len));
    // WouldBlock and hard errors alike.
    if (!fd.valid() || !setNonBlocking(fd.get()))
        return Connection();
    setNoDelay(fd.get());
    return Connection(std::move(fd), peerLabel(peer));
}

}  // namespace ftsim
