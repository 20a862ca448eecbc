#include "net/client.hpp"

#include <cmath>
#include <poll.h>
#include <sys/socket.h>

#include "common/clock.hpp"
#include "common/logging.hpp"

namespace ftsim {

Result<NetClient>
NetClient::connectTo(const std::string& host, std::uint16_t port,
                     double timeoutMs)
{
    NetClient client;
    client.timeout_ms_ = timeoutMs;
    if (timeoutMs <= 0.0) {
        Result<Connection> connection =
            Connection::connectTo(host, port);
        if (!connection)
            return connection.error();
        client.connection_ = std::move(connection.value());
        return client;
    }
    // Bounded connect: non-blocking handshake + poll. The fd stays
    // non-blocking afterwards — sendLine/recvLine poll with the same
    // deadline instead of relying on blocking reads.
    Result<Connection> connection =
        Connection::connectStart(host, port);
    if (!connection)
        return connection.error();
    client.connection_ = std::move(connection.value());
    pollfd pfd{client.connection_.fd(), POLLOUT, 0};
    const int rc =
        ::poll(&pfd, 1, static_cast<int>(std::ceil(timeoutMs)));
    if (rc <= 0)
        return Error{ErrorCode::Unavailable,
                     strCat("connect to ", host, ':', port,
                            " timed out after ", timeoutMs, " ms")};
    Result<bool> finished = client.connection_.finishConnect();
    if (!finished)
        return finished.error();
    return client;
}

Result<bool>
NetClient::waitReady(short events, double deadlineMs)
{
    const double remaining = deadlineMs - monotonicMs();
    if (remaining <= 0.0)
        return Error{ErrorCode::Unavailable,
                     strCat("operation timed out after ", timeout_ms_,
                            " ms")};
    pollfd pfd{connection_.fd(), events, 0};
    const int rc =
        ::poll(&pfd, 1, static_cast<int>(std::ceil(remaining)));
    if (rc == 0)
        return Error{ErrorCode::Unavailable,
                     strCat("operation timed out after ", timeout_ms_,
                            " ms")};
    if (rc < 0 && errno != EINTR)
        return Error{ErrorCode::InvalidArgument,
                     "poll() failed while waiting on the socket"};
    return true;
}

Result<bool>
NetClient::sendLine(const std::string& line)
{
    std::string framed = line;
    framed.push_back('\n');
    return sendBytes(framed);
}

Result<bool>
NetClient::sendBytes(const std::string& bytes)
{
    const double deadline = monotonicMs() + timeout_ms_;
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const IoResult io =
            connection_.writeSome(bytes.data() + sent,
                                  bytes.size() - sent);
        if (io.status == IoStatus::Ok) {
            sent += io.bytes;
        } else if (io.status == IoStatus::WouldBlock) {
            // Blocking fd: only transient EINTR lands here. With a
            // timeout the fd is non-blocking and the deadline gates
            // the poll.
            if (timeout_ms_ > 0.0) {
                Result<bool> ready = waitReady(POLLOUT, deadline);
                if (!ready)
                    return ready.error();
            }
            continue;
        } else {
            return Error{ErrorCode::InvalidArgument,
                         "connection closed while sending"};
        }
    }
    return true;
}

Result<std::string>
NetClient::recvLine()
{
    Result<WireFramer::Frame> frame = recvFrame();
    if (!frame)
        return frame.error();
    if (frame.value().binary)
        return Error{ErrorCode::InvalidArgument,
                     "expected a response line, got a binary frame"};
    if (frame.value().overflow)
        return Error{ErrorCode::InvalidArgument,
                     "response line exceeds the frame cap"};
    return std::move(frame.value().payload);
}

Result<WireFramer::Frame>
NetClient::recvFrame()
{
    const double deadline = monotonicMs() + timeout_ms_;
    while (true) {
        WireFramer::Frame frame;
        if (framer_.next(frame))
            return frame;
        if (framer_.poisoned())
            return Error{ErrorCode::InvalidArgument,
                         strCat("bad frame from server: ",
                                framer_.poisonReason())};
        if (timeout_ms_ > 0.0) {
            Result<bool> ready = waitReady(POLLIN, deadline);
            if (!ready)
                return ready.error();
        }
        char chunk[4096];
        const IoResult io = connection_.readSome(chunk, sizeof(chunk));
        if (io.status == IoStatus::Ok) {
            framer_.feed(chunk, io.bytes);
        } else if (io.status == IoStatus::WouldBlock) {
            continue;  // Blocking fd: only transient EINTR lands here.
        } else if (io.status == IoStatus::Eof) {
            if (framer_.midBinaryFrame())
                return Error{ErrorCode::InvalidArgument,
                             "connection closed mid-frame"};
            return Error{ErrorCode::InvalidArgument,
                         "connection closed before a full response "
                         "frame arrived"};
        } else {
            return Error{ErrorCode::InvalidArgument,
                         "socket error while reading"};
        }
    }
}

Result<std::string>
NetClient::ask(const std::string& line)
{
    Result<bool> sent = sendLine(line);
    if (!sent)
        return sent.error();
    return recvLine();
}

void
NetClient::finishSending()
{
    if (connection_.valid())
        ::shutdown(connection_.fd(), SHUT_WR);
}

}  // namespace ftsim
