#include "net/client_conn.hpp"

#include <chrono>
#include <sys/socket.h>

#include "common/logging.hpp"
#include "serve/wire.hpp"

namespace ftsim {

bool
isBlankLine(const std::string& line)
{
    return line.find_first_not_of(" \t\r") == std::string::npos;
}

bool
WireStream::flush()
{
    while (!flushed()) {
        const IoResult io = socket.writeSome(out_.data() + outOff_,
                                             out_.size() - outOff_);
        if (io.status == IoStatus::Ok)
            outOff_ += io.bytes;
        else if (io.status == IoStatus::WouldBlock)
            return true;  // POLLOUT will resume this.
        else
            return false;
    }
    out_.clear();
    outOff_ = 0;
    return true;
}

void
WireStream::reset(Connection fresh)
{
    socket = std::move(fresh);
    framer = WireFramer(maxFrameBytes_);
    out_.clear();
    outOff_ = 0;
}

ClientConn::ClientConn(ClientFront& front, Connection s, std::string l,
                       double now)
    : WireStream(front.maxLineBytes), label(std::move(l)),
      lastActiveMs(now), front_(front)
{
    socket = std::move(s);
}

void
ClientConn::onReady(short revents)
{
    if (revents & (POLLERR | POLLNVAL))
        dead = true;
    if (dead || inputClosed || !(revents & (POLLIN | POLLHUP)))
        return;
    lastActiveMs = front_.loop.nowMs();
    const ReadEnd end = readFrames([this](WireFramer::Frame& frame) {
        handleFrame(frame);
        return true;
    });
    if (end == ReadEnd::Error) {
        dead = true;
    } else if (end == ReadEnd::Poisoned) {
        poison(framer.poisonReason());
    } else if (end == ReadEnd::Eof) {
        // Half-close: the peer finished sending; answer everything
        // already admitted, flush, then close. EOF inside a binary
        // frame means the peer truncated it.
        if (framer.midBinaryFrame())
            poison("truncated frame at EOF");
        closeWhenDrained();
    }
}

void
ClientConn::handleFrame(WireFramer::Frame& frame)
{
    if (frame.overflow) {
        front_.oversized.inc();
        answerError(false, strCat("request line exceeds ",
                                  front_.maxLineBytes, " bytes"));
        return;
    }
    PlanRequest request;
    if (frame.binary) {
        Result<WireMessage> decoded = decodeWirePayload(frame.payload);
        if (!decoded.ok()) {
            answerError(true, decoded.error().message);
            return;
        }
        if (decoded.value().type != WireMsg::Request) {
            answerError(true, "expected a request frame");
            return;
        }
        request = std::move(decoded.value().request);
    } else {
        if (isBlankLine(frame.payload))
            return;
        Result<PlanRequest> parsed = parsePlanRequest(frame.payload);
        if (!parsed) {
            answerError(false, parsed.error().message);
            return;
        }
        request = std::move(parsed.value());
    }
    pending.push_back(front_.handler.onRequest(*this, request, frame));
}

void
ClientConn::answerError(bool binary, const std::string& message)
{
    front_.protocolErrors.inc();
    AnswerSlot slot;
    slot.binary = binary;
    slot.bytes = binary ? encodeProtocolErrorFrame("", message)
                        : writeProtocolError("", message);
    pending.push_back(std::move(slot));
}

void
ClientConn::poison(const std::string& reason)
{
    // A poisoned binary stream has no resync point: one final error
    // frame, then the connection closes.
    front_.poisoned.inc();
    answerError(true, strCat("bad frame: ", reason));
    closeWhenDrained();
}

std::size_t
ClientConn::pump(double now)
{
    std::size_t moved = 0;
    while (!pending.empty()) {
        AnswerSlot& slot = pending.front();
        if (slot.future.valid()) {
            if (slot.future.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready)
                break;
            PlanResponse response = slot.future.get();
            response.id = std::move(slot.id);
            queue(slot.binary ? encodeResponseFrame(response)
                              : writePlanResponse(response),
                  slot.binary);
        } else if (slot.relay) {
            if (!slot.relay->ready)
                break;
            queue(slot.relay->bytes, slot.binary);
        } else {
            queue(slot.bytes, slot.binary);
        }
        pending.pop_front();
        ++moved;
    }
    if (moved > 0)
        lastActiveMs = now;
    return moved;
}

ClientFront::ClientFront(EventLoop& l, RequestHandler& h,
                         StatsRegistry& stats, const std::string& prefix,
                         std::size_t maxConnections,
                         std::size_t maxLine, int sendBufferBytes)
    : loop(l), handler(h), maxLineBytes(maxLine),
      accepted(stats.counter(prefix + ".conn.accepted")),
      closed(stats.counter(prefix + ".conn.closed")),
      responses(stats.counter(prefix + ".responses")),
      protocolErrors(stats.counter(prefix + ".protocol_errors")),
      oversized(stats.counter(prefix + ".oversized_lines")),
      poisoned(stats.counter(prefix + ".wire.poisoned")),
      maxConnections_(maxConnections), sendBufferBytes_(sendBufferBytes)
{
}

Result<bool>
ClientFront::bind(const std::string& host, std::uint16_t port)
{
    Result<TcpListener> listener = TcpListener::bind(host, port);
    if (!listener)
        return listener.error();
    listener_ = std::move(listener.value());
    return true;
}

void
ClientFront::beginDrain()
{
    listener_.close();
    for (auto& conn : conns)
        conn->closeWhenDrained();
}

bool
ClientFront::prepare()
{
    for (auto it = conns.begin(); it != conns.end();) {
        const ClientConn& conn = **it;
        if (conn.dead || (conn.closeAfterFlush && conn.drained())) {
            closed.inc();
            it = conns.erase(it);
        } else {
            ++it;
        }
    }
    if (loop.stopping() && conns.empty())
        return false;
    if (listener_.valid() && conns.size() < maxConnections_)
        loop.watch(listener_.fd(), POLLIN, *this);
    for (auto& conn : conns) {
        short events = 0;
        if (!conn->inputClosed)
            events |= POLLIN;
        if (!conn->flushed())
            events |= POLLOUT;
        loop.watch(conn->socket.fd(), events, *conn);
    }
    return true;
}

void
ClientFront::pumpAll(double now)
{
    // Every connection, every round: a wakeup says "some answer is
    // ready", not which one.
    for (auto& conn : conns) {
        if (conn->dead)
            continue;
        if (const std::size_t moved = conn->pump(now))
            responses.add(moved);
        if (!conn->flush())
            conn->dead = true;  // Peer is gone; answers die with it.
    }
}

void
ClientFront::onReady(short)
{
    while (conns.size() < maxConnections_) {
        Connection socket = listener_.accept();
        if (!socket.valid())
            break;
        if (sendBufferBytes_ > 0)
            ::setsockopt(socket.fd(), SOL_SOCKET, SO_SNDBUF,
                         &sendBufferBytes_, sizeof(sendBufferBytes_));
        accepted.inc();
        std::string label = strCat(socket.peer(), '#', accepted.load());
        conns.push_back(std::make_unique<ClientConn>(
            *this, std::move(socket), std::move(label), loop.nowMs()));
    }
}

}  // namespace ftsim
