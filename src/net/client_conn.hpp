#ifndef FTSIM_NET_CLIENT_CONN_HPP
#define FTSIM_NET_CLIENT_CONN_HPP

/**
 * @file
 * The client-connection type shared by NetServer and RouterServer:
 *  - `WireStream`: socket + `WireFramer` read half + outbound buffer
 *    flush half (the router's shard links are WireStreams too);
 *  - `ClientConn`: decodes each frame in its own format, answers an
 *    undecodable one with a typed protocol error in that format, and
 *    contains binary framing damage (EOF mid-frame included) to its
 *    connection with one final error frame. Every request or error
 *    queues exactly one `AnswerSlot`; `pump()` writes from the front
 *    only, so answers go back in request order — enforced here only;
 *  - `ClientFront`: the listener (not polled at maxConnections, so
 *    connects wait in the backlog), the sweep of closed connections,
 *    the graceful drain, and the `<prefix>.conn.*`, `.responses`,
 *    `.protocol_errors`, `.oversized_lines`, `.wire.poisoned` cells.
 */

#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/stats_registry.hpp"
#include "net/event_loop.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "serve/protocol.hpp"

namespace ftsim {

/** Blank JSON lines are not requests (mirrors ftsim_serve). */
bool isBlankLine(const std::string& line);

/** How a WireStream::readFrames call ended. */
enum class ReadEnd { Blocked, Stopped, Poisoned, Eof, Error };

/** A framed, buffered, non-blocking stream (see file comment). */
class WireStream {
  public:
    explicit WireStream(std::size_t maxFrameBytes)
        : framer(maxFrameBytes), maxFrameBytes_(maxFrameBytes)
    {
    }

    Connection socket;
    WireFramer framer;

    bool flushed() const { return outOff_ >= out_.size(); }

    /** Queues one frame; a JSON line gets its '\n'. */
    void queue(const std::string& bytes, bool binary)
    {
        out_ += bytes;
        if (!binary)
            out_ += '\n';
    }

    /** Writes until flushed or the kernel pushes back; false on a hard
     *  socket error. */
    bool flush();

    /** Adopts @p fresh with an empty framer and buffer. */
    void reset(Connection fresh);

    /** Reads until the socket runs dry (Blocked), passing each frame to
     *  @p onFrame; its false return stops the read (Stopped). */
    template <typename OnFrame>
    ReadEnd readFrames(OnFrame&& onFrame)
    {
        char buf[16384];
        while (true) {
            const IoResult io = socket.readSome(buf, sizeof(buf));
            if (io.status != IoStatus::Ok)
                return io.status == IoStatus::WouldBlock ? ReadEnd::Blocked
                       : io.status == IoStatus::Eof      ? ReadEnd::Eof
                                                         : ReadEnd::Error;
            framer.feed(buf, io.bytes);
            WireFramer::Frame frame;
            while (framer.next(frame))
                if (!onFrame(frame))
                    return ReadEnd::Stopped;
            if (framer.poisoned())
                return ReadEnd::Poisoned;
        }
    }

  private:
    std::size_t maxFrameBytes_;
    std::string out_;
    std::size_t outOff_ = 0;
};

/** An answer filled in later by another stream (a shard response).
 *  Shared, so a client that disconnects mid-flight leaves the filler
 *  writing into an orphan instead of freed memory. */
struct Relay {
    bool ready = false;
    /** A JSON line (no '\n') or a binary frame, once ready. */
    std::string bytes;
};

/** One answer owed to a client, from exactly one source: `bytes`
 *  (ready now), a PlanService `future` (its response gets `id`:
 *  coalesced futures share a response, not an id), or a `relay`. */
struct AnswerSlot {
    bool binary = false;  ///< Answer in the request's format.
    std::string bytes;
    std::string id;
    std::shared_future<PlanResponse> future;
    std::shared_ptr<const Relay> relay;
};

class ClientConn;
class ClientFront;

/** Where a ClientConn's decoded requests go. */
class RequestHandler {
  public:
    /** Admits @p request (decoded from @p frame); returns its slot. */
    virtual AnswerSlot onRequest(ClientConn& conn, PlanRequest& request,
                                 WireFramer::Frame& frame) = 0;

  protected:
    ~RequestHandler() = default;
};

/** One accepted client connection (see file comment). */
class ClientConn : public WireStream, public EventLoop::Handler {
  public:
    ClientConn(ClientFront& front, Connection s, std::string label,
               double now);

    std::string label;  ///< "peer#n", the service's source label.
    std::deque<AnswerSlot> pending;  ///< Answers owed, oldest first.
    bool inputClosed = false;
    bool closeAfterFlush = false;
    bool dead = false;  ///< Hard socket error: closed unflushed.
    double lastActiveMs;  ///< Last read or answer (loop clock).

    bool drained() const { return pending.empty() && flushed(); }

    /** Stops reading; the connection closes once drained. */
    void closeWhenDrained() { inputClosed = closeAfterFlush = true; }

    /** Moves ready answers to the outbound buffer, front first, up to
     *  the first unready one; returns how many moved. */
    std::size_t pump(double now);

    void onReady(short revents) override;

  private:
    void handleFrame(WireFramer::Frame& frame);
    void answerError(bool binary, const std::string& message);
    void poison(const std::string& reason);

    ClientFront& front_;
};

/** The listener and its open client connections (see file comment). */
class ClientFront : public EventLoop::Handler {
  public:
    ClientFront(EventLoop& loop, RequestHandler& handler,
                StatsRegistry& stats, const std::string& prefix,
                std::size_t maxConnections, std::size_t maxLineBytes,
                int sendBufferBytes);

    Result<bool> bind(const std::string& host, std::uint16_t port);

    std::uint16_t port() const { return listener_.port(); }

    /** Driver::onStop: close the listener, drain every connection. */
    void beginDrain();

    /** Driver::prepare: sweep closed connections, watch the rest and
     *  the listener; false once draining with none left. */
    bool prepare();

    /** Pumps and flushes every live connection. */
    void pumpAll(double now);

    /** The listener is readable: accept up to the cap. */
    void onReady(short revents) override;

    EventLoop& loop;
    RequestHandler& handler;
    const std::size_t maxLineBytes;
    std::vector<std::unique_ptr<ClientConn>> conns;

    StatsCounter& accepted;
    StatsCounter& closed;
    StatsCounter& responses;
    StatsCounter& protocolErrors;
    StatsCounter& oversized;
    StatsCounter& poisoned;

  private:
    TcpListener listener_;
    const std::size_t maxConnections_;
    const int sendBufferBytes_;
};

}  // namespace ftsim

#endif  // FTSIM_NET_CLIENT_CONN_HPP
