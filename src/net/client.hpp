#ifndef FTSIM_NET_CLIENT_HPP
#define FTSIM_NET_CLIENT_HPP

/**
 * @file
 * Blocking JSON-lines client for `ftsim_served`.
 *
 * One `NetClient` is one TCP connection speaking the serve protocol:
 * send request lines, read response lines. The server answers each
 * connection's requests *in request order*, so a client may pipeline —
 * send N lines, then read N responses — which is exactly what the
 * `ftsim_client` tool and the socket tests do.
 *
 * Deliberately blocking and single-threaded: the poll-based machinery
 * lives server-side; a client that wants concurrency opens more
 * connections (the NetE2E herd test opens 64).
 */

#include <cstdint>
#include <string>

#include "common/result.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"

namespace ftsim {

/** Blocking line-protocol client (see file comment). */
class NetClient {
  public:
    NetClient() = default;

    /**
     * Connects to @p host:@p port. @p timeoutMs > 0 bounds the connect
     * handshake AND becomes the per-operation deadline for every later
     * sendLine/recvLine (a wedged peer yields a typed `Unavailable`
     * instead of an infinite block — how ci.sh e2e scripts can never
     * hang). 0 keeps the legacy fully-blocking behavior.
     */
    static Result<NetClient> connectTo(const std::string& host,
                                       std::uint16_t port,
                                       double timeoutMs = 0.0);

    /** Per-operation deadline for sendLine/recvLine; <= 0 = block
     *  forever (the pre-timeout contract). */
    void setTimeout(double timeoutMs) { timeout_ms_ = timeoutMs; }

    bool connected() const { return connection_.valid(); }

    /** Sends @p line plus the '\n' terminator (blocking, full). */
    Result<bool> sendLine(const std::string& line);

    /**
     * Blocks until one full response line arrives and returns it
     * without the terminator: recvFrame, narrowed to JSON lines.
     * `InvalidArgument` on EOF, a socket error, or a binary frame —
     * for a pipelined exchange EOF mid-read means the server dropped
     * the connection.
     */
    Result<std::string> recvLine();

    /** sendLine + recvLine: one synchronous request/response. */
    Result<std::string> ask(const std::string& line);

    /** Sends @p bytes verbatim — a pre-encoded binary frame (see
     *  serve/wire.hpp) or any raw payload. Same deadline semantics
     *  as sendLine. */
    Result<bool> sendBytes(const std::string& bytes);

    /**
     * Blocks until one full response frame arrives — binary (payload
     * is the frame payload, header stripped) or JSON (payload is the
     * line sans '\n'), per the frame's own first byte. recvLine reads
     * through the same reassembly buffer, so the two mix freely on one
     * connection. `InvalidArgument` on EOF (naming mid-frame
     * truncation when the server died inside a frame) or a damaged
     * binary header.
     */
    Result<WireFramer::Frame> recvFrame();

    /** Half-closes the write side (server sees EOF, finishes pending
     *  answers, then closes). recvLine still works afterwards. */
    void finishSending();

    /** Closes the connection. */
    void close() { connection_.close(); }

  private:
    /** Waits for @p events on the socket within the remaining slice of
     *  this operation's deadline; typed error on timeout. */
    Result<bool> waitReady(short events, double deadlineMs);

    Connection connection_;
    /** Reassembly state for recvFrame and recvLine. The cap matches the
     *  router's shard-side cap: snapshot frames are the biggest
     *  legitimate payloads on the wire. */
    WireFramer framer_{1 << 26};
    double timeout_ms_ = 0.0;
};

}  // namespace ftsim

#endif  // FTSIM_NET_CLIENT_HPP
