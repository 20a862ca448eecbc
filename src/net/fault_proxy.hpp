#ifndef FTSIM_NET_FAULT_PROXY_HPP
#define FTSIM_NET_FAULT_PROXY_HPP

/**
 * @file
 * Deterministic TCP chaos proxy for fault-injection tests (ISSUE-7).
 *
 * `FaultProxy` listens on one port and forwards every accepted
 * connection to a (retargetable) upstream, byte-for-byte — until a
 * scripted fault fires. The RouterHeal tests park it between the
 * router and a shard so shard death, wedged peers, half-closes,
 * and truncated streams happen at an exact, reproducible byte offset
 * instead of "whenever kill -9 lands":
 *
 *     client/router --> FaultProxy --> shard (retarget at runtime)
 *
 * Fault kinds (`FaultScript`), scripted per direction and armed for
 * current + future links:
 *  - `Close`: forward exactly `afterBytes` in the scripted direction,
 *    then drop both sides of the link (the kill-after-N-bytes chaos).
 *  - `Stall`: stop forwarding the scripted direction after
 *    `afterBytes` but keep the link open — the classic wedged peer
 *    that blocks a timeout-less client forever.
 *  - `HalfClose`: after `afterBytes`, shutdown(SHUT_WR) toward the
 *    scripted direction's receiver (it sees EOF mid-stream); the
 *    reverse direction keeps flowing.
 *  - `Truncate`: forward `afterBytes`, then silently discard the rest
 *    of that direction — bytes vanish but nobody blocks.
 *
 * `afterBytes` counts bytes *forwarded on that link* in the scripted
 * direction, so `afterBytes = 0` armed mid-conversation means "from
 * now". Independently, a seeded RNG (`FaultProxyConfig::seed` +
 * `maxChunkBytes`) slices every forwarded write into random 1..N byte
 * chunks — deterministic partial writes and short reads that exercise
 * `LineFramer` reassembly and the router's slot sequencing without any
 * fault firing.
 *
 * Runtime controls (any thread): `setFault` / `clearFault`,
 * `setTarget` (future links dial the new upstream — how a test "heals"
 * a killed shard with a fresh one), `killConnections` (drop every live
 * link now, listener stays). Forwarding runs as handlers on one
 * `EventLoop` (net/event_loop.hpp) and its state is loop-thread-owned;
 * the controls go through a mutex + the loop's wake pipe.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/result.hpp"

namespace ftsim {

/** Which flow a fault script counts and breaks. */
enum class FaultDirection {
    ClientToServer,  ///< Bytes from the accepted side to the upstream.
    ServerToClient,  ///< Bytes from the upstream back to the client.
};

/** What the proxy does to a link (see file comment). */
enum class FaultKind {
    None,       ///< Transparent forwarding.
    Close,      ///< Kill both sides after N bytes.
    Stall,      ///< Stop forwarding after N bytes; link stays open.
    HalfClose,  ///< shutdown(SHUT_WR) toward the receiver after N.
    Truncate,   ///< Discard the direction's bytes after N.
};

/** One scripted fault; armed via FaultProxy::setFault. */
struct FaultScript {
    FaultKind kind = FaultKind::None;
    FaultDirection direction = FaultDirection::ClientToServer;
    /** Per-link bytes forwarded in `direction` before the fault fires
     *  (0 = immediately for bytes not yet forwarded). */
    std::uint64_t afterBytes = 0;
};

/** Construction knobs for a FaultProxy. */
struct FaultProxyConfig {
    std::string listenHost = "127.0.0.1";
    /** 0 = kernel-assigned; read back via port(). */
    std::uint16_t listenPort = 0;
    std::string targetHost = "127.0.0.1";
    std::uint16_t targetPort = 0;
    /** != 0 enables seeded random write chunking (with maxChunkBytes);
     *  the same seed replays the same split points. */
    std::uint64_t seed = 0;
    /** Upper bound on one forwarded write when chunking (>= 1). */
    std::size_t maxChunkBytes = 0;
    /** Per-direction buffered-byte cap; a full buffer stops reading
     *  from the source (backpressure), so memory stays bounded no
     *  matter how wedged the sink is. */
    std::size_t maxBufferBytes = 1 << 16;
};

/** Loop-thread-maintained counters, readable from any thread. */
struct FaultProxyStats {
    std::uint64_t connectionsAccepted = 0;
    /** Links dropped by killConnections() or a Close fault. */
    std::uint64_t connectionsKilled = 0;
    /** Scripted faults that actually fired. */
    std::uint64_t faultsInjected = 0;
    std::uint64_t bytesClientToServer = 0;
    std::uint64_t bytesServerToClient = 0;
    /** High-water mark of one direction's buffered bytes — tests pin
     *  this to maxBufferBytes to prove the proxy is bounded. */
    std::uint64_t peakBufferedBytes = 0;
    /** Links currently proxying. */
    std::size_t linksOpen = 0;
};

/** Scriptable TCP fault-injection proxy (see file comment). */
class FaultProxy {
  public:
    explicit FaultProxy(FaultProxyConfig config);

    /** Stops the loop and drops every link. */
    ~FaultProxy();

    FaultProxy(const FaultProxy&) = delete;
    FaultProxy& operator=(const FaultProxy&) = delete;

    /** Binds the listener and runs the loop on a background thread. */
    Result<bool> start();

    /** The bound listen port (after start; 0 before). */
    std::uint16_t port() const;

    /** Stops and joins (idempotent). */
    void stop();

    /** Arms @p script for current and future links. */
    void setFault(const FaultScript& script);

    /** Back to transparent forwarding (links already broken stay
     *  broken; a Stall's buffered bytes resume flowing). */
    void clearFault();

    /** Future links dial @p host:@p port instead — a test's "heal the
     *  fleet with a replacement shard" lever. */
    void setTarget(const std::string& host, std::uint16_t port);

    /** Drops every live link now; the listener keeps accepting. */
    void killConnections();

    FaultProxyStats stats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace ftsim

#endif  // FTSIM_NET_FAULT_PROXY_HPP
