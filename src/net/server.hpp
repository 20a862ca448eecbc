#ifndef FTSIM_NET_SERVER_HPP
#define FTSIM_NET_SERVER_HPP

/**
 * @file
 * The network front end: a TCP server over the `PlanService`
 * JSON-lines and binary wire protocols.
 *
 * `NetServer` owns one in-process `PlanService` and the client side of
 * one `EventLoop` (net/event_loop.hpp): a `ClientFront` of
 * `ClientConn`s (net/client_conn.hpp). The connection type does the
 * framing and decoding, answers undecodable frames with typed protocol
 * errors in their own format, contains binary framing damage to its
 * connection, and writes answers back **per connection in request
 * order**. What this file adds is the service: each decoded request is
 * submitted with a per-connection source label and a completion
 * callback that wakes the loop, so answers compute out of order across
 * the worker pool and are re-sequenced per connection, exactly like
 * `ftsim_serve` re-sequences a file. Quota overflow answers
 * `{"ok":false,"error":"RateLimited",...}` in the request's slot.
 *
 * Timers on the loop's injectable clock: the idle timeout closes quiet,
 * fully-drained connections, and the drain deadline bounds a graceful
 * stop.
 *
 * Shutdown (`requestStop()`, safe to call from a signal handler —
 * it only stores an atomic and writes one byte to the wake pipe):
 * the loop stops accepting and stops *reading*, but every request
 * already admitted drains — its answer is computed, written back, and
 * flushed — before the connections and the listener close. SIGTERM
 * never loses an in-flight answer.
 *
 * Concurrency model: the loop thread does all socket IO and all
 * framing/parsing; the PlanService worker pool does all planning. The
 * loop never blocks on a computation (futures are polled only when
 * ready, the wake pipe signals readiness), and workers never touch a
 * socket. `run()` drives the loop on the caller's thread (the daemon);
 * `start()` spawns it on a background thread (tests, the bench).
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/result.hpp"
#include "serve/plan_service.hpp"

namespace ftsim {

/** Construction knobs for a NetServer. */
struct NetServerConfig {
    /** Bind address (numeric IPv4 or resolvable name). */
    std::string host = "127.0.0.1";
    /** Bind port; 0 = kernel-assigned (read back via port()). */
    std::uint16_t port = 0;
    /**
     * Open connections served at once. At the cap the listener is
     * simply not polled — further connects queue in the kernel backlog
     * until a slot frees instead of being reset.
     */
    std::size_t maxConnections = 64;
    /**
     * Close a connection with no in-flight requests after this much
     * quiet, ms; 0 = never. Clients are expected to reconnect.
     */
    double idleTimeoutMs = 0.0;
    /** Frame cap: longest accepted request line, bytes. */
    std::size_t maxLineBytes = 1 << 20;
    /**
     * Graceful-shutdown patience, ms: once a stop is requested, a
     * connection that still has unflushed output (or unanswered
     * requests) after this long is force-closed instead of holding
     * the drain hostage — a stalled peer that never reads must not
     * turn SIGTERM into a hang. 0 = wait forever (the pre-deadline
     * behavior). Counted in NetServerStats::forcedClosed.
     */
    double drainDeadlineMs = 0.0;
    /**
     * SO_SNDBUF for accepted connections, bytes; 0 = kernel default.
     * Mainly a test knob: a tiny buffer makes "peer stopped reading"
     * reproducible without megabytes of traffic.
     */
    int sendBufferBytes = 0;
    /**
     * Virtual clock in ms for the loop's timers (idle timeout, drain
     * deadline); null = the real monotonic clock. Tests inject a
     * controllable clock to cross the drain deadline deterministically.
     * Independent of ServiceConfig::clock (admission timing).
     */
    std::function<double()> clock;
    /** The in-process service being fronted (governance included). */
    ServiceConfig service;
};

/** Aggregate front-end counters (service stats live one level down).
 *  A view over the server's StatsRegistry `net.*` cells since ISSUE-8:
 *  the live `stats` scrape and this struct always agree. */
struct NetServerStats {
    std::uint64_t connectionsAccepted = 0;
    std::uint64_t connectionsClosed = 0;
    /** Connections open right now. */
    std::uint64_t connectionsOpen = 0;
    /** Requests submitted to the service (both wire formats). */
    std::uint64_t requests = 0;
    /** Responses written back (both wire formats). */
    std::uint64_t responses = 0;
    /** Frames answered with a protocol error (parse/decode failure). */
    std::uint64_t protocolErrors = 0;
    /** JSON lines that crossed the frame cap. */
    std::uint64_t oversizedLines = 0;
    /** Requests that arrived as binary frames (subset of requests). */
    std::uint64_t binaryRequests = 0;
    /** Connections killed by binary framing damage (bad header,
     *  over-cap length, truncation). */
    std::uint64_t wirePoisoned = 0;
    /** Connections closed by the idle timeout. */
    std::uint64_t idleClosed = 0;
    /** Connections force-closed at the drain deadline with answers
     *  still unflushed. */
    std::uint64_t forcedClosed = 0;
};

/** TCP front end over a PlanService (see file comment). */
class NetServer {
  public:
    explicit NetServer(NetServerConfig config = {});

    /** Stops the loop (dropping unflushed writes), joins, closes. */
    ~NetServer();

    NetServer(const NetServer&) = delete;
    NetServer& operator=(const NetServer&) = delete;

    /** Binds + listens. Must succeed before run()/start(). */
    Result<bool> bindListener();

    /** The bound port (after bindListener; 0 before). */
    std::uint16_t port() const;

    /** Runs the event loop on this thread until requestStop(). */
    void run();

    /** bindListener() + run() on a background thread. */
    Result<bool> start();

    /**
     * Asks the loop to shut down gracefully: stop accepting, stop
     * reading, drain every admitted request, flush, close. Safe from
     * any thread and from a signal handler (atomic store + one
     * write(2) on the wake pipe; no locks).
     */
    void requestStop();

    /** requestStop() + join the start() thread (no-op without one). */
    void stop();

    /** True once run() has returned. */
    bool stopped() const;

    /** The fronted service (stats, registry). */
    PlanService& service();

    /** The shard-wide stats registry: this front end's `net.*` cells
     *  and the fronted service's `serve.*`/`planner.*` cells live in
     *  the same instance (one `stats` scrape covers the process).
     *  Shared from NetServerConfig::service.statsRegistry when set. */
    const std::shared_ptr<StatsRegistry>& statsRegistry() const;

    /** Front-end counters (loop-thread maintained; read after stop()
     *  for exact values, mid-run for a live approximation). */
    NetServerStats stats() const;

  private:
    struct Impl;  ///< Loop driver (connections live here).
    std::unique_ptr<Impl> impl_;
};

}  // namespace ftsim

#endif  // FTSIM_NET_SERVER_HPP
