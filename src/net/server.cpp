#include "net/server.hpp"

#include "net/client_conn.hpp"
#include "net/event_loop.hpp"

namespace ftsim {

/** Loop-thread state: the service front, its timers, its counters. */
struct NetServer::Impl : EventLoop::Driver, RequestHandler {
    explicit Impl(NetServerConfig cfg)
        : config(std::move(cfg)),
          stats(config.service.statsRegistry
                    ? config.service.statsRegistry
                    : std::make_shared<StatsRegistry>()),
          loop(config.clock),
          front(loop, *this, *stats, "net", config.maxConnections,
                config.maxLineBytes, config.sendBufferBytes),
          requests(stats->counter("net.requests")),
          idleClosed(stats->counter("net.idle_closed")),
          forcedClosed(stats->counter("net.forced_closed")),
          binaryRequests(stats->counter("net.wire.requests"))
    {
        // One registry covers both layers of a shard: the service
        // publishes serve.*/planner.* into the same instance this
        // front end publishes net.* into, so a single `stats` scrape
        // (or dump file) is the whole process.
        config.service.statsRegistry = stats;
        service = std::make_unique<PlanService>(config.service);
    }

    AnswerSlot onRequest(ClientConn& conn, PlanRequest& request,
                         WireFramer::Frame& frame) override
    {
        requests.inc();
        if (frame.binary)
            binaryRequests.inc();
        SubmitOptions options;
        options.source = conn.label;
        options.notify = [this] { loop.wake(); };
        AnswerSlot slot;
        slot.binary = frame.binary;
        slot.id = request.id;
        slot.future = service->submit(request, options);
        return slot;
    }

    void onStop() override
    {
        // Graceful drain: no new connections, no new input — but every
        // admitted request still answers and every answer still
        // flushes before its connection closes.
        drainStartMs = loop.nowMs();
        front.beginDrain();
    }

    bool prepare() override
    {
        if (!front.prepare())
            return false;
        if (loop.stopping()) {
            if (config.drainDeadlineMs > 0.0)
                loop.arm(drainStartMs + config.drainDeadlineMs);
        } else if (config.idleTimeoutMs > 0.0) {
            for (const auto& conn : front.conns)
                if (conn->drained())  // Busy connections never idle out.
                    loop.arm(conn->lastActiveMs + config.idleTimeoutMs);
        }
        return true;
    }

    void afterEvents() override
    {
        const double now = loop.nowMs();
        front.pumpAll(now);
        // Drain deadline: connections that still owe bytes (or answers)
        // this long after the stop request are cut off — after the
        // flush above gave them one more chance. Their unflushed
        // answers die with them; the alternative is a shutdown a
        // stalled peer controls.
        if (loop.stopping()) {
            if (config.drainDeadlineMs <= 0.0 ||
                now - drainStartMs < config.drainDeadlineMs)
                return;
            for (auto& conn : front.conns) {
                if (conn->dead || conn->drained())
                    continue;
                forcedClosed.inc();
                conn->dead = true;
            }
            return;
        }
        // Idle sweep (only quiet, fully-drained connections).
        if (config.idleTimeoutMs <= 0.0)
            return;
        for (auto& conn : front.conns) {
            if (conn->dead || conn->closeAfterFlush || !conn->drained())
                continue;
            if (now - conn->lastActiveMs >= config.idleTimeoutMs) {
                idleClosed.inc();
                conn->closeWhenDrained();
            }
        }
    }

    NetServerConfig config;
    /** Shard-wide registry, shared with the fronted service (declared
     *  before the cells that reference into it). */
    std::shared_ptr<StatsRegistry> stats;
    EventLoop loop;
    ClientFront front;
    /** Declared after the loop: destroyed first, so worker callbacks
     *  still finishing (a dead connection's orphaned requests) wake a
     *  pipe that is still open. */
    std::unique_ptr<PlanService> service;
    double drainStartMs = 0.0;

    // Registry cells under `net.*` beyond the connection counters in
    // `front` (NetServerStats is a view over both).
    StatsCounter& requests;
    StatsCounter& idleClosed;
    StatsCounter& forcedClosed;
    StatsCounter& binaryRequests;
};

NetServer::NetServer(NetServerConfig config)
    : impl_(std::make_unique<Impl>(std::move(config)))
{
}

NetServer::~NetServer()
{
    stop();
}

Result<bool>
NetServer::bindListener()
{
    return impl_->front.bind(impl_->config.host, impl_->config.port);
}

std::uint16_t
NetServer::port() const
{
    return impl_->front.port();
}

void
NetServer::run()
{
    impl_->loop.run(*impl_);
}

Result<bool>
NetServer::start()
{
    Result<bool> bound = bindListener();
    if (!bound)
        return bound;
    impl_->loop.start(*impl_);
    return true;
}

void
NetServer::requestStop()
{
    impl_->loop.requestStop();
}

void
NetServer::stop()
{
    impl_->loop.stop();
}

bool
NetServer::stopped() const
{
    return impl_->loop.stopped();
}

PlanService&
NetServer::service()
{
    return *impl_->service;
}

const std::shared_ptr<StatsRegistry>&
NetServer::statsRegistry() const
{
    return impl_->stats;
}

NetServerStats
NetServer::stats() const
{
    const ClientFront& front = impl_->front;
    NetServerStats out;
    out.connectionsAccepted = front.accepted.load();
    out.connectionsClosed = front.closed.load();
    out.connectionsOpen =
        out.connectionsAccepted - out.connectionsClosed;
    out.requests = impl_->requests.load();
    out.responses = front.responses.load();
    out.protocolErrors = front.protocolErrors.load();
    out.oversizedLines = front.oversized.load();
    out.idleClosed = impl_->idleClosed.load();
    out.forcedClosed = impl_->forcedClosed.load();
    out.binaryRequests = impl_->binaryRequests.load();
    out.wirePoisoned = front.poisoned.load();
    return out;
}

}  // namespace ftsim
