#include "core/planner.hpp"

#include <algorithm>
#include <optional>

#include "common/logging.hpp"
#include "common/lru_cache.hpp"

namespace ftsim {

namespace {

/**
 * Cache identity of one GPU. Keyed on the full spec, not just the name,
 * so a tweaked copy ("A40 with 24 GB") never aliases the preset.
 */
std::string
gpuFingerprint(const GpuSpec& gpu)
{
    return strCat(gpu.name, '|', gpu.memGB, '|', gpu.numSms, '|',
                  gpu.tensorTflops, '|', gpu.vectorTflops, '|',
                  gpu.dramGBps, '|', gpu.launchUs);
}

}  // namespace

/** Per-GPU cache shard: one simulator plus every memoized answer. */
struct Planner::GpuState {
    GpuSpec gpu;
    FineTuneSim sim;
    /** Guards the cache containers below (not the registry) — but NOT
     *  the simulations themselves: step entries are shared futures and
     *  the owning thread fulfills them outside the lock. */
    std::mutex mutex;
    /** Memoized step profiles, LRU-bounded when the planner's
     *  step-cache capacity is set (0 = unbounded). Values are shared
     *  futures, so evicting an entry mid-simulation never orphans a
     *  waiter — every waiter holds its own copy of the shared state. */
    LruCache<std::string, std::shared_future<StepProfile>> steps;
    std::optional<MemoryBreakdown> mem;
    std::optional<std::vector<ThroughputObservation>> observations;
    std::optional<ThroughputFit> fit;

    GpuState(const ModelSpec& model, const GpuSpec& g,
             const SimCalibration& calib,
             std::shared_ptr<PlanRegistry> registry,
             std::size_t step_capacity)
        : gpu(g), sim(model, g, calib, std::move(registry)),
          steps(step_capacity)
    {
    }

    static std::string stepKey(const RunConfig& config)
    {
        return strCat(config.batchSize, '|', config.seqLen, '|',
                      config.sparse ? 1 : 0, '|',
                      config.gradientCheckpointing);
    }
};

Planner::Planner(Scenario scenario, CloudCatalog catalog,
                 std::shared_ptr<PlanRegistry> registry)
    : scenario_(std::move(scenario)), catalog_(std::move(catalog)),
      estimator_(catalog_), registry_(std::move(registry))
{
}

Planner::~Planner() = default;

Planner&
Planner::setStepCacheCapacity(std::size_t entries)
{
    step_cache_capacity_ = entries;
    return *this;
}

Planner&
Planner::bindStats(std::shared_ptr<StatsRegistry> registry,
                   const std::string& prefix)
{
    StatsCounter& hits =
        registry->counter(strCat(prefix, ".step_cache_hits"));
    StatsCounter& misses =
        registry->counter(strCat(prefix, ".step_cache_misses"));
    return bindStats(std::move(registry), hits, misses);
}

Planner&
Planner::bindStats(std::shared_ptr<StatsRegistry> registry,
                   StatsCounter& hits, StatsCounter& misses)
{
    stats_registry_ = std::move(registry);
    shared_hits_ = &hits;
    shared_misses_ = &misses;
    return *this;
}

Planner::GpuState&
Planner::stateFor(const GpuSpec& gpu) const
{
    const std::string key = gpuFingerprint(gpu);
    std::lock_guard<std::mutex> lock(registry_mutex_);
    auto it = states_.find(key);
    if (it == states_.end())
        it = states_
                 .emplace(key, std::make_unique<GpuState>(
                                   scenario_.model, gpu,
                                   scenario_.calibration, registry_,
                                   step_cache_capacity_))
                 .first;
    return *it->second;
}

StepProfile
Planner::profiledStep(GpuState& state, const RunConfig& config) const
{
    const std::string key = GpuState::stepKey(config);
    std::packaged_task<StepProfile()> task;
    std::shared_future<StepProfile> future;
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        if (std::shared_future<StepProfile>* cached =
                state.steps.get(key)) {
            ++step_hits_;
            if (shared_hits_)
                shared_hits_->inc();
            future = *cached;
        } else {
            ++step_misses_;
            if (shared_misses_)
                shared_misses_->inc();
            task = std::packaged_task<StepProfile()>([&state, config] {
                return state.sim.profileStep(config);
            });
            future = task.get_future().share();
            // A bounded shard may evict here; displaced futures are
            // simply dropped — any thread still waiting on one holds
            // its own shared_future copy, and a later query for the
            // evicted key re-simulates (a fresh miss, identical
            // profile).
            state.steps.put(key, future);
        }
    }
    // Simulate *outside* the shard lock: concurrent queries for the
    // same GPU but different configs proceed in parallel; threads that
    // raced on this config wait on the shared future below instead of
    // re-simulating (once-semantics: misses == simulations).
    if (task.valid())
        task();
    return future.get();
}

Result<MemoryBreakdown>
Planner::memory(const GpuSpec& gpu) const
{
    Result<Scenario> valid = checked();
    if (!valid)
        return valid.error();
    GpuState& state = stateFor(gpu);
    std::lock_guard<std::mutex> lock(state.mutex);
    if (!state.mem)
        state.mem = MemoryModel::analyze(scenario_.model, gpu,
                                         scenario_.medianSeqLen,
                                         scenario_.sparse);
    return *state.mem;
}

Result<int>
Planner::maxBatch(const GpuSpec& gpu) const
{
    Result<MemoryBreakdown> mem = memory(gpu);
    if (!mem)
        return mem.error();
    if (mem.value().maxBatchSize < 1)
        return Error{ErrorCode::DoesNotFit,
                     strCat(scenario_.model.name, " does not fit on ",
                            gpu.name,
                            scenario_.sparse ? " (sparse)" : " (dense)")};
    return mem.value().maxBatchSize;
}

Result<StepProfile>
Planner::profileAt(const GpuSpec& gpu, std::size_t batch) const
{
    Result<Scenario> valid = checked();
    if (!valid)
        return valid.error();
    if (batch < 1)
        return Error{ErrorCode::InvalidArgument,
                     "Planner::profileAt: batch must be >= 1"};
    GpuState& state = stateFor(gpu);
    RunConfig config;
    config.batchSize = batch;
    config.seqLen = state.sim.paddedSeqLen(scenario_.medianSeqLen, batch,
                                           scenario_.lengthSigma);
    config.sparse = scenario_.sparse;
    return profiledStep(state, config);
}

Result<StepProfile>
Planner::profile(const GpuSpec& gpu) const
{
    Result<int> mbs = maxBatch(gpu);
    if (!mbs)
        return mbs.error();
    return profileAt(gpu, static_cast<std::size_t>(mbs.value()));
}

Result<double>
Planner::throughput(const GpuSpec& gpu) const
{
    Result<StepProfile> profile_at_max = profile(gpu);
    if (!profile_at_max)
        return profile_at_max.error();
    return profile_at_max.value().throughputQps;
}

Result<std::vector<ThroughputObservation>>
Planner::throughputObservations(const GpuSpec& gpu) const
{
    Result<Scenario> valid = checked();
    if (!valid)
        return valid.error();
    GpuState& state = stateFor(gpu);
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        if (state.observations)
            return *state.observations;
    }

    // The fitting set merges both routing modes (the paper fits one
    // (C2, C3, C4) triple over the dense + sparse sweeps), whatever
    // mode the scenario itself plans for. The grid itself is owned by
    // the simulator (sweepConfigs) so the perf bench times the exact
    // same workload.
    const std::vector<RunConfig> jobs = state.sim.sweepConfigs(
        scenario_.medianSeqLen, scenario_.lengthSigma);
    // A mode absent from the grid did not fit at batch 1 — derive the
    // warning from the jobs themselves so fit logic lives only in
    // sweepConfigs.
    for (bool sparse : {false, true}) {
        const bool present = std::any_of(
            jobs.begin(), jobs.end(),
            [sparse](const RunConfig& c) { return c.sparse == sparse; });
        if (!present)
            warn(strCat("Planner::throughputObservations: ",
                        scenario_.model.name, " does not fit on ",
                        gpu.name, sparse ? " (sparse)" : " (dense)"));
    }
    if (jobs.empty())
        return Error{ErrorCode::DoesNotFit,
                     strCat(scenario_.model.name,
                            " fits on no configuration of ", gpu.name)};

    // Resolve the whole grid against the step cache in one pass under
    // the shard lock: cached jobs capture their futures (hits), missing
    // jobs insert *promised* entries (misses, counted once each). The
    // vectorized sweep below then simulates exactly the missing set and
    // fulfills the promises — per-entry once-semantics, cache
    // population, and `stepsSimulated == stepCacheMisses` all hold
    // exactly as they would under a per-config profileAt() loop, but
    // the misses run as one `profileSweep` pass over each plan shape.
    std::vector<std::shared_future<StepProfile>> futures(jobs.size());
    std::vector<std::size_t> missing;
    std::vector<std::promise<StepProfile>> promises;
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const std::string key = GpuState::stepKey(jobs[i]);
            if (std::shared_future<StepProfile>* cached =
                    state.steps.get(key)) {
                ++step_hits_;
                if (shared_hits_)
                    shared_hits_->inc();
                futures[i] = *cached;
            } else {
                ++step_misses_;
                if (shared_misses_)
                    shared_misses_->inc();
                promises.emplace_back();
                futures[i] = promises.back().get_future().share();
                state.steps.put(key, futures[i]);
                missing.push_back(i);
            }
        }
    }
    if (!missing.empty()) {
        std::vector<RunConfig> miss_jobs;
        miss_jobs.reserve(missing.size());
        for (std::size_t idx : missing)
            miss_jobs.push_back(jobs[idx]);
        std::vector<StepProfile> profiles =
            state.sim.profileSweep(miss_jobs);
        for (std::size_t k = 0; k < profiles.size(); ++k)
            promises[k].set_value(std::move(profiles[k]));
    }

    std::vector<ThroughputObservation> out(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        // A hit's future may still be in flight (its owner simulates
        // outside the shard lock); get() waits exactly like the old
        // per-point path did.
        const StepProfile& profile = futures[i].get();
        ThroughputObservation obs;
        obs.batchSize = static_cast<double>(jobs[i].batchSize);
        obs.sparsity = scenario_.model.sparsity(jobs[i].sparse);
        obs.qps = profile.throughputQps;
        out[i] = obs;
    }

    std::lock_guard<std::mutex> lock(state.mutex);
    if (!state.observations)
        state.observations = std::move(out);
    return *state.observations;
}

Result<ThroughputFit>
Planner::fitThroughput(const GpuSpec& gpu) const
{
    GpuState& state = stateFor(gpu);
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        if (state.fit)
            return *state.fit;
    }
    Result<std::vector<ThroughputObservation>> obs =
        throughputObservations(gpu);
    if (!obs)
        return obs.error();
    if (obs.value().size() < 3)
        return Error{ErrorCode::DoesNotFit,
                     strCat("Planner::fitThroughput: only ",
                            obs.value().size(),
                            " sweep points on ", gpu.name,
                            "; Eq. 2 needs at least 3")};
    ThroughputFit fit{ThroughputModel::fit(obs.value()), obs.value(),
                      0.0};
    fit.rmse = fit.model.rmse(fit.observations);

    std::lock_guard<std::mutex> lock(state.mutex);
    if (!state.fit)
        state.fit = std::move(fit);
    return *state.fit;
}

Result<CostEstimate>
Planner::cost(const GpuSpec& gpu) const
{
    Result<double> qps = throughput(gpu);
    if (!qps)
        return qps.error();
    return estimator_.tryEstimate(gpu.name, qps.value(),
                                  scenario_.numQueries,
                                  scenario_.epochs);
}

Result<std::vector<CostRow>>
Planner::costTable(const std::vector<GpuSpec>& gpus) const
{
    Result<Scenario> valid = checked();
    if (!valid)
        return valid.error();
    if (gpus.empty())
        return Error{ErrorCode::EmptySweep,
                     "Planner::costTable: empty GPU list"};

    std::vector<CostRow> rows;
    for (const GpuSpec& gpu : gpus) {
        if (!catalog_.has(gpu.name))
            continue;  // No price -> no row (paper's CUDO list).
        Result<int> mbs = maxBatch(gpu);
        if (!mbs)
            continue;  // Does not fit.
        Result<CostEstimate> est = cost(gpu);
        if (!est)
            continue;
        rows.push_back(CostRow{gpu.name,
                               gpu.memGB,
                               mbs.value(),
                               est.value().throughputQps,
                               est.value().dollarsPerHour,
                               est.value().totalDollars});
    }
    if (rows.empty())
        return Error{ErrorCode::NoViablePlan,
                     strCat("Planner::costTable: no GPU in the catalog "
                            "fits ",
                            scenario_.model.name)};
    return rows;
}

Result<CostRow>
Planner::cheapestPlan(const std::vector<GpuSpec>& gpus) const
{
    Result<std::vector<CostRow>> rows = costTable(gpus);
    if (!rows)
        return rows.error();
    const CostRow* best = nullptr;
    for (const CostRow& row : rows.value())
        if (best == nullptr || row.totalDollars < best->totalDollars)
            best = &row;
    return *best;
}

Result<std::vector<BatchSizeObservation>>
Planner::batchSizeSweep(const std::vector<GpuSpec>& gpus,
                        const std::vector<std::size_t>& seq_lens) const
{
    Result<Scenario> valid = checked();
    if (!valid)
        return valid.error();
    if (gpus.empty() || seq_lens.empty())
        return Error{ErrorCode::EmptySweep,
                     "Planner::batchSizeSweep: empty sweep"};

    // Pure memory-model arithmetic, in GPU-major order.
    const double model_mem = scenario_.model.weightMemoryBytes() / 1e9;
    std::vector<BatchSizeObservation> out;
    out.reserve(gpus.size() * seq_lens.size() * 2);
    for (const GpuSpec& gpu : gpus) {
        for (std::size_t seq : seq_lens) {
            for (bool sparse : {false, true}) {
                BatchSizeObservation obs;
                obs.gpuMemGB = gpu.memGB;
                obs.modelMemGB = model_mem;
                obs.seqLen = static_cast<double>(seq);
                obs.sparsity = scenario_.model.sparsity(sparse);
                obs.maxBatch = MemoryModel::maxBatchSize(
                    scenario_.model, gpu, seq, sparse);
                out.push_back(obs);
            }
        }
    }
    return out;
}

Result<BatchSizeFit>
Planner::fitBatchSize(const std::vector<GpuSpec>& gpus,
                      const std::vector<std::size_t>& seq_lens) const
{
    Result<std::vector<BatchSizeObservation>> data =
        batchSizeSweep(gpus, seq_lens);
    if (!data)
        return data.error();
    BatchSizeFit fit{MaxBatchModel::fit(data.value()), data.value(), 0.0};
    fit.rmse = fit.model.rmse(fit.observations);
    return fit;
}

PlannerStats
Planner::stats() const
{
    // Counters are monotonic; clamped subtraction keeps a snapshot
    // that raced a concurrent resetStats() at zero instead of wrapping.
    const auto since = [](std::uint64_t now, std::uint64_t base) {
        return now > base ? now - base : 0;
    };
    PlannerStats out;
    out.stepCacheHits = since(step_hits_.load(), hits_base_.load());
    out.stepCacheMisses =
        since(step_misses_.load(), misses_base_.load());
    std::uint64_t simulated = 0;
    std::uint64_t evicted = 0;
    {
        std::lock_guard<std::mutex> lock(registry_mutex_);
        for (const auto& [key, state] : states_) {
            simulated += state->sim.stepsSimulated();
            // The shard lock, not registry_mutex_, guards the step
            // cache — take it briefly for a coherent eviction count.
            std::lock_guard<std::mutex> shard(state->mutex);
            evicted += state->steps.evictions();
        }
    }
    out.stepsSimulated = since(simulated, steps_base_.load());
    out.stepCacheEvictions = since(evicted, evictions_base_.load());
    return out;
}

void
Planner::resetStats()
{
    hits_base_.store(step_hits_.load());
    misses_base_.store(step_misses_.load());
    std::uint64_t simulated = 0;
    std::uint64_t evicted = 0;
    {
        std::lock_guard<std::mutex> lock(registry_mutex_);
        for (const auto& [key, state] : states_) {
            simulated += state->sim.stepsSimulated();
            std::lock_guard<std::mutex> shard(state->mutex);
            evicted += state->steps.evictions();
        }
    }
    steps_base_.store(simulated);
    evictions_base_.store(evicted);
}

}  // namespace ftsim
