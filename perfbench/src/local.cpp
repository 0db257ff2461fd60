/**
 * @file
 * chat_churn and rag_longdoc: seeded traces driven through
 * SessionCache + ShardStore + BatchScheduler + AttentionEngine from a
 * single driver thread.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "attention/backend.hpp"
#include "engine/engine.hpp"
#include "probe.hpp"
#include "serving/batch_scheduler.hpp"
#include "serving/session_cache.hpp"
#include "serving/shard_store.hpp"
#include "serving/sharded_backend.hpp"
#include "trace/generator.hpp"
#include "trace/replay.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace a3;

/** Fixed shape of one local workload. */
struct LocalSpec
{
    EngineConfig engine;
    std::size_t dims = 32;
    std::size_t shardRows = 128;
    /** Cache budget in mid-size (512-row) sessions; 0 = unlimited. */
    std::size_t budgetSessions = 0;
    /** Bind every session during set-up; phases only send queries. */
    bool preBind = false;
    std::size_t maxBatch = 32;
    /** Closed phase: queries outstanding before each drain. */
    std::size_t window = 32;
    /** Open phase arrival rate, about half the closed capacity. */
    double openRate = 0.0;
    double latencyLimitMs = 10.0;
    TraceConfig trace;
};

LocalSpec
chatChurn()
{
    LocalSpec s;
    s.engine.kind = EngineKind::ExactQuantized;
    s.engine.intBits = 4;
    s.engine.fracBits = 4;
    s.dims = 32;
    s.shardRows = 128;
    s.budgetSessions = 24;
    s.openRate = 800.0;
    TraceConfig &t = s.trace;
    t.sessionCount = 64;
    t.zipfExponent = 1.1;
    t.documentCount = 12;
    t.ragFraction = 0.6;
    t.appendEveryQueries = 8;
    t.appendRows = 32;
    t.maxContextRows = 768;
    t.contextRows = {{128, 0.6}, {384, 0.3}, {1024, 0.1}};
    return s;
}

LocalSpec
ragLongdoc()
{
    LocalSpec s;
    s.engine.kind = EngineKind::ApproxQuantized;
    s.engine.approx = ApproxConfig::conservative();
    s.engine.intBits = 3;
    s.engine.fracBits = 4;
    s.dims = 64;
    s.shardRows = 1024;
    s.preBind = true;
    s.openRate = 1000.0;
    TraceConfig &t = s.trace;
    t.sessionCount = 16;
    t.documentCount = 4;
    t.ragFraction = 1.0;
    t.maxContextRows = 4096;
    t.contextRows = {{4096, 1.0}};
    return s;
}

/** One content stream's rows, generated once at set-up. */
struct Content
{
    std::uint64_t seed = 0;
    Matrix key;
    Matrix value;
};

struct Session
{
    std::string id;
    std::shared_ptr<const Content> content;
    std::uint32_t rows = 0;
    SessionStyle style = SessionStyle::Rag;
    SessionHandle handle;
};

/** Everything a phase runs against; built fresh per phase. */
struct Deployment
{
    Trace trace;
    /** Query vector per event index (empty for binds/appends). */
    std::vector<Vector> queries;
    std::vector<Session> sessions;
    std::string spillDir;
    std::unique_ptr<AttentionEngine> engine;
    std::unique_ptr<ShardStore> store;
    std::unique_ptr<SessionCache> cache;
    std::unique_ptr<BatchScheduler> scheduler;

    Deployment() = default;
    Deployment(const Deployment &) = delete;
    Deployment &operator=(const Deployment &) = delete;
    ~Deployment()
    {
        scheduler.reset();
        cache.reset();
        store.reset();
        if (!spillDir.empty())
            removeTree(spillDir);
    }
};

/** Calls into SessionCache / BatchScheduler timed in band. */
struct BandStats
{
    Samples bindFresh;
    Samples bindShared;
    Samples bindRestored;
    double bindBusy = 0.0;
    double appendBusy = 0.0;
    double submitBusy = 0.0;
    double drainBusy = 0.0;
    Samples drainWall;
    std::uint64_t drains = 0;
    std::uint64_t drained = 0;
};

/** A served closed-phase result kept for the output check. */
struct CheckSample
{
    std::shared_ptr<const Content> content;
    std::uint32_t rows = 0;
    std::size_t event = 0;
    AttentionResult result;
};

/** One served query of a batch kept for the probe phase. */
struct ProbeItem
{
    std::shared_ptr<const Content> content;
    std::uint32_t rows = 0;
    std::uint32_t session = 0;
    std::size_t event = 0;
    std::uint64_t ticket = 0;
};

struct ProbeBatch
{
    double drainSeconds = 0.0;
    std::vector<ProbeItem> items;
};

constexpr std::size_t kMaxCheckSamples = 48;
constexpr std::size_t kMaxProbeBatches = 24;
constexpr std::uint64_t kCheckSalt = 0x6a09e667f3bcc908ull;
constexpr std::uint64_t kProbeSalt = 0xbb67ae8584caa73bull;
/** Request ids of binds/appends live above every ticket. */
constexpr std::uint64_t kOpRequestBase = 1ull << 40;

std::unique_ptr<Deployment>
setUp(const LocalSpec &spec, const TraceConfig &traceConfig,
      std::uint64_t seed, std::size_t lanes, const std::string &spillDir)
{
    auto d = std::make_unique<Deployment>();
    d->trace = generateTrace(traceConfig);
    reseedPayloads(d->trace, seed);

    // Client-side content is generated here, not in the timed phases:
    // every stream up to the largest size any session grows it to.
    std::vector<std::uint32_t> finalRows(d->trace.sessionCount, 0);
    std::vector<std::uint64_t> seeds(d->trace.sessionCount, 0);
    std::map<std::uint64_t, std::uint32_t> streamRows;
    d->queries.resize(d->trace.events.size());
    for (std::size_t i = 0; i < d->trace.events.size(); ++i) {
        const TraceEvent &ev = d->trace.events[i];
        switch (ev.kind) {
        case TraceEventKind::Bind:
            seeds[ev.session] = ev.payloadSeed;
            finalRows[ev.session] = ev.rows;
            break;
        case TraceEventKind::Append:
            finalRows[ev.session] += ev.rows;
            break;
        case TraceEventKind::Query:
            d->queries[i] = traceQueryVector(ev.payloadSeed, spec.dims);
            break;
        }
        if (ev.kind != TraceEventKind::Query) {
            std::uint32_t &rows = streamRows[seeds[ev.session]];
            rows = std::max(rows, finalRows[ev.session]);
        }
    }
    std::map<std::uint64_t, std::shared_ptr<const Content>> contents;
    for (const auto &[seed, rows] : streamRows) {
        auto content = std::make_shared<Content>();
        content->seed = seed;
        content->key = traceContentMatrix(seed, rows, spec.dims);
        content->value = traceValueMatrix(seed, rows, spec.dims);
        contents[seed] = std::move(content);
    }
    d->sessions.resize(d->trace.sessionCount);
    for (std::uint32_t s = 0; s < d->trace.sessionCount; ++s) {
        d->sessions[s].id = "s" + std::to_string(s);
        if (finalRows[s] > 0)
            d->sessions[s].content = contents.at(seeds[s]);
    }

    d->spillDir = spillDir;
    makeDirs(spillDir);
    ShardStoreConfig storeConfig;
    storeConfig.spillDir = spillDir;
    storeConfig.spillBudgetBytes = 64ull << 20;
    d->store = std::make_unique<ShardStore>(storeConfig);

    SessionCacheConfig cacheConfig;
    cacheConfig.engine = spec.engine;
    cacheConfig.shardRows = spec.shardRows;
    cacheConfig.store = d->store.get();
    if (spec.budgetSessions > 0) {
        const std::unique_ptr<AttentionBackend> probe = makeBackend(
            spec.engine, traceContentMatrix(1, 512, spec.dims),
            traceValueMatrix(1, 512, spec.dims));
        cacheConfig.byteBudget = probe->memoryBytes() * spec.budgetSessions;
    }
    d->cache = std::make_unique<SessionCache>(cacheConfig);
    d->engine = std::make_unique<AttentionEngine>(lanes);
    AdmissionPolicy policy;
    policy.maxQueueDepth = 160;
    policy.maxPendingPerSession = 48;
    d->scheduler = std::make_unique<BatchScheduler>(
        *d->engine, *d->cache, spec.maxBatch, policy);

    if (spec.preBind) {
        for (const TraceEvent &ev : d->trace.events) {
            if (ev.kind != TraceEventKind::Bind)
                continue;
            Session &session = d->sessions[ev.session];
            session.rows = ev.rows;
            session.style = ev.style;
            session.handle =
                d->cache
                    ->bindSession(session.id,
                                  session.content->key.rowSlice(0, ev.rows),
                                  session.content->value.rowSlice(0, ev.rows))
                    .handle;
        }
    }
    return d;
}

/** Drives one phase's event stream through a deployment. */
class Phase
{
  public:
    Phase(Deployment &d, const LocalSpec &spec, Tracer &tracer,
          std::uint64_t seed, bool closed)
        : d_(d), spec_(spec), tracer_(tracer), seed_(seed),
          closed_(closed)
    {
        std::size_t queries = 0;
        for (const TraceEvent &ev : d.trace.events)
            queries += ev.kind == TraceEventKind::Query;
        sampleEvery_ = std::max<std::size_t>(1, queries / kMaxCheckSamples);
    }

    /** Closed loop: fixed window, drains at fixed points. */
    void runClosed()
    {
        const double start = nowSeconds();
        for (std::size_t i = 0; i < d_.trace.events.size(); ++i) {
            handle(i, nowSeconds());
            if (d_.scheduler->pending() >= spec_.window)
                drain();
        }
        while (d_.scheduler->pending() > 0)
            drain();
        stats_.wallSeconds = nowSeconds() - start;
        finish();
    }

    /** Open loop: every event is due at its trace time. */
    void runOpen()
    {
        const double t0 = nowSeconds() + 0.005;
        t0_ = t0;
        const std::vector<TraceEvent> &events = d_.trace.events;
        std::size_t next = 0;
        while (next < events.size() || d_.scheduler->pending() > 0) {
            while (next < events.size()) {
                const double due = t0 + events[next].timeSeconds;
                const double now = nowSeconds();
                if (due > now)
                    break;
                stats_.generatorLag.addSeconds(now - due);
                handle(next, due);
                ++next;
            }
            if (d_.scheduler->pending() > 0)
                drain();
            else if (next < events.size())
                waitUntil(t0 + events[next].timeSeconds);
        }
        stats_.wallSeconds = nowSeconds() - t0;
        finish();
    }

    PhaseStats &stats() { return stats_; }
    BandStats &band() { return band_; }
    std::vector<CheckSample> &samples() { return samples_; }
    std::vector<ProbeBatch> &probeBatches() { return probeBatches_; }

  private:
    struct Inflight
    {
        double due = 0.0;
        std::uint32_t session = 0;
        std::size_t event = 0;
    };

    void bind(Session &session, std::uint64_t request)
    {
        const std::uint32_t id = tracer_.open(
            "SessionCache::bindSession", request, 0, Track::Driver);
        BindOutcome outcome = d_.cache->bindSession(
            session.id, session.content->key.rowSlice(0, session.rows),
            session.content->value.rowSlice(0, session.rows));
        tracer_.close(id);
        session.handle = outcome.handle;
        if (tracer_.enabled()) {
            const double s = tracer_.seconds(id);
            band_.bindBusy += s;
            if (outcome.status == BindStatus::BoundShared)
                band_.bindShared.addSeconds(s);
            else if (outcome.status == BindStatus::BoundRestored)
                band_.bindRestored.addSeconds(s);
            else if (outcome.status == BindStatus::BoundFresh)
                band_.bindFresh.addSeconds(s);
        }
    }

    /** A live handle for session `s`, re-binding after eviction. */
    const SessionHandle &ensureBound(std::uint32_t s, std::uint64_t request)
    {
        Session &session = d_.sessions[s];
        if (session.handle.backend() == nullptr) {
            session.handle = d_.cache->lookupSession(session.id);
            if (session.handle.backend() == nullptr) {
                bind(session, request);
                ++stats_.rebinds;
            }
        }
        return session.handle;
    }

    void handle(std::size_t index, double due)
    {
        const TraceEvent &ev = d_.trace.events[index];
        Session &session = d_.sessions[ev.session];
        const std::uint64_t opRequest = kOpRequestBase + index;
        switch (ev.kind) {
        case TraceEventKind::Bind:
            if (spec_.preBind)
                return;
            ++stats_.binds;
            session.rows = ev.rows;
            session.style = ev.style;
            bind(session, opRequest);
            if (!closed_)
                stats_.bindLatency.addSeconds(nowSeconds() - due);
            return;
        case TraceEventKind::Append: {
            ++stats_.appends;
            const SessionHandle &handle = ensureBound(ev.session, opRequest);
            const std::uint32_t first = session.rows;
            session.rows += ev.rows;
            const std::uint32_t id = tracer_.open(
                "SessionCache::appendSession", opRequest, 0, Track::Driver);
            const AppendOutcome appended = d_.cache->appendSession(
                handle, session.content->key.rowSlice(first, ev.rows),
                session.content->value.rowSlice(first, ev.rows));
            tracer_.close(id);
            band_.appendBusy += tracer_.seconds(id);
            if (!appended.ok()) {
                // Evicted between ensureBound and the append: re-bind at
                // the grown size, which keeps the content stream whole.
                bind(session, opRequest);
                ++stats_.rebinds;
            }
            if (!closed_)
                stats_.appendLatency.addSeconds(nowSeconds() - due);
            return;
        }
        case TraceEventKind::Query:
            break;
        }
        ++stats_.queriesSent;
        const SessionHandle &handle = ensureBound(ev.session, opRequest);
        SubmitOptions options;
        options.requestClass = sessionStyleName(session.style);
        const std::uint32_t id = tracer_.open("BatchScheduler::submit",
                                              opRequest, 0, Track::Driver);
        const AdmissionOutcome outcome =
            d_.scheduler->submit(handle, d_.queries[index], options);
        tracer_.close(id);
        band_.submitBusy += tracer_.seconds(id);
        if (!outcome.admitted()) {
            ++stats_.shed;
            tracer_.query(opRequest, due, nowSeconds(), "shed");
            return;
        }
        inflight_.emplace(outcome.ticket, Inflight{due, ev.session, index});
    }

    void drain()
    {
        const std::uint32_t id =
            tracer_.open("BatchScheduler::drain", 0, 0, Track::Driver);
        std::vector<ServingResult> done = d_.scheduler->drain();
        tracer_.close(id);
        const double now = nowSeconds();
        const double seconds = tracer_.seconds(id);
        band_.drainBusy += seconds;
        band_.drainWall.addSeconds(seconds);
        ++band_.drains;
        band_.drained += done.size();

        ProbeBatch batch;
        const bool probe =
            closed_ && tracer_.enabled() &&
            probeBatches_.size() < kMaxProbeBatches &&
            fnvMix(fnvMix(kFnvOffset, seed_ ^ kProbeSalt), band_.drains) %
                    4 ==
                0;
        batch.drainSeconds = seconds;

        for (ServingResult &r : done) {
            const auto it = inflight_.find(r.ticket);
            if (it == inflight_.end())
                fatal("perfbench: completion for an unknown ticket");
            const Inflight info = it->second;
            inflight_.erase(it);
            if (!r.ok()) {
                // Stranded by eviction between submit and drain (or shed
                // at drain): counted, never re-answered.
                ++stats_.failed;
                tracer_.query(r.ticket, info.due, now,
                              servingErrorName(r.error));
                continue;
            }
            ++stats_.served;
            const double latency = now - info.due;
            tracer_.query(r.ticket, info.due, now, "served");
            if (!closed_) {
                stats_.addQueryLatency(latency, info.due - t0_,
                                       d_.trace.durationSeconds);
                stats_.withinLimit += latency * 1e3 <= spec_.latencyLimitMs;
                continue;
            }
            ticketHashes_.emplace_back(
                r.ticket, hashAttentionResult(kFnvOffset, r.result));
            const Session &session = d_.sessions[info.session];
            if (samples_.size() < kMaxCheckSamples &&
                fnvMix(fnvMix(kFnvOffset, seed_ ^ kCheckSalt), r.ticket) %
                        sampleEvery_ ==
                    0)
                samples_.push_back({session.content, session.rows,
                                    info.event, std::move(r.result)});
            if (probe)
                batch.items.push_back({session.content, session.rows,
                                       info.session, info.event, r.ticket});
        }
        if (probe && !batch.items.empty())
            probeBatches_.push_back(std::move(batch));
    }

    void finish()
    {
        if (!inflight_.empty())
            fatal("perfbench: queries left in flight after the last drain");
        std::sort(ticketHashes_.begin(), ticketHashes_.end());
        stats_.resultHash = kFnvOffset;
        for (const auto &entry : ticketHashes_)
            stats_.resultHash = fnvMix(stats_.resultHash, entry.second);
    }

    Deployment &d_;
    const LocalSpec &spec_;
    Tracer &tracer_;
    std::uint64_t seed_;
    bool closed_;
    std::size_t sampleEvery_ = 1;
    /** Open phase: wall time of trace time 0. */
    double t0_ = 0.0;
    PhaseStats stats_;
    BandStats band_;
    std::unordered_map<std::uint64_t, Inflight> inflight_;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ticketHashes_;
    std::vector<CheckSample> samples_;
    std::vector<ProbeBatch> probeBatches_;
};

/**
 * Fresh backends of the workload's kind and shard layout, bound
 * outside the phase's cache and store (a private store with no spill
 * tier gives the same prefix-aligned layout).
 */
class FreshBackends
{
  public:
    explicit FreshBackends(const LocalSpec &spec) : spec_(spec) {}

    const AttentionBackend &get(const Content &content, std::uint32_t rows)
    {
        auto &slot = backends_[{content.seed, rows}];
        if (slot == nullptr) {
            ShardedConfig config;
            config.shardRows = spec_.shardRows;
            config.store = &store_;
            slot = makeShardedBackend(spec_.engine,
                                      content.key.rowSlice(0, rows),
                                      content.value.rowSlice(0, rows),
                                      config);
        }
        return *slot;
    }

  private:
    const LocalSpec &spec_;
    ShardStore store_;
    std::map<std::pair<std::uint64_t, std::uint32_t>,
             std::unique_ptr<AttentionBackend>>
        backends_;
};

/** Bit-compare the sampled results; returns the mismatch count. */
std::size_t
checkOutputs(const LocalSpec &spec, const Deployment &d,
             std::vector<CheckSample> &samples, bool tamper)
{
    if (tamper && !samples.empty())
        samples.front().result.output.front() += 1.0f;
    FreshBackends fresh(spec);
    std::size_t mismatches = 0;
    for (const CheckSample &s : samples) {
        const AttentionResult expected =
            fresh.get(*s.content, s.rows).run(d.queries[s.event]);
        mismatches += !bitIdentical(expected, s.result);
    }
    return mismatches;
}

/** Re-run sampled batches layer by layer (see probe.hpp). */
ProbeTotals
probe(const LocalSpec &spec, const Deployment &d,
      const std::vector<ProbeBatch> &batches, std::size_t lanes,
      Tracer &tracer)
{
    AttentionEngine engine(lanes);
    FreshBackends fresh(spec);
    ModuleProbe modules;
    ProbeTotals totals;
    std::vector<std::vector<AttentionResult>> results;
    std::vector<PartialResult> partials;
    AttentionResult out;
    for (const ProbeBatch &batch : batches) {
        // One request group per session, in first-served order, like
        // the scheduler's coalescing.
        std::vector<AttentionRequestGroup> groups;
        std::vector<std::vector<const ProbeItem *>> members;
        std::map<std::uint32_t, std::size_t> groupOf;
        for (const ProbeItem &item : batch.items) {
            const auto [it, added] =
                groupOf.emplace(item.session, groups.size());
            if (added) {
                groups.push_back(
                    {&fresh.get(*item.content, item.rows), {}});
                members.emplace_back();
            }
            groups[it->second].queries.push_back(d.queries[item.event]);
            members[it->second].push_back(&item);
        }

        const ScopedSpan root(tracer, "probe.batch", 0, 0, Track::Probe);
        BatchLayers layers;
        layers.band = batch.drainSeconds;
        layers.pass = timed(tracer, "AttentionEngine::runGroupsInto", 0,
                            root.id(),
                            [&] { engine.runGroupsInto(groups, results); });

        double merge = 0.0, search = 0.0, post = 0.0, datapath = 0.0;
        for (std::size_t g = 0; g < groups.size(); ++g) {
            const AttentionBackend &backend = *groups[g].backend;
            const auto &sharded =
                static_cast<const ShardedBackend &>(backend);
            for (std::size_t q = 0; q < groups[g].queries.size(); ++q) {
                const Vector &query = groups[g].queries[q];
                const std::uint64_t request = members[g][q]->ticket;
                const std::size_t units = backend.workUnitCount();
                if (units > 1) {
                    partials.resize(units);
                    for (std::size_t u = 0; u < units; ++u) {
                        const double s = timed(
                            tracer, "ShardedBackend::runUnitPartialInto",
                            request, root.id(), [&] {
                                backend.runUnitPartialInto(u, query,
                                                           partials[u]);
                            });
                        totals.unitSeconds += s;
                        layers.serial += s;
                        ++totals.units;
                    }
                    const double s =
                        timed(tracer, "ShardedBackend::mergeUnitsInto",
                              request, root.id(),
                              [&] { backend.mergeUnitsInto(partials, out); });
                    totals.mergeSeconds += s;
                    merge += s;
                    layers.serial += s;
                    ++totals.merges;
                } else {
                    layers.serial +=
                        timed(tracer, "AttentionBackend::runInto", request,
                              root.id(), [&] { backend.runInto(query, out); });
                }
                const ScopedSpan moduleSpan(tracer, "probe.modules",
                                            request, root.id(),
                                            Track::Probe);
                for (std::size_t s = 0; s < sharded.shardCount(); ++s)
                    modules.run(sharded.shard(s), query, tracer,
                                moduleSpan.id(), request, totals, search,
                                post, datapath);
                ++totals.queries;
            }
        }
        layers.layers = {{"candidate_search", search},
                         {"post_scoring", post},
                         {"datapath", datapath},
                         {"merge", merge}};
        attribute(layers, totals);
        ++totals.batches;
    }
    return totals;
}

LocalSpec
specFor(const std::string &name)
{
    return name == "chat_churn" ? chatChurn() : ragLongdoc();
}

/** Trace config of one phase. */
TraceConfig
traceFor(const LocalSpec &spec)
{
    TraceConfig config = spec.trace;
    config.seed = kShapeSeed;
    config.durationSeconds = kTraceSeconds;
    config.arrivalsPerSecond = spec.openRate;
    return config;
}

}  // namespace

std::size_t
localLanes()
{
    const std::size_t hw =
        std::max(1u, std::thread::hardware_concurrency());
    return std::clamp<std::size_t>(hw - 1, 1, 3);
}

bool
isLocalWorkload(const std::string &name)
{
    return name == "chat_churn" || name == "rag_longdoc";
}

RunOutcome
runLocal(const Options &options)
{
    const LocalSpec spec = specFor(options.workload);
    const std::size_t lanes = localLanes();
    RunOutcome outcome;
    Tracer off(false);
    int deployments = 0;
    auto deploy = [&](std::vector<double> *setups) {
        const double start = nowSeconds();
        auto d = setUp(spec, traceFor(spec), options.seed,
                       lanes,
                       options.workDir + "/spill" +
                           std::to_string(deployments++));
        if (setups != nullptr)
            setups->push_back(nowSeconds() - start);
        return d;
    };

    if (!options.trace) {
        // Each round runs the open phase, then the closed phase on the
        // same events; `closed` keeps the first closed phase, which the
        // output check samples and later rounds must repeat exactly.
        std::vector<double> setups;
        deploy(&setups);
        PhaseStats open, closed, closedAll;
        std::size_t checked = 0, mismatches = 0;
        bool repeatable = true;
        std::vector<double> capacities;
        for (std::size_t round = 0; round < roundsFor(options.seconds);
             ++round) {
            {
                auto d = deploy(&setups);
                Phase phase(*d, spec, off, options.seed, false);
                phase.runOpen();
                open.merge(phase.stats());
            }
            auto d = deploy(&setups);
            Phase phase(*d, spec, off, options.seed, true);
            phase.runClosed();
            const PhaseStats &stats = phase.stats();
            capacities.push_back(static_cast<double>(stats.served) /
                                 stats.wallSeconds);
            closedAll.merge(stats);
            if (round > 0) {
                repeatable = repeatable &&
                             stats.resultHash == closed.resultHash &&
                             stats.failed == closed.failed;
                continue;
            }
            closed = stats;
            checked = phase.samples().size();
            mismatches =
                checkOutputs(spec, *d, phase.samples(), options.tamper);
        }

        const double lag = open.generatorLag.percentile(0.99);
        outcome.correct = mismatches == 0 && checked > 0 && repeatable;
        outcome.attempted = open.attempted() + closedAll.attempted();
        outcome.failed =
            open.failed + open.shed + closedAll.failed + closedAll.shed;
        outcome.endToEnd =
            endToEndMetrics(capacities, open, closed, setups, peakRssMb(0));
        Json check;
        check.integer("samples", checked)
            .integer("mismatches", mismatches)
            .boolean("closed_phase_repeatable", repeatable);
        Json diagnostics;
        diagnostics.number("query_p99_ms", open.queryLatency.percentile(0.99))
            .number("bind_p50_ms", open.bindLatency.percentile(0.50))
            .number("bind_p95_ms", open.bindLatency.percentile(0.95))
            .number("append_p50_ms", open.appendLatency.percentile(0.50))
            .number("failed_rate", failedRate(closed))
            .number("generator_lag_p99_ms", lag)
            .number("open_rate_qps", spec.openRate)
            .raw("setup_samples_s", numberList(setups))
            .raw("capacity_samples_qps", numberList(capacities));
        outcome.report.object("provenance", provenanceJson(lanes, 0))
            .boolean("valid", lag <= spec.latencyLimitMs)
            .object("open", phaseJson(open, spec.latencyLimitMs))
            .object("closed", phaseJson(closed, spec.latencyLimitMs))
            .text("result_hash", std::to_string(closed.resultHash))
            .object("output_check", check)
            .object("diagnostics", diagnostics);
        return outcome;
    }

    // Traced run: a traced open phase, the closed phase untraced and
    // traced (their capacity ratio is the tracing overhead), then the
    // probe over batches of the traced closed phase.
    Tracer tracer(true);
    PhaseStats open;
    {
        auto d = deploy(nullptr);
        Phase phase(*d, spec, tracer, options.seed, false);
        phase.runOpen();
        open = std::move(phase.stats());
    }
    double untracedQps = 0.0;
    {
        auto d = deploy(nullptr);
        Phase phase(*d, spec, off, options.seed, true);
        phase.runClosed();
        untracedQps = static_cast<double>(phase.stats().served) /
                      phase.stats().wallSeconds;
    }
    auto d = deploy(nullptr);
    Phase phase(*d, spec, tracer, options.seed, true);
    phase.runClosed();
    const PhaseStats &closed = phase.stats();
    const BandStats &band = phase.band();
    const double tracedQps =
        static_cast<double>(closed.served) / closed.wallSeconds;
    const std::size_t checked = phase.samples().size();
    const std::size_t mismatches =
        checkOutputs(spec, *d, phase.samples(), options.tamper);
    const ProbeTotals totals =
        probe(spec, *d, phase.probeBatches(), lanes, tracer);

    const SessionCacheStats cache = d->cache->stats();
    const ShardStoreStats store = d->store->stats();
    const BatchSchedulerStats sched = d->scheduler->stats();
    const double lookups = static_cast<double>(cache.hits + cache.misses);
    const double acquires = static_cast<double>(
        store.liveHits + store.spillRestores + store.coldBinds);
    const double drains = static_cast<double>(std::max<std::uint64_t>(
        1, band.drains));

    LayerValues m;
    m["session_cache.bind_fresh_p50_ms"] = band.bindFresh.percentile(0.5);
    m["session_cache.bind_shared_p50_ms"] = band.bindShared.percentile(0.5);
    m["session_cache.bind_restored_p50_ms"] =
        band.bindRestored.percentile(0.5);
    m["session_cache.bind_busy_s"] = band.bindBusy;
    m["session_cache.append_busy_s"] = band.appendBusy;
    m["session_cache.evictions"] = static_cast<double>(cache.evictions);
    m["session_cache.rebinds"] = static_cast<double>(closed.rebinds);
    m["session_cache.hit_rate"] =
        lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0;
    m["shard_store.live_hits"] = static_cast<double>(store.liveHits);
    m["shard_store.spill_restores"] = static_cast<double>(store.spillRestores);
    m["shard_store.cold_binds"] = static_cast<double>(store.coldBinds);
    m["shard_store.hit_rate"] =
        acquires > 0
            ? static_cast<double>(store.liveHits + store.spillRestores) /
                  acquires
            : 0.0;
    m["shard_store.spill_rejects"] = static_cast<double>(store.spillRejects);
    m["batch_scheduler.submit_busy_s"] = band.submitBusy;
    m["batch_scheduler.drain_busy_s"] = band.drainBusy;
    m["batch_scheduler.drains"] = static_cast<double>(band.drains);
    m["batch_scheduler.batch_size_mean"] =
        static_cast<double>(band.drained) / drains;
    m["batch_scheduler.queue_wait_p95_ms"] = sched.queueWaitP95 * 1e3;
    m["batch_scheduler.engine_pass_p50_ms"] = sched.drainServiceP50 * 1e3;
    m["batch_scheduler.self_p50_ms"] =
        band.drainWall.percentile(0.5) - sched.drainServiceP50 * 1e3;
    m["batch_scheduler.unbound_failures"] = static_cast<double>(closed.failed);
    m["batch_scheduler.rejected"] = static_cast<double>(sched.rejected());
    addEngineMetrics(totals, lanes,
                     sched.answered == 0
                         ? 0.0
                         : static_cast<double>(sched.workUnits) /
                               static_cast<double>(sched.answered),
                     m);
    m["driver.generator_lag_p99_ms"] = open.generatorLag.percentile(0.99);
    m["driver.tracing_overhead"] = untracedQps / tracedQps - 1.0;
    m["driver.layer_coverage"] = layerCoverage(totals);
    outcome.perLayer = perLayerMetrics(m);

    outcome.correct = mismatches == 0 && checked > 0;
    outcome.attempted = open.attempted() + closed.attempted();
    outcome.failed = open.failed + open.shed + closed.failed + closed.shed;
    Json check;
    check.integer("samples", checked).integer("mismatches", mismatches);
    Json probeInfo;
    probeInfo.integer("batches", totals.batches)
        .integer("queries", totals.queries)
        .object("drain_share", shareJson(totals));
    outcome.report.object("provenance", provenanceJson(lanes, 0))
        .object("open", phaseJson(open, spec.latencyLimitMs))
        .object("closed", phaseJson(closed, spec.latencyLimitMs))
        .text("result_hash", std::to_string(closed.resultHash))
        .object("output_check", check)
        .number("capacity_untraced_qps", untracedQps)
        .number("capacity_traced_qps", tracedQps)
        .object("probe", probeInfo);
    if (!options.traceOut.empty()) {
        if (!tracer.writeChrome(options.traceOut))
            fatal("perfbench: cannot write ", options.traceOut);
        outcome.report.text("trace_file", options.traceOut);
    }
    return outcome;
}

}  // namespace perfbench
