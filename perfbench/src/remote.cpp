/**
 * @file
 * remote_fanout: one long document whose shards live on shard_worker
 * processes. Queries go through AttentionEngine::runGroupsInto into a
 * RemoteShardCoordinator — the only workload that reaches net/ and
 * the coordinator's mutex.
 */

#include <algorithm>
#include <memory>

#include "attention/backend.hpp"
#include "engine/engine.hpp"
#include "net/frame.hpp"
#include "net/process.hpp"
#include "probe.hpp"
#include "serving/remote_coordinator.hpp"
#include "serving/remote_protocol.hpp"
#include "serving/sharded_backend.hpp"
#include "trace/generator.hpp"
#include "trace/replay.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace a3;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kLanes = 2;
constexpr std::size_t kRows = 4096;
constexpr std::size_t kDims = 64;
constexpr std::size_t kShardRows = 1024;
/** Closed phase: queries per engine pass. */
constexpr std::size_t kWindow = 16;
/** Open phase: most queries one pass takes from the backlog. */
constexpr std::size_t kMaxPass = 32;
constexpr double kOpenRate = 700.0;
constexpr double kLatencyLimitMs = 20.0;
constexpr std::size_t kMaxCheckSamples = 48;
constexpr std::size_t kMaxProbeBatches = 24;
constexpr std::uint64_t kCheckSalt = 0x3c6ef372fe94f82bull;
constexpr std::uint64_t kProbeSalt = 0xa54ff53a5f1d36f1ull;

EngineConfig
innerConfig()
{
    EngineConfig config;
    config.kind = EngineKind::ApproxQuantized;
    config.approx = ApproxConfig::conservative();
    config.intBits = 3;
    config.fracBits = 4;
    return config;
}

/** Workers, coordinator and engine; built fresh per phase. */
struct Deployment
{
    std::vector<Vector> queries;
    std::vector<double> due;
    /** Trace length: the open phase's span. */
    double seconds = 0.0;
    Matrix key;
    Matrix value;
    std::vector<ChildProcess> workers;
    std::unique_ptr<AttentionEngine> engine;
    std::unique_ptr<RemoteShardCoordinator> coordinator;
    std::string dir;

    Deployment() = default;
    Deployment(const Deployment &) = delete;
    Deployment &operator=(const Deployment &) = delete;
    ~Deployment()
    {
        // The coordinator sends Shutdown; the ChildProcess destructors
        // then reap (killing any worker that has not exited yet).
        coordinator.reset();
        workers.clear();
        removeTree(dir);
    }

    /** Driver plus worker peak RSS. */
    double peakRss() const
    {
        double total = peakRssMb(0);
        for (const ChildProcess &w : workers)
            total += peakRssMb(w.pid());
        return total;
    }
};

std::unique_ptr<Deployment>
setUp(const Options &options, const std::string &dir)
{
    auto d = std::make_unique<Deployment>();
    TraceConfig config;
    config.seed = kShapeSeed;
    config.durationSeconds = kTraceSeconds;
    config.arrivalsPerSecond = kOpenRate;
    config.sessionCount = 1;
    config.documentCount = 1;
    config.ragFraction = 1.0;
    config.maxContextRows = kRows;
    config.contextRows = {{static_cast<std::uint32_t>(kRows), 1.0}};
    Trace trace = generateTrace(config);
    reseedPayloads(trace, options.seed);
    d->seconds = trace.durationSeconds;
    std::uint64_t contentSeed = 0;
    for (const TraceEvent &ev : trace.events) {
        if (ev.kind == TraceEventKind::Bind)
            contentSeed = ev.payloadSeed;
        if (ev.kind != TraceEventKind::Query)
            continue;
        d->queries.push_back(traceQueryVector(ev.payloadSeed, kDims));
        d->due.push_back(ev.timeSeconds);
    }
    d->key = traceContentMatrix(contentSeed, kRows, kDims);
    d->value = traceValueMatrix(contentSeed, kRows, kDims);

    d->dir = dir;
    makeDirs(dir);
    std::vector<RemoteWorkerSpec> specs;
    d->workers.resize(kWorkers);
    for (std::size_t w = 0; w < kWorkers; ++w) {
        const std::string name = std::string("w").append(std::to_string(w));
        const std::string socket = dir + "/" + name + ".sock";
        const NetStatus status =
            d->workers[w].spawn(options.workerBin, {socket, name});
        if (!status.ok())
            fatal("perfbench: cannot spawn ", options.workerBin, ": ",
                  status.message);
        specs.push_back(unixWorkerSpec(name, socket, 10.0));
    }
    RemoteShardConfig remote;
    remote.shardRows = kShardRows;
    remote.replication = 1;
    remote.queryDeadlineSeconds = 1.0;
    d->coordinator = std::make_unique<RemoteShardCoordinator>(
        innerConfig(), d->key, d->value, std::move(specs), remote);
    for (std::size_t w = 0; w < kWorkers; ++w) {
        if (d->coordinator->workerHealth(w) != WorkerHealth::Healthy)
            fatal("perfbench: shard worker ", w, " did not come up");
    }
    d->engine = std::make_unique<AttentionEngine>(kLanes);
    return d;
}

struct CheckSample
{
    std::size_t query = 0;
    AttentionResult result;
};

struct ProbeBatch
{
    double bandSeconds = 0.0;
    std::size_t first = 0;
    std::size_t count = 0;
};

/** Drives one phase's queries through engine + coordinator. */
class Phase
{
  public:
    Phase(Deployment &d, Tracer &tracer, std::uint64_t seed, bool closed)
        : d_(d), tracer_(tracer), seed_(seed), closed_(closed)
    {
        sampleEvery_ =
            std::max<std::size_t>(1, d.queries.size() / kMaxCheckSamples);
        stats_.resultHash = kFnvOffset;
    }

    void runClosed()
    {
        const double start = nowSeconds();
        for (std::size_t first = 0; first < d_.queries.size();
             first += kWindow) {
            const std::size_t count =
                std::min(kWindow, d_.queries.size() - first);
            const double now = nowSeconds();
            std::vector<double> due(count, now);
            pass(first, count, due);
        }
        stats_.wallSeconds = nowSeconds() - start;
    }

    void runOpen()
    {
        const double t0 = nowSeconds() + 0.005;
        t0_ = t0;
        std::size_t next = 0;
        std::vector<double> due;
        while (next < d_.queries.size()) {
            const double now = nowSeconds();
            due.clear();
            const std::size_t first = next;
            while (next < d_.queries.size() && due.size() < kMaxPass &&
                   t0 + d_.due[next] <= now) {
                due.push_back(t0 + d_.due[next]);
                stats_.generatorLag.addSeconds(now - due.back());
                ++next;
            }
            if (!due.empty())
                pass(first, due.size(), due);
            else
                waitUntil(t0 + d_.due[next]);
        }
        stats_.wallSeconds = nowSeconds() - t0;
    }

    PhaseStats &stats() { return stats_; }
    std::vector<CheckSample> &samples() { return samples_; }
    std::vector<ProbeBatch> &probeBatches() { return probeBatches_; }

  private:
    void pass(std::size_t first, std::size_t count,
              const std::vector<double> &due)
    {
        groups_.resize(1);
        groups_[0].backend = d_.coordinator.get();
        groups_[0].queries.assign(d_.queries.begin() + first,
                                  d_.queries.begin() + first + count);
        const std::uint32_t id = tracer_.open(
            "AttentionEngine::runGroupsInto", first + 1, 0, Track::Driver);
        d_.engine->runGroupsInto(groups_, results_);
        tracer_.close(id);
        const double now = nowSeconds();
        ++passes_;
        stats_.queriesSent += count;
        stats_.served += count;
        for (std::size_t i = 0; i < count; ++i) {
            const double latency = now - due[i];
            tracer_.query(first + i + 1, due[i], now, "served");
            if (!closed_) {
                stats_.addQueryLatency(latency, due[i] - t0_, d_.seconds);
                stats_.withinLimit += latency * 1e3 <= kLatencyLimitMs;
                continue;
            }
            AttentionResult &result = results_[0][i];
            stats_.resultHash = fnvMix(
                stats_.resultHash, hashAttentionResult(kFnvOffset, result));
            if (samples_.size() < kMaxCheckSamples &&
                fnvMix(fnvMix(kFnvOffset, seed_ ^ kCheckSalt), first + i) %
                        sampleEvery_ ==
                    0)
                samples_.push_back({first + i, result});
        }
        if (closed_ && tracer_.enabled() &&
            probeBatches_.size() < kMaxProbeBatches &&
            fnvMix(fnvMix(kFnvOffset, seed_ ^ kProbeSalt), passes_) % 8 == 0)
            probeBatches_.push_back({tracer_.seconds(id), first, count});
    }

    Deployment &d_;
    Tracer &tracer_;
    std::uint64_t seed_;
    bool closed_;
    std::size_t sampleEvery_ = 1;
    /** Open phase: wall time of trace time 0. */
    double t0_ = 0.0;
    std::uint64_t passes_ = 0;
    PhaseStats stats_;
    std::vector<AttentionRequestGroup> groups_;
    std::vector<std::vector<AttentionResult>> results_;
    std::vector<CheckSample> samples_;
    std::vector<ProbeBatch> probeBatches_;
};

/** The in-process twin of the remote layout (balanced shards). */
std::unique_ptr<AttentionBackend>
localTwin(const Deployment &d)
{
    ShardedConfig config;
    config.shardRows = kShardRows;
    return makeShardedBackend(innerConfig(), d.key, d.value, config);
}

std::size_t
checkOutputs(const Deployment &d, std::vector<CheckSample> &samples,
             bool tamper)
{
    if (tamper && !samples.empty())
        samples.front().result.output.front() += 1.0f;
    const std::unique_ptr<AttentionBackend> twin = localTwin(d);
    std::size_t mismatches = 0;
    for (const CheckSample &s : samples)
        mismatches +=
            !bitIdentical(twin->run(d.queries[s.query]), s.result);
    return mismatches;
}

/** Probe-phase totals of the remote layers. */
struct RemoteTotals
{
    std::size_t queries = 0;
    double querySeconds = 0.0;
    double computeSeconds = 0.0;
    std::size_t frames = 0;
    double queryFrameBytes = 0.0;
    double replyFrameBytes = 0.0;
    double encodeSeconds = 0.0;
    double decodeSeconds = 0.0;
};

void
probe(Deployment &d, const std::vector<ProbeBatch> &batches,
      Tracer &tracer, ProbeTotals &totals, RemoteTotals &remote)
{
    const std::unique_ptr<AttentionBackend> twin = localTwin(d);
    const auto &sharded = static_cast<const ShardedBackend &>(*twin);
    ModuleProbe modules;
    std::vector<AttentionRequestGroup> groups(1);
    std::vector<std::vector<AttentionResult>> results;
    std::vector<PartialResult> partials(sharded.shardCount());
    AttentionResult out;
    PartialReplyPayload reply;
    QueryPayload decodedQuery;
    for (const ProbeBatch &batch : batches) {
        groups[0].backend = d.coordinator.get();
        groups[0].queries.assign(d.queries.begin() + batch.first,
                                 d.queries.begin() + batch.first +
                                     batch.count);
        const ScopedSpan root(tracer, "probe.batch", 0, 0, Track::Probe);
        BatchLayers layers;
        layers.band = batch.bandSeconds;
        layers.pass = timed(tracer, "AttentionEngine::runGroupsInto", 0,
                            root.id(), [&] {
                                d.engine->runGroupsInto(groups, results);
                            });
        double compute = 0.0, codec = 0.0;
        for (std::size_t i = 0; i < batch.count; ++i) {
            const Vector &query = groups[0].queries[i];
            const std::uint64_t request = batch.first + i + 1;
            const double q = timed(
                tracer, "RemoteShardCoordinator::runInto", request,
                root.id(), [&] { d.coordinator->runInto(query, out); });
            layers.serial += q;
            remote.querySeconds += q;
            ++remote.queries;

            // The same shards computed in process. Shard s lives on
            // worker s % workers, so a query waits for the busiest
            // worker's serial share.
            std::vector<double> perWorker(kWorkers, 0.0);
            for (std::size_t s = 0; s < sharded.shardCount(); ++s) {
                const double u = timed(
                    tracer, "ShardedBackend::runUnitPartialInto", request,
                    root.id(), [&] {
                        sharded.runUnitPartialInto(s, query, partials[s]);
                    });
                perWorker[s % kWorkers] += u;
                totals.unitSeconds += u;
                ++totals.units;
            }
            const double merge = timed(
                tracer, "ShardedBackend::mergeUnitsInto", request,
                root.id(), [&] { sharded.mergeUnitsInto(partials, out); });
            totals.mergeSeconds += merge;
            ++totals.merges;
            const double critical =
                *std::max_element(perWorker.begin(), perWorker.end());
            compute += critical + merge;
            remote.computeSeconds += critical;

            double search = 0.0, post = 0.0, datapath = 0.0;
            const ScopedSpan moduleSpan(tracer, "probe.modules", request,
                                        root.id(), Track::Probe);
            for (std::size_t s = 0; s < sharded.shardCount(); ++s)
                modules.run(sharded.shard(s), query, tracer,
                            moduleSpan.id(), request, totals, search, post,
                            datapath);
            ++totals.queries;

            // Wire codecs for every shard's query and reply frame.
            for (std::size_t s = 0; s < sharded.shardCount(); ++s) {
                QueryPayload payload;
                payload.requestId = request;
                payload.shardId = static_cast<std::uint32_t>(s);
                payload.generation = 1;
                payload.query = query;
                Frame queryFrame, replyFrame;
                reply.requestId = request;
                reply.shardId = payload.shardId;
                reply.partial = partials[s];
                const double enc = timed(
                    tracer, "remote_protocol.encode", request, root.id(),
                    [&] {
                        queryFrame = encodeQuery(payload);
                        replyFrame = encodePartialReply(reply);
                    });
                const double dec = timed(
                    tracer, "remote_protocol.decode", request, root.id(),
                    [&] {
                        if (!decodeQuery(queryFrame, decodedQuery).ok() ||
                            !decodePartialReply(replyFrame, reply).ok())
                            fatal("perfbench: codec round trip failed");
                    });
                remote.encodeSeconds += enc;
                remote.decodeSeconds += dec;
                codec += enc + dec;
                remote.queryFrameBytes += static_cast<double>(
                    encodeFrame(queryFrame).size());
                remote.replyFrameBytes += static_cast<double>(
                    encodeFrame(replyFrame).size());
                ++remote.frames;
            }
        }
        layers.layers = {{"worker_compute", compute}, {"codecs", codec}};
        attribute(layers, totals);
        ++totals.batches;
    }
}

}  // namespace

bool
isRemoteWorkload(const std::string &name)
{
    return name == "remote_fanout";
}

RunOutcome
runRemote(const Options &options)
{
    if (options.workerBin.empty())
        fatal("perfbench: remote_fanout needs --worker-bin");
    RunOutcome outcome;
    Tracer off(false);
    int deployments = 0;
    double peakRss = 0.0;
    auto deploy = [&](std::vector<double> *setups) {
        const double start = nowSeconds();
        auto d = setUp(options,
                       options.workDir + "/remote" +
                           std::to_string(deployments++));
        if (setups != nullptr)
            setups->push_back(nowSeconds() - start);
        return d;
    };

    if (!options.trace) {
        // Rounds of (open, closed) as in the local workloads (local.cpp).
        std::vector<double> setups;
        deploy(&setups);
        PhaseStats open, closed, closedAll;
        std::size_t checked = 0, mismatches = 0;
        bool repeatable = true;
        std::vector<double> capacities;
        RemoteCoordinatorStats counters;
        for (std::size_t round = 0; round < roundsFor(options.seconds);
             ++round) {
            {
                auto d = deploy(&setups);
                Phase phase(*d, off, options.seed, false);
                phase.runOpen();
                open.merge(phase.stats());
                peakRss = std::max(peakRss, d->peakRss());
            }
            auto d = deploy(&setups);
            Phase phase(*d, off, options.seed, true);
            phase.runClosed();
            const PhaseStats &stats = phase.stats();
            capacities.push_back(static_cast<double>(stats.served) /
                                 stats.wallSeconds);
            closedAll.merge(stats);
            peakRss = std::max(peakRss, d->peakRss());
            if (round > 0) {
                repeatable =
                    repeatable && stats.resultHash == closed.resultHash;
                continue;
            }
            closed = stats;
            counters = d->coordinator->stats();
            checked = phase.samples().size();
            mismatches = checkOutputs(*d, phase.samples(), options.tamper);
        }
        const double lag = open.generatorLag.percentile(0.99);
        outcome.correct = mismatches == 0 && checked > 0 && repeatable;
        outcome.attempted = open.attempted() + closedAll.attempted();
        outcome.failed = 0;
        outcome.endToEnd =
            endToEndMetrics(capacities, open, closed, setups, peakRss);
        Json check;
        check.integer("samples", checked)
            .integer("mismatches", mismatches)
            .boolean("closed_phase_repeatable", repeatable);
        Json diagnostics;
        diagnostics.number("query_p99_ms", open.queryLatency.percentile(0.99))
            .number("generator_lag_p99_ms", lag)
            .number("open_rate_qps", kOpenRate)
            .raw("setup_samples_s", numberList(setups))
            .raw("capacity_samples_qps", numberList(capacities))
            .integer("retries", counters.retries)
            .integer("timeouts", counters.timeouts)
            .integer("local_fallbacks", counters.localFallbacks);
        outcome.report.object("provenance", provenanceJson(kLanes, kWorkers))
            .boolean("valid", lag <= kLatencyLimitMs)
            .object("open", phaseJson(open, kLatencyLimitMs))
            .object("closed", phaseJson(closed, kLatencyLimitMs))
            .text("result_hash", std::to_string(closed.resultHash))
            .object("output_check", check)
            .object("diagnostics", diagnostics);
        return outcome;
    }

    Tracer tracer(true);
    PhaseStats open;
    {
        auto d = deploy(nullptr);
        Phase phase(*d, tracer, options.seed, false);
        phase.runOpen();
        open = std::move(phase.stats());
    }
    double untracedQps = 0.0;
    {
        auto d = deploy(nullptr);
        Phase phase(*d, off, options.seed, true);
        phase.runClosed();
        untracedQps = static_cast<double>(phase.stats().served) /
                      phase.stats().wallSeconds;
    }
    auto d = deploy(nullptr);
    Phase phase(*d, tracer, options.seed, true);
    phase.runClosed();
    const PhaseStats &closed = phase.stats();
    const double tracedQps =
        static_cast<double>(closed.served) / closed.wallSeconds;
    const RemoteCoordinatorStats counters = d->coordinator->stats();
    const std::size_t checked = phase.samples().size();
    const std::size_t mismatches =
        checkOutputs(*d, phase.samples(), options.tamper);
    ProbeTotals totals;
    RemoteTotals remote;
    probe(*d, phase.probeBatches(), tracer, totals, remote);

    const double queries = std::max<std::size_t>(1, remote.queries);
    const double frames = std::max<std::size_t>(1, remote.frames);
    LayerValues m;
    addEngineMetrics(totals, kLanes,
                     static_cast<double>(d->coordinator->workUnitCount()), m);
    const double queryUs = remote.querySeconds / queries * 1e6;
    const double computeUs = remote.computeSeconds / queries * 1e6;
    m["remote_coordinator.query_us"] = queryUs;
    m["remote_coordinator.worker_compute_us"] = computeUs;
    m["remote_coordinator.overhead_us"] = queryUs - computeUs;
    m["remote_coordinator.retries"] = static_cast<double>(counters.retries);
    m["remote_coordinator.timeouts"] = static_cast<double>(counters.timeouts);
    m["remote_coordinator.local_fallbacks"] =
        static_cast<double>(counters.localFallbacks);
    m["net.query_frame_bytes"] = remote.queryFrameBytes / frames;
    m["net.reply_frame_bytes"] = remote.replyFrameBytes / frames;
    m["net.encode_us"] = remote.encodeSeconds / frames * 1e6;
    m["net.decode_us"] = remote.decodeSeconds / frames * 1e6;
    m["driver.generator_lag_p99_ms"] = open.generatorLag.percentile(0.99);
    m["driver.tracing_overhead"] = untracedQps / tracedQps - 1.0;
    m["driver.layer_coverage"] = layerCoverage(totals);
    outcome.perLayer = perLayerMetrics(m);

    outcome.correct = mismatches == 0 && checked > 0;
    outcome.attempted = open.attempted() + closed.attempted();
    outcome.failed = 0;
    Json check;
    check.integer("samples", checked).integer("mismatches", mismatches);
    Json probeInfo;
    probeInfo.integer("batches", totals.batches)
        .integer("queries", totals.queries)
        .object("pass_share", shareJson(totals));
    outcome.report.object("provenance", provenanceJson(kLanes, kWorkers))
        .object("open", phaseJson(open, kLatencyLimitMs))
        .object("closed", phaseJson(closed, kLatencyLimitMs))
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
