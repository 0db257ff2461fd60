/**
 * @file
 * Distributed shard-serving scaling and recovery, emitted as one
 * JSON object:
 *
 *  - "worker_count_sweep": fixed context, sweeping the worker-fleet
 *    size. Each row reports coordinator queries/sec over real
 *    shard_worker processes on AF_UNIX sockets and a bit_identical
 *    flag against the in-process ShardedBackend — the distributed
 *    tier must change *where* partials run, never *what* they are.
 *  - "kill_recovery": the acceptance experiment. A fleet serves at
 *    steady state, one worker is SIGKILLed under load, and the rows
 *    report the qps during the failover window, the recovered qps
 *    once the survivors have rebound the dead worker's shards, the
 *    recovered/steady ratio (acceptance: > 0.8), and the count of
 *    client queries that failed or returned non-bit-identical
 *    output (acceptance: 0 — the escalation ladder ends in local
 *    fallback, so runInto never fails).
 *
 * Every qps figure is the median over R timed repeats, and each
 * repeat cycles the Q queries until it covers at least 512 of them.
 *
 * Usage: distributed_scaling [out.csv] [--workers W] [--rows N]
 *                            [--queries Q] [--repeats R]
 *                            [--worker-bin PATH]
 *   --workers W sets the kill-recovery fleet size (default 4; the
 *   CI smoke runs pass 2). --worker-bin defaults to the shard_worker
 *   next to this binary's build tree (../tools/shard_worker).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "attention/backend.hpp"
#include "bench_common.hpp"
#include "net/process.hpp"
#include "serving/remote_coordinator.hpp"
#include "serving/sharded_backend.hpp"
#include "tensor/matrix.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace {

using namespace a3;

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

Matrix
randomMatrix(Rng &rng, std::size_t n, std::size_t d)
{
    Matrix m(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c)
            m(r, c) = static_cast<float>(rng.normal());
    return m;
}

bool
bitsEqual(const Vector &a, const Vector &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(float)) == 0);
}

/** Bitwise equality of everything a client can observe. */
bool
bitIdentical(const AttentionResult &a, const AttentionResult &b)
{
    return bitsEqual(a.output, b.output) &&
           bitsEqual(a.weights, b.weights) &&
           bitsEqual(a.scores, b.scores) &&
           a.candidates == b.candidates && a.kept == b.kept;
}

/** A fleet of real shard_worker processes plus their specs. */
struct Fleet
{
    std::vector<ChildProcess> procs;
    std::vector<RemoteWorkerSpec> specs;
};

Fleet
spawnFleet(const std::string &workerBin, std::size_t count,
           const char *tag)
{
    Fleet fleet;
    fleet.procs.resize(count);
    for (std::size_t w = 0; w < count; ++w) {
        const std::string name =
            std::string(tag) + std::to_string(w);
        const std::string path = "/tmp/a3_dist_bench_" +
                                 std::to_string(getpid()) + "_" +
                                 name + ".sock";
        ::unlink(path.c_str());
        NetStatus status =
            fleet.procs[w].spawn(workerBin, {path, name});
        if (!status.ok())
            fatal("failed to spawn ", workerBin, ": ",
                  status.message);
        fleet.specs.push_back(unixWorkerSpec(name, path, 5.0));
    }
    return fleet;
}

struct SweepRow
{
    std::size_t workers = 0;
    std::size_t rows = 0;
    std::size_t dims = 0;
    std::size_t shards = 0;
    std::size_t replication = 0;
    double qps = 0.0;
    int bitIdentical = 1;
    std::size_t repeats = 0;
};

struct RecoveryRow
{
    std::size_t workers = 0;
    std::size_t rows = 0;
    std::size_t shards = 0;
    std::size_t replication = 0;
    double steadyQps = 0.0;
    /** qps of the batch that absorbs the SIGKILL + failover. */
    double failoverQps = 0.0;
    double recoveredQps = 0.0;
    double recoveredQpsRatio = 0.0;
    /** Queries that threw or returned non-identical bits. */
    std::size_t failedQueries = 0;
    int bitIdentical = 1;
    std::size_t failovers = 0;
    std::size_t rebinds = 0;
    std::size_t localFallbacks = 0;
    std::size_t queries = 0;
    std::size_t repeats = 0;
};

/**
 * Fewest queries one timed repeat covers: the query set is cycled
 * until a repeat spans at least this many, so a phase lasts tens of
 * milliseconds rather than a couple, and one scheduler hiccup cannot
 * swing the recovered/steady ratio by 20%.
 */
constexpr std::size_t kMinTimedQueries = 512;

/** Median over `repeats` timed repeats of the queries/sec. */
double
measureQps(const AttentionBackend &backend,
           const std::vector<Vector> &queries, std::size_t repeats)
{
    AttentionResult out;
    backend.runInto(queries.front(), out);  // warm-up
    const std::size_t passes =
        (kMinTimedQueries + queries.size() - 1) / queries.size();
    std::vector<double> qps;
    for (std::size_t r = 0; r < repeats; ++r) {
        const double start = now();
        for (std::size_t pass = 0; pass < passes; ++pass)
            for (const Vector &q : queries)
                backend.runInto(q, out);
        qps.push_back(static_cast<double>(passes * queries.size()) /
                      (now() - start));
    }
    return percentile(std::move(qps), 0.5);
}

RemoteShardConfig
benchConfig(std::size_t totalRows, std::size_t workers,
            std::size_t replication)
{
    RemoteShardConfig config;
    // Two shards per worker so every worker owns context and the
    // kill redistributes real work.
    config.shardRows = std::max<std::size_t>(
        1, totalRows / (2 * std::max<std::size_t>(1, workers)));
    config.replication = replication;
    config.queryDeadlineSeconds = 1.0;
    config.maxRetries = 1;
    config.retryBackoffSeconds = 0.001;
    config.retryBackoffMaxSeconds = 0.01;
    return config;
}

SweepRow
measureWorkers(const std::string &workerBin, std::size_t workers,
               const Matrix &key, const Matrix &value,
               const AttentionBackend &sharded,
               const std::vector<Vector> &queries,
               std::size_t repeats)
{
    const EngineConfig inner;  // ExactFloat
    Fleet fleet = spawnFleet(workerBin, workers, "sweep");
    const std::size_t replication =
        std::min<std::size_t>(2, workers);
    RemoteShardCoordinator remote(
        inner, key, value, fleet.specs,
        benchConfig(key.rows(), workers, replication));

    SweepRow row;
    row.workers = workers;
    row.rows = key.rows();
    row.dims = key.cols();
    row.shards = remote.shardCount();
    row.replication = replication;
    row.qps = measureQps(remote, queries, repeats);
    row.repeats = repeats;

    AttentionResult got;
    AttentionResult want;
    for (const Vector &q : queries) {
        remote.runInto(q, got);
        sharded.runInto(q, want);
        if (!bitIdentical(got, want))
            row.bitIdentical = 0;
    }
    return row;
}

RecoveryRow
measureKillRecovery(const std::string &workerBin,
                    std::size_t workers, const Matrix &key,
                    const Matrix &value,
                    const AttentionBackend &sharded,
                    const std::vector<Vector> &queries,
                    std::size_t repeats)
{
    const EngineConfig inner;  // ExactFloat
    Fleet fleet = spawnFleet(workerBin, workers, "kill");
    const std::size_t replication =
        std::min<std::size_t>(2, workers);
    RemoteShardCoordinator remote(
        inner, key, value, fleet.specs,
        benchConfig(key.rows(), workers, replication));

    RecoveryRow row;
    row.workers = workers;
    row.rows = key.rows();
    row.shards = remote.shardCount();
    row.replication = replication;
    row.queries = queries.size();
    row.repeats = repeats;

    AttentionResult got;
    AttentionResult want;
    const auto verifyBatch = [&](std::size_t &failed) -> double {
        const double start = now();
        for (const Vector &q : queries) {
            try {
                remote.runInto(q, got);
            } catch (...) {
                ++failed;
                continue;
            }
            sharded.runInto(q, want);
            if (!bitIdentical(got, want))
                ++failed;
        }
        return static_cast<double>(queries.size()) /
               (now() - start);
    };

    row.steadyQps = measureQps(remote, queries, repeats);

    // SIGKILL one worker under load: the kernel closes its sockets
    // and the very next fan-out absorbs the failover + rebind cost.
    fleet.procs[workers / 2].kill();
    fleet.procs[workers / 2].wait();
    row.failoverQps = verifyBatch(row.failedQueries);

    // Re-replicate the dead worker's shards onto survivors, then
    // measure the recovered steady state.
    remote.heartbeat();
    row.recoveredQps = measureQps(remote, queries, repeats);
    row.recoveredQpsRatio = row.steadyQps > 0.0
                                ? row.recoveredQps / row.steadyQps
                                : 0.0;

    std::size_t failedAfter = 0;
    verifyBatch(failedAfter);
    row.failedQueries += failedAfter;
    row.bitIdentical = row.failedQueries == 0 ? 1 : 0;

    const RemoteCoordinatorStats stats = remote.stats();
    row.failovers = stats.failovers;
    row.rebinds = stats.rebinds;
    row.localFallbacks = stats.localFallbacks;
    return row;
}

void
printSweepRows(const char *label, const std::vector<SweepRow> &rows,
               bool last)
{
    std::printf("  \"%s\": [\n", label);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SweepRow &r = rows[i];
        std::printf("    {\"workers\": %zu, \"rows\": %zu, "
                    "\"dims\": %zu, \"shards\": %zu, "
                    "\"replication\": %zu, \"qps\": %.1f, "
                    "\"bit_identical\": %d, \"repeats\": %zu}%s\n",
                    r.workers, r.rows, r.dims, r.shards,
                    r.replication, r.qps, r.bitIdentical,
                    r.repeats, i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ]%s\n", last ? "" : ",");
}

void
printRecoveryRows(const char *label,
                  const std::vector<RecoveryRow> &rows, bool last)
{
    std::printf("  \"%s\": [\n", label);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RecoveryRow &r = rows[i];
        std::printf(
            "    {\"workers\": %zu, \"rows\": %zu, "
            "\"shards\": %zu, \"replication\": %zu, "
            "\"steady_qps\": %.1f, \"failover_qps\": %.1f, "
            "\"recovered_qps\": %.1f, "
            "\"recovered_qps_ratio\": %.3f, "
            "\"failed_queries\": %zu, \"bit_identical\": %d, "
            "\"failovers\": %zu, \"rebinds\": %zu, "
            "\"local_fallbacks\": %zu, \"queries\": %zu, "
            "\"repeats\": %zu}%s\n",
            r.workers, r.rows, r.shards, r.replication,
            r.steadyQps, r.failoverQps, r.recoveredQps,
            r.recoveredQpsRatio, r.failedQueries, r.bitIdentical,
            r.failovers, r.rebinds, r.localFallbacks, r.queries,
            r.repeats, i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ]%s\n", last ? "" : ",");
}

std::string
defaultWorkerBin(const char *argv0)
{
    const std::string self(argv0);
    const std::size_t slash = self.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : self.substr(0, slash);
    return dir + "/../tools/shard_worker";
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string csvPath;
    std::size_t workers = 4;
    std::size_t totalRows = 2048;
    std::size_t queryCount = 32;
    std::size_t repeats = 5;
    std::string workerBin = defaultWorkerBin(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--workers") == 0) {
            if (i + 1 >= argc)
                fatal("--workers needs a value");
            const long parsed = std::atol(argv[++i]);
            if (parsed < 1)
                fatal("--workers must be a positive integer, got "
                      "\"", argv[i], "\"");
            workers = static_cast<std::size_t>(parsed);
        } else if (std::strcmp(argv[i], "--rows") == 0) {
            if (i + 1 >= argc)
                fatal("--rows needs a value");
            const long parsed = std::atol(argv[++i]);
            if (parsed < 64)
                fatal("--rows must be at least 64, got \"",
                      argv[i], "\"");
            totalRows = static_cast<std::size_t>(parsed);
        } else if (std::strcmp(argv[i], "--queries") == 0) {
            if (i + 1 >= argc)
                fatal("--queries needs a value");
            const long parsed = std::atol(argv[++i]);
            if (parsed < 1)
                fatal("--queries must be a positive integer, got "
                      "\"", argv[i], "\"");
            queryCount = static_cast<std::size_t>(parsed);
        } else if (std::strcmp(argv[i], "--repeats") == 0) {
            if (i + 1 >= argc)
                fatal("--repeats needs a value");
            const long parsed = std::atol(argv[++i]);
            if (parsed <= 0)
                fatal("--repeats must be a positive integer, got "
                      "\"", argv[i], "\"");
            repeats = static_cast<std::size_t>(parsed);
        } else if (std::strcmp(argv[i], "--worker-bin") == 0) {
            if (i + 1 >= argc)
                fatal("--worker-bin needs a value");
            workerBin = argv[++i];
        } else {
            csvPath = argv[i];
        }
    }
    if (::access(workerBin.c_str(), X_OK) != 0)
        fatal("shard_worker binary not executable: \"", workerBin,
              "\" (build it or pass --worker-bin)");

    const std::size_t d = 64;
    Rng rng(bench::benchSeed);
    const Matrix key = randomMatrix(rng, totalRows, d);
    const Matrix value = randomMatrix(rng, totalRows, d);

    std::vector<Vector> queries(queryCount);
    for (auto &q : queries) {
        q.resize(d);
        for (auto &x : q)
            x = static_cast<float>(rng.normal());
    }

    // --- Worker-count sweep vs the bit-identity reference. Each
    // fleet uses its own shard layout, so the reference is rebuilt
    // with the matching shardRows.
    std::vector<SweepRow> sweepRows;
    std::vector<std::size_t> fleetSizes{1, 2};
    if (workers > 2)
        fleetSizes.push_back(workers);
    for (const std::size_t count : fleetSizes) {
        const EngineConfig inner;
        ShardedConfig ref;
        ref.shardRows = benchConfig(totalRows, count,
                                    std::min<std::size_t>(2, count))
                            .shardRows;
        const ShardedBackend sharded(inner, key, value, ref);
        sweepRows.push_back(measureWorkers(workerBin, count, key,
                                           value, sharded, queries,
                                           repeats));
    }

    // --- Kill-one-worker recovery at the requested fleet size.
    std::vector<RecoveryRow> recoveryRows;
    {
        const EngineConfig inner;
        ShardedConfig ref;
        ref.shardRows =
            benchConfig(totalRows, workers,
                        std::min<std::size_t>(2, workers))
                .shardRows;
        const ShardedBackend sharded(inner, key, value, ref);
        recoveryRows.push_back(
            measureKillRecovery(workerBin, workers, key, value,
                                sharded, queries, repeats));
    }

    std::printf("{\n");
    printSweepRows("worker_count_sweep", sweepRows, false);
    printRecoveryRows("kill_recovery", recoveryRows, true);
    std::printf("}\n");

    if (!csvPath.empty()) {
        CsvWriter csv(csvPath);
        csv.writeRow({"sweep", "workers", "rows", "shards",
                      "replication", "qps", "steady_qps",
                      "failover_qps", "recovered_qps",
                      "recovered_qps_ratio", "failed_queries",
                      "bit_identical"});
        for (const SweepRow &r : sweepRows) {
            csv.writeRow({"worker_count_sweep",
                          std::to_string(r.workers),
                          std::to_string(r.rows),
                          std::to_string(r.shards),
                          std::to_string(r.replication),
                          std::to_string(r.qps), "", "", "", "", "",
                          std::to_string(r.bitIdentical)});
        }
        for (const RecoveryRow &r : recoveryRows) {
            csv.writeRow({"kill_recovery",
                          std::to_string(r.workers),
                          std::to_string(r.rows),
                          std::to_string(r.shards),
                          std::to_string(r.replication), "",
                          std::to_string(r.steadyQps),
                          std::to_string(r.failoverQps),
                          std::to_string(r.recoveredQps),
                          std::to_string(r.recoveredQpsRatio),
                          std::to_string(r.failedQueries),
                          std::to_string(r.bitIdentical)});
        }
    }
    return 0;
}
