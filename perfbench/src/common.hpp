/**
 * @file
 * Shared pieces of the serving benchmark driver: the wall clock,
 * command-line options, latency samples, the in-memory span tracer,
 * phase accounting, and a minimal JSON writer for the report.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "attention/types.hpp"
#include "trace/trace.hpp"

namespace perfbench {

/** Steady-clock seconds since the driver started. */
double nowSeconds();

/** Busy-wait until `deadline` on nowSeconds(). */
void waitUntil(double deadline);

/** Parsed command line of the driver binary. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    /** Flip one bit of a sampled result before the output check
     *  (self-test of the check: the run must then exit nonzero). */
    bool tamper = false;
    /** Directory for spill directories and worker sockets. */
    std::string workDir;
    /** The shard_worker binary (remote_fanout only). */
    std::string workerBin;
    /** Chrome trace-event JSON output of a traced run. */
    std::string traceOut;
};

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using MetricList = std::vector<Metric>;

/** Per-layer values a traced run measured, by metric name. */
using LayerValues = std::map<std::string, double>;

/**
 * Every per-layer metric in report order, with its unit; a metric the
 * workload does not reach reads 0. fatal()s on a name outside the
 * table, so a misspelt metric cannot go missing from the output.
 */
MetricList perLayerMetrics(const LayerValues &values);

/** Latency samples, stored in milliseconds. */
class Samples
{
  public:
    void addSeconds(double seconds) { ms_.push_back(seconds * 1e3); }

    void append(const Samples &other)
    {
        ms_.insert(ms_.end(), other.ms_.begin(), other.ms_.end());
    }

    /** Linear-interpolated percentile; 0 when empty. */
    double percentile(double fraction) const;

    std::size_t count() const { return ms_.size(); }

  private:
    std::vector<double> ms_;
};

/** Which timeline a span is drawn on in the trace export. */
enum class Track : std::uint8_t { Driver = 1, Probe = 2 };

/** One recorded call into a layer. */
struct Span
{
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    /** Index + 1 of the enclosing span; 0 for a root span. */
    std::uint32_t parent = 0;
    std::uint64_t request = 0;
    Track track = Track::Driver;
};

/** Lifetime of one query, from its due time to its completion. */
struct QuerySpan
{
    std::uint64_t request = 0;
    double due = 0.0;
    double done = 0.0;
    const char *outcome = "";
};

/**
 * In-memory span recorder. Disabled tracers record nothing and
 * return id 0, so untraced runs pay one branch per call site.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Start a span now; returns its id (0 when disabled). */
    std::uint32_t open(const char *name, std::uint64_t request,
                       std::uint32_t parent, Track track);

    /** End span `id` now (no-op for id 0). */
    void close(std::uint32_t id);

    /** Duration of a closed span in seconds. */
    double seconds(std::uint32_t id) const;

    void query(std::uint64_t request, double due, double done,
               const char *outcome);

    /** Write every span as Chrome trace-event JSON. */
    bool writeChrome(const std::string &path) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<QuerySpan> queries_;
};

/** RAII span on a Tracer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name,
               std::uint64_t request = 0, std::uint32_t parent = 0,
               Track track = Track::Driver)
        : tracer_(tracer),
          id_(tracer.open(name, request, parent, track))
    {
    }
    ~ScopedSpan() { tracer_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::uint32_t id_;
};

/** What one open or closed phase sent and got back. */
struct PhaseStats
{
    double wallSeconds = 0.0;
    std::uint64_t queriesSent = 0;
    std::uint64_t served = 0;
    std::uint64_t failed = 0;
    std::uint64_t shed = 0;
    std::uint64_t binds = 0;
    std::uint64_t appends = 0;
    std::uint64_t rebinds = 0;
    /** Served within the workload's latency limit (open phase). */
    std::uint64_t withinLimit = 0;
    Samples queryLatency;
    /** queryLatency split into kLatencyWindows equal spans of the
     *  open phase, by due time. */
    std::vector<Samples> latencyWindows;
    Samples bindLatency;
    Samples appendLatency;
    /** Actual send time minus due time, every event. */
    Samples generatorLag;
    /** FNV-1a over per-ticket result hashes in ticket order. */
    std::uint64_t resultHash = 0;

    std::uint64_t attempted() const
    {
        return queriesSent + binds + appends;
    }

    /** Add `other`'s counts and samples; its latency windows stay
     *  separate windows. */
    void merge(const PhaseStats &other);

    /** Record an open-phase query latency due `offset` seconds into a
     *  phase of `length` seconds. */
    void addQueryLatency(double seconds, double offset, double length);

    /**
     * Interquartile mean over the windows of each window's percentile.
     * Host speed on a shared machine switches between modes every
     * second or so; averaging the middle half of the windows follows
     * the mix of modes instead of flipping with it, and a stall in one
     * window does not move the value.
     */
    double windowedPercentile(double fraction) const;
};

/**
 * Open-loop length of every phase's trace. It is fixed so that the
 * work a phase does (for chat_churn, how far sessions grow) does not
 * depend on --seconds.
 */
constexpr double kTraceSeconds = 4.0;

/**
 * An untraced run repeats rounds of (open phase, closed phase), each
 * from fresh deployments, about one per kRoundSeconds of --seconds.
 * Host speed on a shared machine shifts between regimes that last
 * minutes; rounds spread every metric over the whole run.
 */
constexpr double kRoundSeconds = 6.0;

/** Rounds an untraced run of `seconds` makes (at least 2). */
std::size_t roundsFor(double seconds);

/** Open-phase windows behind the reported latency percentiles. */
constexpr std::size_t kLatencyWindows = 16;

/** Minimal ordered JSON object writer (numbers keep 17 digits). */
class Json
{
  public:
    Json &number(const std::string &key, double value);
    Json &integer(const std::string &key, std::uint64_t value);
    Json &text(const std::string &key, const std::string &value);
    Json &boolean(const std::string &key, bool value);
    Json &object(const std::string &key, const Json &value);
    Json &raw(const std::string &key, const std::string &json);
    std::string dump() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Closed-phase operations that failed or were shed, as a share. */
double failedRate(const PhaseStats &closed);

/** The end-to-end metrics, in BENCHMARK.json order. */
MetricList endToEndMetrics(const std::vector<double> &capacities,
                           const PhaseStats &open, const PhaseStats &closed,
                           const std::vector<double> &setups,
                           double peakRss);

/** {"name": {"value": v, "unit": u}, ...} */
Json metricsJson(const MetricList &metrics);

/** Phase accounting block of the report. */
Json phaseJson(const PhaseStats &phase, double latencyLimitMs);

/** Everything one workload run hands back to main(). */
struct RunOutcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    MetricList endToEnd;
    MetricList perLayer;
    /** Extra report fields (phases, hashes, diagnostics). */
    Json report;
};

/** Peak resident set (VmHWM) of a process in MiB; 0 if unreadable. */
double peakRssMb(long pid);

/** FNV-1a step over one 64-bit word. */
std::uint64_t fnvMix(std::uint64_t hash, std::uint64_t word);

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/**
 * Traffic shape of every workload's trace (which sessions are hot,
 * their styles and sizes, the arrival schedule). It is fixed so that
 * runs with different --seed values do the same amount of work; the
 * seed picks the content of every context and every query.
 */
constexpr std::uint64_t kShapeSeed = 42;

/** Re-derive every event's payload seed from the run seed. Events
 *  that shared a payload (one document, a bind and its appends) keep
 *  sharing it. */
void reseedPayloads(a3::Trace &trace, std::uint64_t seed);

/** Bitwise equality of every field of two results. */
bool bitIdentical(const a3::AttentionResult &a,
                  const a3::AttentionResult &b);

/** "[v0, v1, ...]" with full precision. */
std::string numberList(const std::vector<double> &values);

/** Median of a non-empty sample. */
double median(std::vector<double> values);

/** Create `path` (and parents); fatal on failure. */
void makeDirs(const std::string &path);

/** Recursively delete `path` (missing is fine). */
void removeTree(const std::string &path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP
