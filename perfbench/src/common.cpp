#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/logging.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        a3::fatal("perfbench: non-finite value in the report");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
quote(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

}  // namespace

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - kEpoch)
        .count();
}

void
waitUntil(double deadline)
{
    // Spin rather than sleep: a sleeping driver wakes late by the
    // host's wake-up jitter, which would be charged to every query due
    // while it slept. The driver thread is an engine lane, so it spins
    // only while it has no other work.
    while (nowSeconds() < deadline) {
    }
}

double
Samples::percentile(double fraction) const
{
    return ms_.empty() ? 0.0 : a3::percentile(ms_, fraction);
}

void
PhaseStats::merge(const PhaseStats &other)
{
    wallSeconds += other.wallSeconds;
    queriesSent += other.queriesSent;
    served += other.served;
    failed += other.failed;
    shed += other.shed;
    binds += other.binds;
    appends += other.appends;
    rebinds += other.rebinds;
    withinLimit += other.withinLimit;
    queryLatency.append(other.queryLatency);
    latencyWindows.insert(latencyWindows.end(), other.latencyWindows.begin(),
                          other.latencyWindows.end());
    bindLatency.append(other.bindLatency);
    appendLatency.append(other.appendLatency);
    generatorLag.append(other.generatorLag);
}

std::size_t
roundsFor(double seconds)
{
    return std::max<std::size_t>(
        2, static_cast<std::size_t>(seconds / kRoundSeconds + 0.5));
}

void
PhaseStats::addQueryLatency(double seconds, double offset, double length)
{
    queryLatency.addSeconds(seconds);
    latencyWindows.resize(kLatencyWindows);
    const double position = length > 0.0 ? offset / length : 0.0;
    const auto window = static_cast<std::size_t>(std::clamp(
        position * static_cast<double>(kLatencyWindows), 0.0,
        static_cast<double>(kLatencyWindows - 1)));
    latencyWindows[window].addSeconds(seconds);
}

double
PhaseStats::windowedPercentile(double fraction) const
{
    std::vector<double> values;
    for (const Samples &window : latencyWindows) {
        if (window.count() > 0)
            values.push_back(window.percentile(fraction));
    }
    if (values.empty())
        return 0.0;
    // Interquartile mean: drop the quarter of windows at each end and
    // average the rest.
    std::sort(values.begin(), values.end());
    const std::size_t drop = values.size() / 4;
    double total = 0.0;
    for (std::size_t i = drop; i < values.size() - drop; ++i)
        total += values[i];
    return total / static_cast<double>(values.size() - 2 * drop);
}

std::uint32_t
Tracer::open(const char *name, std::uint64_t request,
             std::uint32_t parent, Track track)
{
    if (!enabled_)
        return 0;
    Span span;
    span.name = name;
    span.start = nowSeconds();
    span.end = span.start;
    span.parent = parent;
    span.request = request;
    span.track = track;
    spans_.push_back(span);
    return static_cast<std::uint32_t>(spans_.size());
}

void
Tracer::close(std::uint32_t id)
{
    if (id != 0)
        spans_[id - 1].end = nowSeconds();
}

double
Tracer::seconds(std::uint32_t id) const
{
    return id == 0 ? 0.0 : spans_[id - 1].end - spans_[id - 1].start;
}

void
Tracer::query(std::uint64_t request, double due, double done,
              const char *outcome)
{
    if (enabled_)
        queries_.push_back({request, due, done, outcome});
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    char buf[512];
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    out << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
           "\"tid\": 1, \"args\": {\"name\": \"driver\"}},\n";
    out << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
           "\"tid\": 2, \"args\": {\"name\": \"probe\"}}";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      ",\n{\"ph\": \"X\", \"name\": \"%s\", \"pid\": 1, "
                      "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"span\": %zu, \"parent\": %u, "
                      "\"request\": %llu}}",
                      s.name, static_cast<int>(s.track), s.start * 1e6,
                      (s.end - s.start) * 1e6, i + 1, s.parent,
                      static_cast<unsigned long long>(s.request));
        out << buf;
    }
    // Query lifetimes overlap freely, so they are async events keyed
    // by request id rather than nested complete events.
    for (const QuerySpan &q : queries_) {
        std::snprintf(buf, sizeof buf,
                      ",\n{\"ph\": \"b\", \"cat\": \"query\", \"name\": "
                      "\"query\", \"id\": %llu, \"pid\": 1, \"tid\": 1, "
                      "\"ts\": %.3f, \"args\": {\"request\": %llu, "
                      "\"outcome\": \"%s\"}}"
                      ",\n{\"ph\": \"e\", \"cat\": \"query\", \"name\": "
                      "\"query\", \"id\": %llu, \"pid\": 1, \"tid\": 1, "
                      "\"ts\": %.3f}",
                      static_cast<unsigned long long>(q.request),
                      q.due * 1e6,
                      static_cast<unsigned long long>(q.request),
                      q.outcome,
                      static_cast<unsigned long long>(q.request),
                      q.done * 1e6);
        out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

Json &
Json::number(const std::string &key, double value)
{
    fields_.emplace_back(key, formatNumber(value));
    return *this;
}

Json &
Json::integer(const std::string &key, std::uint64_t value)
{
    fields_.emplace_back(key, std::to_string(value));
    return *this;
}

Json &
Json::text(const std::string &key, const std::string &value)
{
    fields_.emplace_back(key, quote(value));
    return *this;
}

Json &
Json::boolean(const std::string &key, bool value)
{
    fields_.emplace_back(key, value ? "true" : "false");
    return *this;
}

Json &
Json::object(const std::string &key, const Json &value)
{
    fields_.emplace_back(key, value.dump());
    return *this;
}

Json &
Json::raw(const std::string &key, const std::string &json)
{
    fields_.emplace_back(key, json);
    return *this;
}

std::string
Json::dump() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
}

Json
metricsJson(const MetricList &metrics)
{
    Json json;
    for (const Metric &m : metrics) {
        Json entry;
        entry.number("value", m.value).text("unit", m.unit);
        json.object(m.name, entry);
    }
    return json;
}

double
failedRate(const PhaseStats &closed)
{
    return static_cast<double>(closed.failed + closed.shed) /
           static_cast<double>(std::max<std::uint64_t>(1, closed.attempted()));
}

MetricList
endToEndMetrics(const std::vector<double> &capacities, const PhaseStats &open,
                const PhaseStats &closed, const std::vector<double> &setups,
                double peakRss)
{
    return {
        {"capacity_qps", median(capacities), "q/s"},
        {"query_p50_ms", open.windowedPercentile(0.50), "ms"},
        {"query_p95_ms", open.windowedPercentile(0.95), "ms"},
        {"slo_attainment",
         static_cast<double>(open.withinLimit) /
             static_cast<double>(std::max<std::uint64_t>(1, open.queriesSent)),
         "ratio"},
        // Gated in place of failed_rate, which is 0 on healthy workloads.
        {"op_success_rate", 1.0 - failedRate(closed), "ratio"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peakRss, "MB"},
    };
}

MetricList
perLayerMetrics(const LayerValues &values)
{
    static const std::vector<std::pair<const char *, const char *>> kTable = {
        {"session_cache.bind_fresh_p50_ms", "ms"},
        {"session_cache.bind_shared_p50_ms", "ms"},
        {"session_cache.bind_restored_p50_ms", "ms"},
        {"session_cache.bind_busy_s", "s"},
        {"session_cache.append_busy_s", "s"},
        {"session_cache.evictions", "count"},
        {"session_cache.rebinds", "count"},
        {"session_cache.hit_rate", "ratio"},
        {"shard_store.live_hits", "count"},
        {"shard_store.spill_restores", "count"},
        {"shard_store.cold_binds", "count"},
        {"shard_store.hit_rate", "ratio"},
        {"shard_store.spill_rejects", "count"},
        {"batch_scheduler.submit_busy_s", "s"},
        {"batch_scheduler.drain_busy_s", "s"},
        {"batch_scheduler.drains", "count"},
        {"batch_scheduler.batch_size_mean", "count"},
        {"batch_scheduler.queue_wait_p95_ms", "ms"},
        {"batch_scheduler.engine_pass_p50_ms", "ms"},
        {"batch_scheduler.self_p50_ms", "ms"},
        {"batch_scheduler.unbound_failures", "count"},
        {"batch_scheduler.rejected", "count"},
        {"engine.work_units_per_query", "count"},
        {"engine.pass_ms", "ms"},
        {"engine.serial_ms", "ms"},
        {"engine.parallel_efficiency", "ratio"},
        {"sharded_backend.unit_us", "us"},
        {"sharded_backend.merge_us", "us"},
        {"attention.candidate_search_us", "us"},
        {"attention.post_scoring_us", "us"},
        {"attention.datapath_us", "us"},
        {"attention.kept_rows_per_query", "count"},
        {"attention.search_iterations_per_query", "count"},
        {"kernels.gather_dot_ns", "ns"},
        {"kernels.axpy_ns", "ns"},
        {"kernels.bytes_per_query", "B"},
        {"remote_coordinator.query_us", "us"},
        {"remote_coordinator.worker_compute_us", "us"},
        {"remote_coordinator.overhead_us", "us"},
        {"remote_coordinator.retries", "count"},
        {"remote_coordinator.timeouts", "count"},
        {"remote_coordinator.local_fallbacks", "count"},
        {"net.query_frame_bytes", "B"},
        {"net.reply_frame_bytes", "B"},
        {"net.encode_us", "us"},
        {"net.decode_us", "us"},
        {"driver.generator_lag_p99_ms", "ms"},
        {"driver.tracing_overhead", "ratio"},
        {"driver.layer_coverage", "ratio"},
    };
    MetricList out;
    for (const auto &[name, unit] : kTable) {
        const auto it = values.find(name);
        out.push_back({name, it == values.end() ? 0.0 : it->second, unit});
    }
    for (const auto &entry : values) {
        if (std::none_of(kTable.begin(), kTable.end(), [&](const auto &row) {
                return entry.first == row.first;
            }))
            a3::fatal("perfbench: unknown per-layer metric ", entry.first);
    }
    return out;
}

Json
phaseJson(const PhaseStats &phase, double latencyLimitMs)
{
    Json json;
    json.number("wall_s", phase.wallSeconds)
        .integer("queries_sent", phase.queriesSent)
        .integer("queries_succeeded", phase.served)
        .integer("queries_failed", phase.failed)
        .integer("queries_shed", phase.shed)
        .integer("binds", phase.binds)
        .integer("appends", phase.appends)
        .integer("rebinds", phase.rebinds)
        .number("latency_limit_ms", latencyLimitMs)
        .integer("within_limit", phase.withinLimit);
    auto percentiles = [](const Samples &s) {
        Json p;
        p.integer("samples", s.count())
            .number("p50_ms", s.percentile(0.50))
            .number("p95_ms", s.percentile(0.95))
            .number("p99_ms", s.percentile(0.99));
        return p;
    };
    json.object("query_latency", percentiles(phase.queryLatency))
        .object("bind_latency", percentiles(phase.bindLatency))
        .object("append_latency", percentiles(phase.appendLatency))
        .object("generator_lag", percentiles(phase.generatorLag));
    return json;
}

double
peakRssMb(long pid)
{
    const std::string path =
        pid == 0 ? "/proc/self/status"
                 : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0.0;
}

std::uint64_t
fnvMix(std::uint64_t hash, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (word >> (8 * i)) & 0xffu;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

namespace {

bool
sameBits(const a3::Vector &a, const a3::Vector &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
                0);
}

}  // namespace

bool
bitIdentical(const a3::AttentionResult &a, const a3::AttentionResult &b)
{
    return sameBits(a.output, b.output) &&
           sameBits(a.weights, b.weights) &&
           sameBits(a.scores, b.scores) &&
           a.candidates == b.candidates && a.kept == b.kept &&
           a.iterations == b.iterations;
}

std::string
numberList(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i > 0 ? ", " : "") + formatNumber(values[i]);
    return out + "]";
}

void
reseedPayloads(a3::Trace &trace, std::uint64_t seed)
{
    const std::uint64_t base = fnvMix(kFnvOffset, seed);
    for (a3::TraceEvent &ev : trace.events)
        ev.payloadSeed = fnvMix(base, ev.payloadSeed);
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
makeDirs(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec)
        a3::fatal("perfbench: cannot create ", path, ": ", ec.message());
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
