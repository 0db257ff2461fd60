/**
 * @file
 * The probe phase of a traced run. drain() and runGroupsInto() hide
 * every layer below them, so after the timed phases the driver sends
 * a seeded sample of the served batches back through the lower
 * layers one call at a time — engine pass, then work units and
 * merge, then the attention modules, then the kernel table — and
 * times each call. The sums give each layer's self time, and the
 * in-band wall time of the same batches says how much of it the
 * probed layers explain.
 */

#ifndef PERFBENCH_PROBE_HPP
#define PERFBENCH_PROBE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "attention/backend.hpp"
#include "attention/quantized.hpp"
#include "common.hpp"

namespace perfbench {

/** Per-layer totals over the probed batches. */
struct ProbeTotals
{
    std::size_t batches = 0;
    std::size_t queries = 0;
    /** In-band wall time of the sampled batches (drain or pass). */
    double bandSeconds = 0.0;
    /** The same batches re-run through the engine. */
    double passSeconds = 0.0;
    /** The same batches run one unit (or query) at a time. */
    double serialSeconds = 0.0;

    std::size_t units = 0;
    double unitSeconds = 0.0;
    std::size_t merges = 0;
    double mergeSeconds = 0.0;

    double searchSeconds = 0.0;
    double postSeconds = 0.0;
    double datapathSeconds = 0.0;
    double keptRows = 0.0;
    double iterations = 0.0;
    double bytes = 0.0;

    std::size_t gatherCalls = 0;
    double gatherSeconds = 0.0;
    std::size_t axpyCalls = 0;
    double axpySeconds = 0.0;

    /** In-band time attributed to each named layer (see attribute). */
    double selfShare = 0.0;
    std::vector<std::pair<const char *, double>> layerShare;
};

/** Serial per-layer seconds of one probed batch. */
struct BatchLayers
{
    double band = 0.0;
    double pass = 0.0;
    double serial = 0.0;
    std::vector<std::pair<const char *, double>> layers;
};

/**
 * Attribute a batch's in-band time: the part outside the engine pass
 * (band - pass) is the caller layer's self time; the pass is split
 * across the named layers in proportion to their serial seconds, and
 * what the named layers do not cover stays unexplained.
 */
void attribute(const BatchLayers &batch, ProbeTotals &totals);

/** Times the attention modules and kernels of one shard backend. */
class ModuleProbe
{
  public:
    /**
     * Run `inner` (an approx-quantized or quantized shard backend) on
     * `query` module by module; adds to `totals` and returns the
     * serial seconds of (search, post-scoring, datapath).
     */
    void run(const a3::AttentionBackend &inner, const a3::Vector &query,
             Tracer &tracer, std::uint32_t parent,
             std::uint64_t request, ProbeTotals &totals,
             double &search, double &post, double &datapath);

  private:
    void kernels(const a3::QuantizedAttention &stage, Tracer &tracer,
                 std::uint32_t parent, std::uint64_t request,
                 ProbeTotals &totals);

    std::vector<std::uint32_t> candidates_;
    std::vector<std::uint32_t> kept_;
    std::vector<float> scores_;
    a3::AttentionResult out_;
    std::vector<std::int8_t> lanes_;
    std::vector<std::int8_t> query8_;
    std::vector<std::int32_t> dots_;
    std::vector<std::int64_t> accum_;
};

/** The engine / sharded_backend / attention / kernels metrics. */
void addEngineMetrics(const ProbeTotals &totals, std::size_t lanes,
                      double workUnitsPerQuery, LayerValues &out);

/** Run `body` inside a probe span; returns its wall seconds. */
template <typename Body>
double
timed(Tracer &tracer, const char *name, std::uint64_t request,
      std::uint32_t parent, Body &&body)
{
    const std::uint32_t id =
        tracer.open(name, request, parent, Track::Probe);
    const double start = nowSeconds();
    body();
    const double seconds = nowSeconds() - start;
    tracer.close(id);
    return seconds;
}

/** driver.layer_coverage and the per-layer drain shares. */
double layerCoverage(const ProbeTotals &totals);
Json shareJson(const ProbeTotals &totals);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_HPP
