#include "probe.hpp"

#include <algorithm>
#include <numeric>

#include "attention/approx_attention.hpp"
#include "attention/post_scoring.hpp"
#include "attention/quantized.hpp"
#include "kernels/kernels.hpp"
#include "kernels/scratch.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace {

/** Bytes one K or V row occupies in the resolved lane layout. */
double
rowBytes(a3::PackedKvFormat format, std::size_t dims)
{
    switch (format) {
    case a3::PackedKvFormat::Int8: return static_cast<double>(dims);
    case a3::PackedKvFormat::Int4:
        return static_cast<double>((dims + 1) / 2);
    default: return 4.0 * static_cast<double>(dims);
    }
}

double
perCall(double seconds, std::size_t calls, double scale)
{
    return calls == 0 ? 0.0 : seconds / static_cast<double>(calls) * scale;
}

}  // namespace

void
attribute(const BatchLayers &batch, ProbeTotals &totals)
{
    totals.bandSeconds += batch.band;
    totals.passSeconds += batch.pass;
    totals.serialSeconds += batch.serial;
    // The re-run pass stands in for the engine's share of the in-band
    // time, capped at that time; the rest is the caller's self time.
    const double engine = std::min(batch.pass, batch.band);
    totals.selfShare += batch.band - engine;
    double named = 0.0;
    for (const auto &layer : batch.layers)
        named += layer.second;
    // Layer sums can exceed the serial total by timer noise; never
    // attribute more than the engine's share.
    const double total = std::max(batch.serial, named);
    const double scale = total <= 0.0 ? 0.0 : engine / total;
    for (const auto &layer : batch.layers) {
        auto it = std::find_if(
            totals.layerShare.begin(), totals.layerShare.end(),
            [&](const auto &entry) { return entry.first == layer.first; });
        if (it == totals.layerShare.end()) {
            totals.layerShare.emplace_back(layer.first, 0.0);
            it = totals.layerShare.end() - 1;
        }
        it->second += layer.second * scale;
    }
}

double
layerCoverage(const ProbeTotals &totals)
{
    if (totals.bandSeconds <= 0.0)
        return 0.0;
    double covered = totals.selfShare;
    for (const auto &layer : totals.layerShare)
        covered += layer.second;
    return std::min(1.0, covered / totals.bandSeconds);
}

Json
shareJson(const ProbeTotals &totals)
{
    Json json;
    const double band = std::max(totals.bandSeconds, 1e-12);
    json.number("caller_self", totals.selfShare / band);
    for (const auto &layer : totals.layerShare)
        json.number(layer.first, layer.second / band);
    json.number("unexplained", 1.0 - layerCoverage(totals));
    return json;
}

void
ModuleProbe::run(const a3::AttentionBackend &inner,
                 const a3::Vector &query, Tracer &tracer,
                 std::uint32_t parent, std::uint64_t request,
                 ProbeTotals &totals, double &search, double &post,
                 double &datapath)
{
    const a3::QuantizedAttention *stage = nullptr;
    bool scoresCandidates = false;
    double searchS = 0.0, postS = 0.0, datapathS = 0.0;
    std::size_t iterations = 0;
    if (const auto *aq =
            dynamic_cast<const a3::ApproxQuantizedAttention *>(&inner)) {
        stage = &aq->datapath();
        scoresCandidates = true;
        const a3::ApproxConfig &config = aq->selection().config();
        a3::Scratch &scratch = a3::Scratch::forThread();
        searchS = timed(tracer, "ApproxAttention::candidateRowsInto",
                        request, parent, [&] {
                            iterations = aq->selection().candidateRowsInto(
                                query, scratch);
                        });
        candidates_.assign(scratch.rowIds.begin(), scratch.rowIds.end());
        datapathS += timed(tracer, "QuantizedAttention::runRowsInto",
                           request, parent, [&] {
                               stage->runRowsInto(query, candidates_, out_);
                           });
        kept_ = candidates_;
        if (config.postScoring) {
            postS = timed(tracer, "postScoringSelectInto", request, parent,
                          [&] {
                              scores_.resize(candidates_.size());
                              for (std::size_t i = 0; i < candidates_.size();
                                   ++i)
                                  scores_[i] = out_.scores[candidates_[i]];
                              a3::postScoringSelectInto(candidates_, scores_,
                                                        config.scoreGap(),
                                                        kept_);
                          });
            datapathS += timed(tracer, "QuantizedAttention::runRowsInto",
                               request, parent, [&] {
                                   stage->runRowsInto(query, kept_, out_);
                               });
        }
    } else if (const auto *q =
                   dynamic_cast<const a3::QuantizedAttention *>(&inner)) {
        stage = q;
        candidates_.resize(q->rows());
        std::iota(candidates_.begin(), candidates_.end(), 0u);
        kept_ = candidates_;
        datapathS = timed(tracer, "QuantizedAttention::runRowsInto",
                          request, parent, [&] {
                              q->runRowsInto(query, candidates_, out_);
                          });
    } else {
        a3::fatal("perfbench: the module probe covers the quantized "
                  "backend kinds only, got ", inner.name());
    }

    totals.searchSeconds += searchS;
    totals.postSeconds += postS;
    totals.datapathSeconds += datapathS;
    totals.keptRows += static_cast<double>(kept_.size());
    totals.iterations += static_cast<double>(iterations);
    // Bytes the datapath reads: the key row of every candidate scored,
    // plus key and value rows of every kept row (the approx flow scores
    // candidates, then re-runs the kept rows).
    const double lane = rowBytes(stage->packedFormat(), stage->dims());
    totals.bytes += lane * static_cast<double>(
                               (scoresCandidates ? candidates_.size() : 0) +
                               2 * kept_.size());
    search += searchS;
    post += postS;
    datapath += datapathS;
    kernels(*stage, tracer, parent, request, totals);
}

void
ModuleProbe::kernels(const a3::QuantizedAttention &stage, Tracer &tracer,
                     std::uint32_t parent, std::uint64_t request,
                     ProbeTotals &totals)
{
    const std::size_t rows = stage.rows();
    const std::size_t dims = stage.dims();
    // The kernel table serves the packed lanes; the benchmark's word32
    // lane (chat_churn) runs its own per-element loops, so there is
    // nothing to time for it, and no workload packs int4.
    if (stage.packedFormat() != a3::PackedKvFormat::Int8)
        return;
    // The packed lanes are private to the datapath, so the kernels run
    // on seeded lanes of the same shape; their cost depends on the
    // shape, not the values.
    if (lanes_.size() < rows * dims) {
        a3::Rng rng(rows * 1315423911ull + dims);
        lanes_.resize(rows * dims);
        for (std::int8_t &v : lanes_)
            v = static_cast<std::int8_t>(rng.uniformInt(-127, 127));
        query8_.resize(dims);
        for (std::int8_t &v : query8_)
            v = static_cast<std::int8_t>(rng.uniformInt(-7, 7));
    }
    const a3::Kernels &k = a3::activeKernels();
    dots_.resize(candidates_.size());
    accum_.assign(dims, 0);
    totals.gatherSeconds += timed(
        tracer, "kernels.gatherDotI8", request, parent, [&] {
            k.gatherDotI8(lanes_.data(), dims, candidates_.data(),
                          candidates_.size(), query8_.data(), dots_.data());
        });
    ++totals.gatherCalls;
    totals.axpySeconds +=
        timed(tracer, "kernels.axpyI8", request, parent, [&] {
            for (std::uint32_t r : kept_)
                k.axpyI8(3, lanes_.data() + r * dims, accum_.data(), dims);
        });
    totals.axpyCalls += kept_.size();
}

void
addEngineMetrics(const ProbeTotals &t, std::size_t lanes,
                 double workUnitsPerQuery, LayerValues &out)
{
    const double batches = std::max<std::size_t>(1, t.batches);
    const double queries = std::max<std::size_t>(1, t.queries);
    out["engine.work_units_per_query"] = workUnitsPerQuery;
    out["engine.pass_ms"] = t.passSeconds / batches * 1e3;
    out["engine.serial_ms"] = t.serialSeconds / batches * 1e3;
    out["engine.parallel_efficiency"] =
        t.passSeconds <= 0.0
            ? 0.0
            : t.serialSeconds / (t.passSeconds * static_cast<double>(lanes));
    out["sharded_backend.unit_us"] = perCall(t.unitSeconds, t.units, 1e6);
    out["sharded_backend.merge_us"] = perCall(t.mergeSeconds, t.merges, 1e6);
    out["attention.candidate_search_us"] = t.searchSeconds / queries * 1e6;
    out["attention.post_scoring_us"] = t.postSeconds / queries * 1e6;
    out["attention.datapath_us"] = t.datapathSeconds / queries * 1e6;
    out["attention.kept_rows_per_query"] = t.keptRows / queries;
    out["attention.search_iterations_per_query"] = t.iterations / queries;
    out["kernels.gather_dot_ns"] = perCall(t.gatherSeconds, t.gatherCalls, 1e9);
    out["kernels.axpy_ns"] = perCall(t.axpySeconds, t.axpyCalls, 1e9);
    out["kernels.bytes_per_query"] = t.bytes / queries;
}

}  // namespace perfbench
