#include "attention/quantized.hpp"

#include <algorithm>
#include <numeric>
#include <type_traits>
#include <utility>

#include "kernels/kernels.hpp"
#include "net/wire.hpp"
#include "util/logging.hpp"

namespace a3 {

namespace {

/**
 * Width rules of the integer datapath that depend only on the stage
 * formats, so they are checked whenever the formats are derived (at
 * construction and in append()) instead of once per element: input
 * words ride int32 lanes, and every weighted value w * v — mulFull's
 * (iw + i, fw + f) product — fits the int64 output accumulators.
 */
void
checkDatapathWidths(const PipelineFormats &pf)
{
    a3Assert(pf.input.totalBits() <= 32, "input format ",
             pf.input.str(), " exceeds the 32-bit word lane");
    const FixedFormat product{pf.weight.intBits + pf.input.intBits,
                              pf.weight.fracBits + pf.input.fracBits};
    a3Assert(product.totalBits() <= 63,
             "weighted-value product too wide: ", product.str());
}

}  // namespace

QuantizedAttention::QuantizedAttention(int intBits, int fracBits,
                                       std::size_t maxRows,
                                       std::size_t dims)
    : formats_(PipelineFormats::derive(intBits, fracBits, maxRows, dims)),
      lut_(2 * fracBits, 2 * fracBits),
      maxRows_(maxRows), dims_(dims)
{
    checkDatapathWidths(formats_);
}

QuantizedAttention::QuantizedAttention(Matrix key, Matrix value,
                                       int intBits, int fracBits,
                                       PackedKvFormat packedKv)
    : QuantizedAttention(intBits, fracBits, key.rows(), key.cols())
{
    a3Assert(key.rows() == value.rows() && key.cols() == value.cols(),
             "key/value shape mismatch");
    a3Assert(key.rows() > 0 && key.cols() > 0,
             "attention task must be non-empty");

    packed_ = resolvePackedKvFormat(packedKv, intBits, fracBits);
    if (packed_ != PackedKvFormat::Word32) {
        // The packed kernels accumulate in int32; the derived dot
        // format must fit (it always does for byte-narrow words at
        // any realistic d — this guards absurd dimensions).
        a3Assert(formats_.dotProduct.totalBits() <= 32,
                 "dot-product format exceeds the packed kernels' "
                 "32-bit accumulator; use PackedKvFormat::Word32");
    }

    // Quantize the task once at bind time — the host copies quantized
    // matrices into the accelerator SRAM exactly once per task — and
    // drop the float originals: every runInto() reads the cached words
    // instead of re-quantizing n x d floats per query.
    const std::size_t n = key.rows();
    const std::size_t d = key.cols();
    boundRows_ = n;
    bound_ = true;
    packRows(key, value, n);
    Scratch::forThread().reserveTask(n, d);
}

void
QuantizedAttention::packRows(const Matrix &keyRows,
                             const Matrix &valueRows, std::size_t count)
{
    const FixedFormat inFmt = formats_.input;
    const std::size_t d = dims_;
    if (packed_ != PackedKvFormat::Word32) {
        // Every row shares the symmetric quantizer's resolution today;
        // stored per row so the dequant path already consumes the
        // layout a per-row-range scheme would produce. Word32 keeps no
        // scale metadata: the legacy layout is preserved exactly.
        const float scale = static_cast<float>(inFmt.resolution());
        keyScale_.reserve(keyScale_.size() + count);
        valueScale_.reserve(valueScale_.size() + count);
        for (std::size_t r = 0; r < count; ++r) {
            keyScale_.push_back(scale);
            valueScale_.push_back(scale);
        }
    }
    switch (packed_) {
    case PackedKvFormat::Word32:
        keyQ_.reserve(keyQ_.size() + count * d);
        valueQ_.reserve(valueQ_.size() + count * d);
        for (std::size_t i = 0; i < count * d; ++i) {
            keyQ_.push_back(static_cast<std::int32_t>(
                inFmt.quantize(keyRows.data()[i])));
            valueQ_.push_back(static_cast<std::int32_t>(
                inFmt.quantize(valueRows.data()[i])));
        }
        break;
    case PackedKvFormat::Int8:
        keyQ8_.reserve(keyQ8_.size() + count * d);
        valueQ8_.reserve(valueQ8_.size() + count * d);
        for (std::size_t i = 0; i < count * d; ++i) {
            keyQ8_.push_back(static_cast<std::int8_t>(
                inFmt.quantize(keyRows.data()[i])));
            valueQ8_.push_back(static_cast<std::int8_t>(
                inFmt.quantize(valueRows.data()[i])));
        }
        break;
    case PackedKvFormat::Int4: {
        const std::size_t rowBytes = (d + 1) / 2;
        keyQ4_.reserve(keyQ4_.size() + count * rowBytes);
        valueQ4_.reserve(valueQ4_.size() + count * rowBytes);
        for (std::size_t r = 0; r < count; ++r) {
            for (std::size_t j = 0; j < d; j += 2) {
                const auto lane = [&](const Matrix &m,
                                      std::size_t col) -> std::int8_t {
                    return col < d ? static_cast<std::int8_t>(
                                         inFmt.quantize(m(r, col)))
                                   : std::int8_t{0};
                };
                keyQ4_.push_back(packNibblePair(lane(keyRows, j),
                                                lane(keyRows, j + 1)));
                valueQ4_.push_back(packNibblePair(
                    lane(valueRows, j), lane(valueRows, j + 1)));
            }
        }
        break;
    }
    case PackedKvFormat::Auto:
        panic("packed_ must be resolved before packRows()");
    }
}

std::size_t
QuantizedAttention::rows() const
{
    return bound_ ? boundRows_ : maxRows_;
}

void
QuantizedAttention::append(const Matrix &keyRows, const Matrix &valueRows)
{
    a3Assert(bound_, "append() needs a bound task; use the "
                     "(key, value, intBits, fracBits) constructor");
    a3Assert(keyRows.rows() == valueRows.rows() &&
                 keyRows.cols() == valueRows.cols(),
             "appended key/value shape mismatch");
    a3Assert(keyRows.cols() == dims_,
             "appended rows must match the task dimension");
    const std::size_t k = keyRows.rows();
    if (k == 0)
        return;

    const FixedFormat inFmt = formats_.input;
    packRows(keyRows, valueRows, k);
    boundRows_ += k;
    maxRows_ = boundRows_;
    // Re-derive the stage widths for the grown n: only the expSum and
    // output capacity annotations change — every fraction width stays,
    // so existing words and future results are unaffected beyond the
    // larger legal range.
    formats_ = PipelineFormats::derive(inFmt.intBits, inFmt.fracBits,
                                       boundRows_, dims_);
    checkDatapathWidths(formats_);
    Scratch::forThread().reserveTask(boundRows_, dims_);
}

std::unique_ptr<AttentionBackend>
QuantizedAttention::clone() const
{
    // Member-wise copy: lanes, scales, formats, and the LUT are all
    // plain values, so the clone is bit-identical in queries.
    return std::unique_ptr<AttentionBackend>(
        new QuantizedAttention(*this));
}

std::size_t
QuantizedAttention::compact()
{
    std::size_t reclaimed = 0;
    const auto shrink = [&reclaimed](auto &lane) {
        using Elem = typename std::decay_t<decltype(lane)>::value_type;
        const std::size_t before = lane.capacity();
        lane.shrink_to_fit();
        reclaimed += (before - lane.capacity()) * sizeof(Elem);
    };
    shrink(keyQ_);
    shrink(valueQ_);
    shrink(keyQ8_);
    shrink(valueQ8_);
    shrink(keyQ4_);
    shrink(valueQ4_);
    shrink(keyScale_);
    shrink(valueScale_);
    return reclaimed;
}

void
QuantizedAttention::serializeState(WireWriter &out) const
{
    a3Assert(bound_, "serializeState() needs a bound task");
    out.u64(boundRows_);
    out.u64(dims_);
    out.u8(static_cast<std::uint8_t>(packed_));
    out.floats(keyScale_.data(), keyScale_.size());
    out.floats(valueScale_.data(), valueScale_.size());
    switch (packed_) {
    case PackedKvFormat::Word32:
        // int32 words travel as their two's-complement bit patterns.
        out.u32s(reinterpret_cast<const std::uint32_t *>(keyQ_.data()),
                 keyQ_.size());
        out.u32s(
            reinterpret_cast<const std::uint32_t *>(valueQ_.data()),
            valueQ_.size());
        break;
    case PackedKvFormat::Int8:
        out.blob(reinterpret_cast<const std::uint8_t *>(keyQ8_.data()),
                 keyQ8_.size());
        out.blob(
            reinterpret_cast<const std::uint8_t *>(valueQ8_.data()),
            valueQ8_.size());
        break;
    case PackedKvFormat::Int4:
        out.blob(keyQ4_.data(), keyQ4_.size());
        out.blob(valueQ4_.data(), valueQ4_.size());
        break;
    case PackedKvFormat::Auto:
        panic("bound datapath cannot hold an unresolved layout");
    }
}

std::unique_ptr<QuantizedAttention>
QuantizedAttention::restore(const EngineConfig &config, WireReader &in)
{
    const std::uint64_t rows = in.u64();
    const std::uint64_t dims = in.u64();
    const std::uint8_t packedRaw = in.u8();
    if (!in.ok() || rows == 0 || dims == 0)
        return nullptr;
    const PackedKvFormat expected = resolvePackedKvFormat(
        config.packedKv, config.intBits, config.fracBits);
    if (packedRaw != static_cast<std::uint8_t>(expected))
        return nullptr;

    // The sized constructor re-derives the stage formats and the
    // exponent LUT — both deterministic functions of the config and
    // shape, so recomputing them is bit-identical to the original.
    auto backend = std::make_unique<QuantizedAttention>(
        config.intBits, config.fracBits,
        static_cast<std::size_t>(rows),
        static_cast<std::size_t>(dims));
    backend->packed_ = expected;
    in.floats(backend->keyScale_);
    in.floats(backend->valueScale_);

    const std::size_t n = static_cast<std::size_t>(rows);
    const std::size_t d = static_cast<std::size_t>(dims);
    const std::size_t scaleCount =
        expected == PackedKvFormat::Word32 ? 0 : n;
    if (!in.ok() || backend->keyScale_.size() != scaleCount ||
        backend->valueScale_.size() != scaleCount)
        return nullptr;

    std::size_t laneCount = 0;
    switch (expected) {
    case PackedKvFormat::Word32: {
        std::vector<std::uint32_t> words;
        in.u32s(words);
        laneCount = words.size();
        backend->keyQ_.assign(
            reinterpret_cast<const std::int32_t *>(words.data()),
            reinterpret_cast<const std::int32_t *>(words.data()) +
                words.size());
        in.u32s(words);
        if (words.size() != laneCount)
            return nullptr;
        backend->valueQ_.assign(
            reinterpret_cast<const std::int32_t *>(words.data()),
            reinterpret_cast<const std::int32_t *>(words.data()) +
                words.size());
        if (laneCount != n * d)
            return nullptr;
        break;
    }
    case PackedKvFormat::Int8: {
        std::vector<std::uint8_t> bytes;
        in.blob(bytes);
        laneCount = bytes.size();
        backend->keyQ8_.assign(
            reinterpret_cast<const std::int8_t *>(bytes.data()),
            reinterpret_cast<const std::int8_t *>(bytes.data()) +
                bytes.size());
        in.blob(bytes);
        if (bytes.size() != laneCount)
            return nullptr;
        backend->valueQ8_.assign(
            reinterpret_cast<const std::int8_t *>(bytes.data()),
            reinterpret_cast<const std::int8_t *>(bytes.data()) +
                bytes.size());
        if (laneCount != n * d)
            return nullptr;
        break;
    }
    case PackedKvFormat::Int4:
        in.blob(backend->keyQ4_);
        in.blob(backend->valueQ4_);
        laneCount = backend->keyQ4_.size();
        if (backend->valueQ4_.size() != laneCount ||
            laneCount != n * ((d + 1) / 2))
            return nullptr;
        break;
    case PackedKvFormat::Auto:
        return nullptr;
    }
    if (!in.ok())
        return nullptr;

    backend->boundRows_ = n;
    backend->bound_ = true;
    Scratch::forThread().reserveTask(n, d);
    return backend;
}

std::size_t
QuantizedAttention::memoryBytes() const
{
    const std::size_t lanes =
        (keyQ_.size() + valueQ_.size()) * sizeof(std::int32_t) +
        (keyQ8_.size() + valueQ8_.size()) * sizeof(std::int8_t) +
        (keyQ4_.size() + valueQ4_.size()) * sizeof(std::uint8_t);
    const std::size_t scales =
        (keyScale_.size() + valueScale_.size()) * sizeof(float);
    return lanes + scales;
}

void
QuantizedAttention::runInto(const Vector &query,
                            AttentionResult &out) const
{
    a3Assert(bound_, "one-argument run() needs a bound task; use the "
                     "(key, value, intBits, fracBits) constructor");
    Scratch &scratch = Scratch::forThread();
    scratch.rowIds.resize(boundRows_);
    std::iota(scratch.rowIds.begin(), scratch.rowIds.end(), 0u);
    runCore(boundRows_, packed_, keyQ_.data(), valueQ_.data(), query,
            scratch.rowIds, out, scratch);
}

void
QuantizedAttention::runRowsInto(const Vector &query,
                                std::span<const std::uint32_t> rows,
                                AttentionResult &out) const
{
    a3Assert(bound_, "runRowsInto() needs a bound task");
    runCore(boundRows_, packed_, keyQ_.data(), valueQ_.data(), query,
            rows, out, Scratch::forThread());
}

AttentionResult
QuantizedAttention::run(const Matrix &key, const Matrix &value,
                        const Vector &query) const
{
    std::vector<std::uint32_t> all(key.rows());
    std::iota(all.begin(), all.end(), 0u);
    return run(key, value, query, all);
}

AttentionResult
QuantizedAttention::run(const Matrix &key, const Matrix &value,
                        const Vector &query,
                        const std::vector<std::uint32_t> &rows) const
{
    a3Assert(key.rows() == value.rows() && key.cols() == value.cols(),
             "key/value shape mismatch");
    const std::size_t n = key.rows();
    const std::size_t d = dims_;
    a3Assert(key.cols() == d && n <= maxRows_,
             "task exceeds the sized pipeline capacity (", n, "x",
             key.cols(), " vs ", maxRows_, "x", d, ")");

    // Quantize just the rows this run reads into the thread's word32
    // task lanes, then take the same kernel path as a bound datapath:
    // quantization is deterministic, so the words are the ones a bind
    // of this task would cache.
    Scratch &scratch = Scratch::forThread();
    scratch.taskKeyQ.resize(n * d);
    scratch.taskValueQ.resize(n * d);
    const FixedFormat inFmt = formats_.input;
    for (const std::uint32_t r : rows) {
        a3Assert(r < n, "row ", r, " outside the ", n, "-row task");
        for (std::size_t j = 0; j < d; ++j) {
            scratch.taskKeyQ[r * d + j] =
                static_cast<std::int32_t>(inFmt.quantize(key(r, j)));
            scratch.taskValueQ[r * d + j] =
                static_cast<std::int32_t>(inFmt.quantize(value(r, j)));
        }
    }
    AttentionResult out;
    runCore(n, PackedKvFormat::Word32, scratch.taskKeyQ.data(),
            scratch.taskValueQ.data(), query, rows, out, scratch);
    return out;
}

void
QuantizedAttention::runCore(std::size_t n, PackedKvFormat lane,
                            const std::int32_t *keyWords,
                            const std::int32_t *valueWords,
                            const Vector &query,
                            std::span<const std::uint32_t> rows,
                            AttentionResult &result,
                            Scratch &scratch) const
{
    a3Assert(n <= maxRows_,
             "task exceeds the sized pipeline capacity (", n, " rows "
             "vs ", maxRows_, ")");
    a3Assert(!rows.empty(), "quantized pipeline needs at least one row");

    const std::size_t d = dims_;
    const std::size_t m = rows.size();
    const FixedFormat inFmt = formats_.input;
    const bool packedLanes = lane != PackedKvFormat::Word32;
    const Kernels &kern = activeKernels();

    // The int64 accumulators of the I32 dot kernel hold any sum of the
    // dot-product format; a wider format would overflow them.
    a3Assert(formats_.dotProduct.totalBits() <= 63,
             "dot-product format ", formats_.dotProduct.str(),
             " exceeds the 64-bit accumulator");

    // Quantize the query once (host copies the quantized vector in);
    // the constructor checked that input words fit an int32 lane.
    std::vector<std::int32_t> &queryQ = scratch.queryQ;
    queryQ.resize(d);
    for (std::size_t j = 0; j < d; ++j)
        queryQ[j] = static_cast<std::int32_t>(inFmt.quantize(query[j]));

    // --- Module 1: dot products and running max (Figure 5 lines 3-10).
    // Every lane holds the exact quantized words, so the three kernels
    // produce the same integer sums.
    std::vector<std::int64_t> &dotQ = scratch.dotQ;
    dotQ.resize(m);
    if (packedLanes) {
        std::vector<std::int8_t> &queryQ8 = scratch.queryQ8;
        queryQ8.resize(d);
        for (std::size_t j = 0; j < d; ++j)
            queryQ8[j] = static_cast<std::int8_t>(queryQ[j]);
        std::vector<std::int32_t> &dot32 = scratch.dotQ32;
        dot32.resize(m);
        if (lane == PackedKvFormat::Int8)
            kern.gatherDotI8(keyQ8_.data(), d, rows.data(), m,
                             queryQ8.data(), dot32.data());
        else
            kern.gatherDotI4(keyQ4_.data(), d, rows.data(), m,
                             queryQ8.data(), dot32.data());
        std::copy(dot32.begin(), dot32.end(), dotQ.begin());
    } else {
        kern.gatherDotI32(keyWords, d, rows.data(), m, queryQ.data(),
                          dotQ.data());
    }
    std::int64_t maxDot = dotQ[0];
    for (std::size_t i = 0; i < m; ++i) {
        a3Assert(formats_.dotProduct.fits(dotQ[i]),
                 "dot-product stage overflow: Section III-B widths "
                 "violated");
        maxDot = std::max(maxDot, dotQ[i]);
    }

    // --- Module 2: exponent computation (Figure 5 lines 11-16).
    std::vector<std::int64_t> &scoreQ = scratch.scoreQ;
    scoreQ.resize(m);
    std::int64_t expSum = 0;  // (log2 n, 2f)
    for (std::size_t i = 0; i < m; ++i) {
        const std::int64_t shifted = dotQ[i] - maxDot;  // <= 0
        a3Assert(formats_.shiftedDot.fits(shifted),
                 "shifted-dot stage overflow");
        scoreQ[i] = lut_.lookup(shifted);
        expSum += scoreQ[i];
    }
    a3Assert(formats_.expSum.fits(expSum), "expsum stage overflow");
    a3Assert(expSum > 0, "expsum must be positive: the max row scores "
                         "~1 by construction");

    // --- Module 3: weights and output accumulation (lines 17-21).
    // Weights come from the truncating sequential divider of
    // fixed/value.hpp's divide(): score << preShift, integer-divided
    // by expSum, saturated into the weight format. They overwrite
    // scoreQ in place.
    const FixedFormat weightFmt = formats_.weight;
    const int preShift =
        weightFmt.fracBits + formats_.expSum.fracBits -
        formats_.score.fracBits;
    a3Assert(preShift >= 0 &&
                 formats_.score.totalBits() + preShift <= 63,
             "divide pre-shift of ", preShift, " overflows the ",
             formats_.score.str(), " score");
    std::vector<std::int64_t> &weightQ = scoreQ;
    std::int64_t weightSum = 0;
    for (std::size_t i = 0; i < m; ++i) {
        weightQ[i] =
            weightFmt.saturate((scoreQ[i] << preShift) / expSum);
        a3Assert(weightQ[i] >= 0, "negative attention weight ",
                 weightQ[i]);
        weightSum += weightQ[i];
    }
    // Output-stage capacity, checked once per query instead of per
    // element. Each weight is a non-negative truncated share of
    // expSum, so the weights sum to at most 1.0 (2^fw raw in the
    // weight format (0, fw)). Every value word v satisfies |v| <=
    // maxRaw(input) = 2^(i+f) - 1, so after any number of rows each
    // accumulator satisfies |sum_k w_k v_k| <= 2^fw * (2^(i+f) - 1)
    // < 2^(i+f+fw) <= maxRaw(output) + 1, with fw = 2f and output
    // (i + log2 n, 3f): every partial sum fits the output format, and
    // so does every product w * v (mulFull's (i, 3f) result). With
    // the derived formats (score, expSum and weight all carry fw
    // fraction bits) the pre-shift check above bounds fw <= 31, so
    // every weight also fits the int32 operand of axpyI32.
    a3Assert(weightSum <= (std::int64_t{1} << weightFmt.fracBits),
             "attention weights must sum to at most 1.0 (",
             weightSum, " raw in ", weightFmt.str(), ")");

    result.scores.assign(n, 0.0f);
    result.weights.assign(n, 0.0f);
    result.candidates.assign(rows.begin(), rows.end());
    result.kept.assign(rows.begin(), rows.end());
    result.output.assign(d, 0.0f);
    result.iterations = 0;

    std::vector<std::int64_t> &outQ = scratch.outQ;
    outQ.assign(d, 0);
    const std::size_t rowBytes4 = (d + 1) / 2;
    const double queryScale = inFmt.resolution();
    for (std::size_t i = 0; i < m; ++i) {
        const std::uint32_t r = rows[i];
        const std::int64_t w = weightQ[i];
        // Packed rows dequantize through the per-row scale metadata;
        // the scales are powers of two, so the product double(raw) *
        // keyScale * queryScale is exact and bit-identical to the
        // dotProduct format's own toDouble().
        result.scores[r] =
            packedLanes
                ? static_cast<float>(static_cast<double>(dotQ[i]) *
                                     keyScale_[r] * queryScale)
                : static_cast<float>(
                      formats_.dotProduct.toDouble(dotQ[i]));
        result.weights[r] = static_cast<float>(weightFmt.toDouble(w));
        // Accumulate w * v at (i + log2 n, 3f): the weight carries 2f
        // fraction bits and the value f.
        switch (lane) {
        case PackedKvFormat::Word32:
            kern.axpyI32(static_cast<std::int32_t>(w),
                         valueWords + r * d, outQ.data(), d);
            break;
        case PackedKvFormat::Int8:
            kern.axpyI8(w, valueQ8_.data() + r * d, outQ.data(), d);
            break;
        case PackedKvFormat::Int4:
            kern.axpyI4(w, valueQ4_.data() + r * rowBytes4, outQ.data(),
                        d);
            break;
        case PackedKvFormat::Auto:
            panic("bound datapath cannot hold an unresolved layout");
        }
    }
    for (std::size_t j = 0; j < d; ++j) {
        a3Assert(formats_.output.fits(outQ[j]), "output stage overflow");
        result.output[j] =
            static_cast<float>(formats_.output.toDouble(outQ[j]));
    }
}

}  // namespace a3
