/**
 * @file
 * Runtime-parameterized fixed-point formats.
 *
 * A3 quantizes floating-point inputs to `i` integer bits and `f` fraction
 * bits plus a sign bit (Section III-B), then widens the format stage by
 * stage through the pipeline so that no precision is lost and no overflow
 * can occur. Formats are runtime values (not template parameters) because
 * the derived widths depend on the runtime n and d of the attention task.
 */

#ifndef A3_FIXED_FORMAT_HPP
#define A3_FIXED_FORMAT_HPP

#include <cstdint>
#include <string>

#include "util/logging.hpp"

namespace a3 {

/**
 * A signed fixed-point format with `intBits` integer bits and `fracBits`
 * fraction bits plus an implicit sign bit. A raw value `r` represents the
 * real number `r * 2^-fracBits`.
 */
struct FixedFormat
{
    int intBits = 0;
    int fracBits = 0;

    /** Total storage width including the sign bit. */
    int totalBits() const { return intBits + fracBits + 1; }

    /** Largest representable raw value: 2^(intBits+fracBits) - 1. */
    std::int64_t maxRaw() const
    {
        a3Assert(intBits + fracBits < 63, "fixed-point format too wide");
        return (std::int64_t{1} << (intBits + fracBits)) - 1;
    }

    /**
     * Smallest representable raw value: -maxRaw(). Symmetric range:
     * -maxRaw rather than -(maxRaw + 1). Restricting the most negative
     * code keeps the product of two (i, f) words inside (2i, 2f) even
     * at the corner (-2^i) * (-2^i), the same reason fixed-point
     * accelerators quantize symmetrically.
     */
    std::int64_t minRaw() const { return -maxRaw(); }

    /** Value of one least-significant bit. */
    double resolution() const;

    /** Largest representable real value. */
    double maxValue() const;

    /** Smallest (most negative) representable real value. */
    double minValue() const;

    /** True when `raw` fits this format without saturation (inline:
     *  the quantized datapath checks every row's stage values). */
    bool fits(std::int64_t raw) const
    {
        const std::int64_t max = maxRaw();
        return raw >= -max && raw <= max;
    }

    /**
     * Quantize a real value: round-to-nearest-even at the format
     * resolution, then saturate to the representable range.
     */
    std::int64_t quantize(double value) const;

    /** Reconstruct the real value of a raw word. */
    double toDouble(std::int64_t raw) const;

    /** Saturate an arbitrary raw word into this format. */
    std::int64_t saturate(std::int64_t raw) const;

    /** Human-readable form like "Q4.4" (intBits.fracBits). */
    std::string str() const;

    bool operator==(const FixedFormat &other) const = default;
};

}  // namespace a3

#endif  // A3_FIXED_FORMAT_HPP
