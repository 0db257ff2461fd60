#include "fixed/format.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace a3 {

double
FixedFormat::resolution() const
{
    return std::ldexp(1.0, -fracBits);
}

double
FixedFormat::maxValue() const
{
    return toDouble(maxRaw());
}

double
FixedFormat::minValue() const
{
    return toDouble(minRaw());
}

std::int64_t
FixedFormat::quantize(double value) const
{
    const double scaled = std::ldexp(value, fracBits);
    // Round half to even, matching typical synthesized rounding logic.
    const double rounded = std::nearbyint(scaled);
    if (rounded >= static_cast<double>(maxRaw()))
        return maxRaw();
    if (rounded <= static_cast<double>(minRaw()))
        return minRaw();
    return static_cast<std::int64_t>(rounded);
}

double
FixedFormat::toDouble(std::int64_t raw) const
{
    return std::ldexp(static_cast<double>(raw), -fracBits);
}

std::int64_t
FixedFormat::saturate(std::int64_t raw) const
{
    if (raw > maxRaw())
        return maxRaw();
    if (raw < minRaw())
        return minRaw();
    return raw;
}

std::string
FixedFormat::str() const
{
    return "Q" + std::to_string(intBits) + "." + std::to_string(fracBits);
}

}  // namespace a3
