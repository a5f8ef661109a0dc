#include "analog/adc.hpp"

#include <algorithm>

namespace gecko::analog {

Adc::Adc(int bits, double fullScaleV)
    : bits_(bits), fullScaleV_(fullScaleV),
      maxCode_((1u << bits) - 1u)
{
}

double
Adc::toVoltage(std::uint32_t code) const
{
    code = std::min(code, maxCode_);
    return static_cast<double>(code) * fullScaleV_ /
           static_cast<double>(maxCode_ + 1u);
}

}  // namespace gecko::analog
