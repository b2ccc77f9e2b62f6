#pragma once
// Constants shared by the plant and DSP code.

#include <numbers>

namespace mpros {

constexpr double kPi = std::numbers::pi;
constexpr double kTwoPi = 2.0 * std::numbers::pi;

}  // namespace mpros
