#pragma once
// Envelope (demodulation) analysis for rolling-element bearings.
//
// Bearing defects excite high-frequency structural resonances at the defect
// passing rate; the envelope spectrum of the band-passed signal shows the
// defect tone directly. Standard practice in the DLI-style rule set.

#include <cstddef>
#include <span>
#include <vector>

namespace mpros::dsp {

/// Analytic-signal magnitude |x + i*H(x)| via the FFT method. Output has the
/// same length as the input (input is internally zero-padded to a power of
/// two; the pad is discarded).
[[nodiscard]] std::vector<double> envelope(std::span<const double> x);

/// Envelope after an FFT-domain band-pass in [lo_hz, hi_hz]; this is the
/// classic "high-frequency resonance technique" front end.
[[nodiscard]] std::vector<double> envelope_bandpassed(
    std::span<const double> x, double sample_rate_hz, double lo_hz,
    double hi_hz);

/// Allocation-free variant of envelope_bandpassed; `out` holds x.size()
/// entries.
void envelope_bandpassed(std::span<const double> x, double sample_rate_hz,
                         double lo_hz, double hi_hz, std::span<double> out);

}  // namespace mpros::dsp
