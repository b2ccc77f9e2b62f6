#pragma once
// Wavelet feature maps for the WNN classifier.
//
// The paper (§6.2) lists the classifier's inputs: "peak of the signal
// amplitude, standard deviation, cepstrum, DCT coefficients, wavelet maps,
// temperature, humidity, speed, and mass". This module produces the wavelet
// portion: per-scale energies and shannon entropy — a compact, shift-tolerant
// description of transients.

#include <cstddef>
#include <span>
#include <vector>

#include "mpros/wavelet/dwt.hpp"

namespace mpros::wavelet {

/// Per-scale relative energy of a decomposition: details first (finest to
/// coarsest), then the approximation. Sums to 1 for a nonzero signal.
[[nodiscard]] std::vector<double> energy_map(const Decomposition& d);

/// Shannon entropy of the relative energy map (high = energy spread across
/// scales, low = concentrated — transients concentrate in fine scales).
[[nodiscard]] double energy_entropy(const Decomposition& d);

/// Max absolute detail coefficient per scale (transient strength indicator).
[[nodiscard]] std::vector<double> peak_map(const Decomposition& d);

/// Convenience: decompose and return {energy_map..., entropy}.
[[nodiscard]] std::vector<double> wavelet_feature_vector(
    std::span<const double> x, Family f, std::size_t levels);

/// Allocation-free variant: writes the levels + 2 values into `out`,
/// running the pyramid in the thread's DspScratch wavelet lane.
void wavelet_feature_vector(std::span<const double> x, Family f,
                            std::size_t levels, std::span<double> out);

}  // namespace mpros::wavelet
