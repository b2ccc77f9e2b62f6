#pragma once
// Real cepstrum.
//
// Listed by the paper (§6.2) among the WNN's input features. The cepstrum
// turns harmonic families (gear mesh sidebands, bearing tone harmonics) into
// single quefrency peaks, which makes them easy classifier inputs.

#include <cstddef>
#include <span>
#include <vector>

namespace mpros::dsp {

/// Real cepstrum: IFFT(log(|FFT(x)| + eps)). Output length equals the FFT
/// size (power of two >= x.size(); pass 0 to choose automatically).
[[nodiscard]] std::vector<double> real_cepstrum(std::span<const double> x,
                                                std::size_t fft_size = 0);

/// Allocation-free variant: the FFT size is out.size(), a power of two
/// >= max(x.size(), 4).
void real_cepstrum(std::span<const double> x, std::span<double> out);

/// Quefrency (seconds) of the strongest cepstral peak in
/// [min_quefrency_s, max_quefrency_s]; 0 if the range is empty.
[[nodiscard]] double dominant_quefrency(std::span<const double> cepstrum,
                                        double sample_rate_hz,
                                        double min_quefrency_s,
                                        double max_quefrency_s);

}  // namespace mpros::dsp
