#pragma once
// Amplitude/power spectra and spectral feature extraction.
//
// The DLI-style rule engine reasons over "orders" — spectral amplitude at
// multiples of shaft speed — so this module offers both a raw Hz-axis
// spectrum and an order-normalized view, plus peak extraction with parabolic
// interpolation for sub-bin frequency accuracy.

#include <cstddef>
#include <span>
#include <vector>

#include "mpros/dsp/fft.hpp"
#include "mpros/dsp/window.hpp"

namespace mpros::dsp {

/// Single-sided amplitude spectrum of a real signal.
struct Spectrum {
  std::vector<double> amplitude;  // peak amplitude per bin (signal units)
  double bin_hz = 0.0;            // frequency resolution
  double sample_rate_hz = 0.0;

  [[nodiscard]] std::size_t bins() const { return amplitude.size(); }
  [[nodiscard]] double freq_of_bin(std::size_t i) const {
    return static_cast<double>(i) * bin_hz;
  }
  /// Amplitude at the bin nearest `hz` (0 beyond Nyquist).
  [[nodiscard]] double amplitude_at(double hz) const;
  /// Largest amplitude in [lo_hz, hi_hz].
  [[nodiscard]] double band_peak(double lo_hz, double hi_hz) const;
  /// Sum of squared amplitudes in [lo_hz, hi_hz] (band energy proxy).
  [[nodiscard]] double band_energy(double lo_hz, double hi_hz) const;
  /// Total energy across all bins.
  [[nodiscard]] double total_energy() const;
};

/// Single-sided complex spectrum: the windowed FFT's half spectrum plus the
/// scale that turns one bin into a Spectrum amplitude. Band reads compute a
/// bin's magnitude only when they reach it, so a feature that reads a few
/// dozen bins pays for a few dozen magnitudes, not for all n/2 + 1.
///
/// `half` views the calling thread's DspScratch complex lane 0. It stays
/// valid until the next spectral routine on this thread (amplitude_spectrum,
/// half_spectrum, welch_psd, envelope, cepstrum, ...); read every band first.
struct HalfSpectrum {
  std::span<const Complex> half;  // bins 0 .. n/2 of an n-point FFT
  double coherent_gain = 1.0;     // window coherent gain
  double bin_hz = 0.0;

  [[nodiscard]] std::size_t bins() const { return half.size(); }
  /// Bin i's amplitude: bit for bit Spectrum::amplitude[i] of the same input.
  [[nodiscard]] double amplitude(std::size_t i) const {
    double a = std::abs(half[i]) / coherent_gain;
    if (i != 0 && i + 1 != half.size()) a *= 2.0;
    return a;
  }
  /// Spectrum::band_peak over the bins the band covers.
  [[nodiscard]] double band_peak(double lo_hz, double hi_hz) const;
  /// Spectrum::band_energy over the bins the band covers.
  [[nodiscard]] double band_energy(double lo_hz, double hi_hz) const;
};

struct SpectrumConfig {
  WindowKind window = WindowKind::Hann;
  std::size_t fft_size = 0;  // 0 = next power of two >= input length
};

/// Compute a single-sided amplitude spectrum. Amplitudes are corrected for
/// window coherent gain so a unit sine reads ~1.0 at its bin.
[[nodiscard]] Spectrum amplitude_spectrum(std::span<const double> x,
                                          double sample_rate_hz,
                                          const SpectrumConfig& cfg = {});

/// Allocation-free variant: writes into `out`, reusing its capacity. With a
/// warmed PlanCache/WindowCache and a steady transform size this performs
/// zero heap allocation.
void amplitude_spectrum(std::span<const double> x, double sample_rate_hz,
                        const SpectrumConfig& cfg, Spectrum& out);

/// The same windowed transform as amplitude_spectrum, left complex: one
/// magnitude per bin read instead of one per bin. Allocation-free once the
/// caches and the scratch lanes are warm; see HalfSpectrum for how long the
/// result stays valid.
[[nodiscard]] HalfSpectrum half_spectrum(std::span<const double> x,
                                         double sample_rate_hz,
                                         const SpectrumConfig& cfg = {});

/// Welch-averaged power spectral density over 50%-overlapping segments.
/// Returns per-bin power (signal units squared per bin).
[[nodiscard]] Spectrum welch_psd(std::span<const double> x,
                                 double sample_rate_hz,
                                 std::size_t segment_size,
                                 WindowKind window = WindowKind::Hann);

/// Allocation-free variant of welch_psd; see amplitude_spectrum above.
void welch_psd(std::span<const double> x, double sample_rate_hz,
               std::size_t segment_size, WindowKind window, Spectrum& out);

struct SpectralPeak {
  double freq_hz = 0.0;
  double amplitude = 0.0;
};

/// Extract up to `max_peaks` local maxima above `min_amplitude`, strongest
/// first, with parabolic interpolation of frequency and amplitude.
/// Flat-topped (2-bin plateau) peaks — common when a tone lands exactly
/// between bins — are reported once, centered on the plateau.
[[nodiscard]] std::vector<SpectralPeak> find_peaks(const Spectrum& s,
                                                   std::size_t max_peaks,
                                                   double min_amplitude = 0.0);

/// Amplitude at a given order (multiple of shaft speed), searching within
/// ±`tolerance` orders to absorb speed estimation error.
[[nodiscard]] double order_amplitude(const Spectrum& s, double shaft_hz,
                                     double order, double tolerance = 0.05);
[[nodiscard]] double order_amplitude(const HalfSpectrum& s, double shaft_hz,
                                     double order, double tolerance = 0.05);

}  // namespace mpros::dsp
