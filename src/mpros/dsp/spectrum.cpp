#include "mpros/dsp/spectrum.hpp"

#include <algorithm>
#include <cmath>

#include "mpros/common/assert.hpp"
#include "mpros/dsp/fft.hpp"
#include "mpros/dsp/plan_cache.hpp"
#include "mpros/dsp/scratch.hpp"

namespace mpros::dsp {

namespace {

/// Bins [begin, end) of a band [lo_hz, hi_hz], clipped to `bins`. Every band
/// read, magnitude array or complex half spectrum, walks this range.
struct BinRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

BinRange band_bins(double bin_hz, std::size_t bins, double lo_hz,
                   double hi_hz) {
  if (bin_hz <= 0.0 || hi_hz < lo_hz || bins == 0) return {};
  const auto lo = static_cast<std::size_t>(std::max(0.0, lo_hz / bin_hz));
  const auto hi =
      std::min<std::size_t>(bins - 1, static_cast<std::size_t>(hi_hz / bin_hz));
  return {lo, hi + 1};
}

template <typename Amplitude>
double peak_over(BinRange r, const Amplitude& amplitude) {
  double peak = 0.0;
  for (std::size_t i = r.begin; i < r.end; ++i) {
    peak = std::max(peak, amplitude(i));
  }
  return peak;
}

template <typename Amplitude>
double energy_over(BinRange r, const Amplitude& amplitude) {
  double sum = 0.0;
  for (std::size_t i = r.begin; i < r.end; ++i) {
    const double a = amplitude(i);
    sum += a * a;
  }
  return sum;
}

template <typename S>
double order_band_peak(const S& s, double shaft_hz, double order,
                       double tolerance) {
  MPROS_EXPECTS(shaft_hz > 0.0 && order > 0.0 && tolerance >= 0.0);
  const double center = shaft_hz * order;
  const double half_width = shaft_hz * tolerance;
  return s.band_peak(center - half_width, center + half_width);
}

}  // namespace

double Spectrum::amplitude_at(double hz) const {
  if (bin_hz <= 0.0 || hz < 0.0) return 0.0;
  const auto i = static_cast<std::size_t>(std::llround(hz / bin_hz));
  return i < amplitude.size() ? amplitude[i] : 0.0;
}

double Spectrum::band_peak(double lo_hz, double hi_hz) const {
  return peak_over(band_bins(bin_hz, amplitude.size(), lo_hz, hi_hz),
                   [this](std::size_t i) { return amplitude[i]; });
}

double Spectrum::band_energy(double lo_hz, double hi_hz) const {
  return energy_over(band_bins(bin_hz, amplitude.size(), lo_hz, hi_hz),
                     [this](std::size_t i) { return amplitude[i]; });
}

double Spectrum::total_energy() const {
  double sum = 0.0;
  for (double a : amplitude) sum += a * a;
  return sum;
}

double HalfSpectrum::band_peak(double lo_hz, double hi_hz) const {
  return peak_over(band_bins(bin_hz, bins(), lo_hz, hi_hz),
                   [this](std::size_t i) { return amplitude(i); });
}

double HalfSpectrum::band_energy(double lo_hz, double hi_hz) const {
  return energy_over(band_bins(bin_hz, bins(), lo_hz, hi_hz),
                     [this](std::size_t i) { return amplitude(i); });
}

HalfSpectrum half_spectrum(std::span<const double> x, double sample_rate_hz,
                           const SpectrumConfig& cfg) {
  MPROS_EXPECTS(sample_rate_hz > 0.0);
  MPROS_EXPECTS(x.size() >= 2);

  const std::size_t n =
      cfg.fft_size != 0 ? cfg.fft_size : next_power_of_two(x.size());
  MPROS_EXPECTS(is_power_of_two(n) && n >= x.size() && n >= 4);

  const CachedWindow& window = WindowCache::instance().get(cfg.window,
                                                           x.size());
  DspScratch& scratch = DspScratch::local();
  const RealFftPlan& plan = PlanCache::instance().real_plan(n);
  const std::span<Complex> half = scratch.complex_lane(0, plan.bins());
  plan.forward(x, half, scratch.complex_lane(1, plan.scratch_size()),
               window.coeffs);

  // Amplitudes divide by the window's coherent gain so a unit-amplitude sine
  // at a bin center reads ~1.0 (HalfSpectrum::amplitude).
  HalfSpectrum out;
  out.half = half;
  out.coherent_gain = window.coherent_gain;
  out.bin_hz = sample_rate_hz / static_cast<double>(n);
  return out;
}

Spectrum amplitude_spectrum(std::span<const double> x, double sample_rate_hz,
                            const SpectrumConfig& cfg) {
  Spectrum out;
  amplitude_spectrum(x, sample_rate_hz, cfg, out);
  return out;
}

void amplitude_spectrum(std::span<const double> x, double sample_rate_hz,
                        const SpectrumConfig& cfg, Spectrum& out) {
  const HalfSpectrum half = half_spectrum(x, sample_rate_hz, cfg);
  out.sample_rate_hz = sample_rate_hz;
  out.bin_hz = half.bin_hz;
  out.amplitude.resize(half.bins());
  for (std::size_t i = 0; i < out.amplitude.size(); ++i) {
    out.amplitude[i] = half.amplitude(i);
  }
}

Spectrum welch_psd(std::span<const double> x, double sample_rate_hz,
                   std::size_t segment_size, WindowKind window) {
  Spectrum out;
  welch_psd(x, sample_rate_hz, segment_size, window, out);
  return out;
}

void welch_psd(std::span<const double> x, double sample_rate_hz,
               std::size_t segment_size, WindowKind window, Spectrum& out) {
  MPROS_EXPECTS(sample_rate_hz > 0.0);
  MPROS_EXPECTS(is_power_of_two(segment_size) && segment_size >= 4);
  MPROS_EXPECTS(x.size() >= segment_size);

  const CachedWindow& w = WindowCache::instance().get(window, segment_size);
  const double pgain = w.power_gain;
  const RealFftPlan& plan = PlanCache::instance().real_plan(segment_size);

  out.sample_rate_hz = sample_rate_hz;
  out.bin_hz = sample_rate_hz / static_cast<double>(segment_size);
  out.amplitude.assign(segment_size / 2 + 1, 0.0);

  DspScratch& scratch = DspScratch::local();
  const std::span<Complex> half = scratch.complex_lane(0, plan.bins());
  const std::span<Complex> fft_scratch =
      scratch.complex_lane(1, plan.scratch_size());

  const std::size_t hop = segment_size / 2;
  std::size_t segments = 0;

  for (std::size_t start = 0; start + segment_size <= x.size(); start += hop) {
    plan.forward(x.subspan(start, segment_size), half, fft_scratch, w.coeffs);
    for (std::size_t i = 0; i < out.amplitude.size(); ++i) {
      double p = std::norm(half[i]) / pgain;
      if (i != 0 && i != segment_size / 2) p *= 2.0;
      out.amplitude[i] += p;
    }
    ++segments;
  }
  MPROS_ASSERT(segments > 0);
  for (double& p : out.amplitude) p /= static_cast<double>(segments);
}

std::vector<SpectralPeak> find_peaks(const Spectrum& s, std::size_t max_peaks,
                                     double min_amplitude) {
  std::vector<SpectralPeak> peaks;
  const auto& a = s.amplitude;
  for (std::size_t i = 1; i + 1 < a.size(); ++i) {
    if (a[i] <= min_amplitude) continue;

    // Flat-topped peak: two equal bins rising out of both neighbours. The
    // strict comparisons below would either miss it at the spectrum edge or
    // report it off-center with an overshooting parabolic amplitude, so
    // handle the plateau explicitly: one peak, centered, at face value.
    if (a[i] == a[i + 1] && a[i] > a[i - 1] &&
        (i + 2 >= a.size() || a[i + 1] > a[i + 2])) {
      SpectralPeak p;
      p.freq_hz = (static_cast<double>(i) + 0.5) * s.bin_hz;
      p.amplitude = a[i];
      peaks.push_back(p);
      ++i;  // consume the plateau partner so it is not reported twice
      continue;
    }

    if (a[i] < a[i - 1] || a[i] <= a[i + 1]) continue;

    // Parabolic interpolation around the local maximum.
    const double y0 = a[i - 1], y1 = a[i], y2 = a[i + 1];
    const double denom = y0 - 2.0 * y1 + y2;
    double delta = 0.0;
    if (std::fabs(denom) > 1e-12) {
      delta = 0.5 * (y0 - y2) / denom;
      delta = std::clamp(delta, -0.5, 0.5);
    }
    SpectralPeak p;
    p.freq_hz = (static_cast<double>(i) + delta) * s.bin_hz;
    p.amplitude = y1 - 0.25 * (y0 - y2) * delta;
    peaks.push_back(p);
  }
  std::sort(peaks.begin(), peaks.end(),
            [](const SpectralPeak& lhs, const SpectralPeak& rhs) {
              return lhs.amplitude > rhs.amplitude;
            });
  if (peaks.size() > max_peaks) peaks.resize(max_peaks);
  return peaks;
}

double order_amplitude(const Spectrum& s, double shaft_hz, double order,
                       double tolerance) {
  return order_band_peak(s, shaft_hz, order, tolerance);
}

double order_amplitude(const HalfSpectrum& s, double shaft_hz, double order,
                       double tolerance) {
  return order_band_peak(s, shaft_hz, order, tolerance);
}

}  // namespace mpros::dsp
