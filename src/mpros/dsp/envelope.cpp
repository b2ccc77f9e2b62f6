#include "mpros/dsp/envelope.hpp"

#include <cmath>
#include <cstdint>

#include "mpros/common/assert.hpp"
#include "mpros/dsp/fft.hpp"
#include "mpros/dsp/plan_cache.hpp"
#include "mpros/dsp/scratch.hpp"

namespace mpros::dsp {
namespace {

/// Shared body: forward real FFT, per-bin gate on the positive half, then
/// analytic-signal construction and a full complex inverse. `keep(i, bin_hz)`
/// decides whether positive-frequency bin i survives (band-pass), and the
/// negative half is implicitly zeroed — exactly the analytic conversion.
template <typename Keep>
void analytic_envelope(std::span<const double> x, double sample_rate_hz,
                       const Keep& keep, std::span<double> out) {
  MPROS_EXPECTS(out.size() == x.size());
  const std::size_t n = next_power_of_two(std::max<std::size_t>(x.size(), 4));
  const double bin_hz = sample_rate_hz / static_cast<double>(n);

  DspScratch& scratch = DspScratch::local();
  const RealFftPlan& rplan = PlanCache::instance().real_plan(n);
  const std::span<Complex> half = scratch.complex_lane(1, rplan.bins());
  rplan.forward(x, half, scratch.complex_lane(2, rplan.scratch_size()));

  // Analytic spectrum: DC and Nyquist pass through (if kept), interior
  // positive bins are doubled, the negative half is zero. It is written in
  // bit-reversed order, entry i holding bin rev[i], so the inverse skips
  // its swap pass. An even i has rev[i] < n/2 and an odd one rev[i] >= n/2;
  // only entry 1 holds the Nyquist bin.
  const FftPlan& plan = PlanCache::instance().complex_plan(n);
  const std::uint32_t* const rev = plan.bit_reversal().data();
  const std::span<Complex> spec = scratch.complex_lane(0, n);
  for (std::size_t i = 0; i < n; i += 2) {
    const std::size_t bin = rev[i];
    if (!keep(bin, bin_hz)) {
      spec[i] = Complex{};
    } else {
      spec[i] = bin == 0 ? half[0] : 2.0 * half[bin];
    }
    spec[i + 1] = Complex{};
  }
  spec[1] = keep(n / 2, bin_hz) ? half[n / 2] : Complex{};

  plan.inverse_permuted(spec);

  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = std::abs(spec[i]);
  }
}

}  // namespace

std::vector<double> envelope(std::span<const double> x) {
  MPROS_EXPECTS(x.size() >= 4);
  std::vector<double> out(x.size());
  analytic_envelope(
      x, 1.0, [](std::size_t, double) { return true; }, out);
  return out;
}

std::vector<double> envelope_bandpassed(std::span<const double> x,
                                        double sample_rate_hz, double lo_hz,
                                        double hi_hz) {
  std::vector<double> out(x.size());
  envelope_bandpassed(x, sample_rate_hz, lo_hz, hi_hz, out);
  return out;
}

void envelope_bandpassed(std::span<const double> x, double sample_rate_hz,
                         double lo_hz, double hi_hz, std::span<double> out) {
  MPROS_EXPECTS(x.size() >= 4);
  MPROS_EXPECTS(sample_rate_hz > 0.0 && lo_hz >= 0.0 && hi_hz > lo_hz);

  // Brick-wall band-pass on the positive half, fused with the analytic
  // conversion.
  analytic_envelope(
      x, sample_rate_hz,
      [lo_hz, hi_hz](std::size_t i, double bin_hz) {
        const double f = static_cast<double>(i) * bin_hz;
        return f >= lo_hz && f <= hi_hz;
      },
      out);
}

}  // namespace mpros::dsp
