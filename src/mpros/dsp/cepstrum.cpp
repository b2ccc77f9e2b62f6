#include "mpros/dsp/cepstrum.hpp"

#include <cmath>

#include "mpros/common/assert.hpp"
#include "mpros/dsp/fft.hpp"
#include "mpros/dsp/plan_cache.hpp"
#include "mpros/dsp/scratch.hpp"

namespace mpros::dsp {

std::vector<double> real_cepstrum(std::span<const double> x,
                                  std::size_t fft_size) {
  std::vector<double> out(
      fft_size != 0 ? fft_size
                    : next_power_of_two(std::max<std::size_t>(x.size(), 4)));
  real_cepstrum(x, out);
  return out;
}

void real_cepstrum(std::span<const double> x, std::span<double> out) {
  MPROS_EXPECTS(x.size() >= 2);
  const std::size_t n = out.size();
  MPROS_EXPECTS(is_power_of_two(n) && n >= 4 && n >= x.size());

  DspScratch& scratch = DspScratch::local();
  const RealFftPlan& plan = PlanCache::instance().real_plan(n);
  const std::span<Complex> half = scratch.complex_lane(0, plan.bins());
  const std::span<Complex> fft_scratch =
      scratch.complex_lane(1, plan.scratch_size());
  plan.forward(x, half, fft_scratch);

  // log|X| is real and even across the full spectrum, so its inverse FFT is
  // exactly the inverse real transform of the half spectrum — no full-size
  // complex pass needed.
  constexpr double kEps = 1e-12;
  for (std::size_t i = 0; i < plan.bins(); ++i) {
    half[i] = Complex(std::log(std::abs(half[i]) + kEps), 0.0);
  }
  plan.inverse(half, out, fft_scratch);
}

double dominant_quefrency(std::span<const double> cepstrum,
                          double sample_rate_hz, double min_quefrency_s,
                          double max_quefrency_s) {
  MPROS_EXPECTS(sample_rate_hz > 0.0);
  const auto lo = static_cast<std::size_t>(
      std::max(1.0, min_quefrency_s * sample_rate_hz));
  const auto hi = std::min<std::size_t>(
      cepstrum.size() / 2,
      static_cast<std::size_t>(max_quefrency_s * sample_rate_hz));
  double best = 0.0;
  std::size_t best_i = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    if (cepstrum[i] > best) {
      best = cepstrum[i];
      best_i = i;
    }
  }
  return best_i == 0 ? 0.0
                     : static_cast<double>(best_i) / sample_rate_hz;
}

}  // namespace mpros::dsp
