#include "mpros/dsp/scratch.hpp"

#include <mutex>

#include "mpros/common/assert.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::dsp {
namespace {

/// Moves the bytes every live arena reserves by `gained - lost` and mirrors
/// the sum in the "dsp.scratch_bytes" gauge. Lanes grow a handful of times
/// per thread, so a lock costs nothing here.
void account(std::size_t gained, std::size_t lost) {
  static std::mutex mu;
  static std::size_t total = 0;
  static telemetry::Gauge& gauge =
      telemetry::Registry::instance().gauge("dsp.scratch_bytes");
  const std::lock_guard lock(mu);
  total = total + gained - lost;
  gauge.set(static_cast<double>(total));
}

/// The first `n` entries of `buf`, grown if needed; reports any capacity
/// it gained.
template <typename T>
std::span<T> grow(std::vector<T>& buf, std::size_t n) {
  if (buf.size() < n) {
    const std::size_t before = buf.capacity();
    buf.resize(n);
    account(buf.capacity() * sizeof(T), before * sizeof(T));
  }
  return {buf.data(), n};
}

}  // namespace

DspScratch& DspScratch::local() {
  static thread_local DspScratch scratch;
  return scratch;
}

DspScratch::~DspScratch() {
  if (const std::size_t bytes = footprint_bytes(); bytes != 0) {
    account(0, bytes);
  }
}

std::span<std::complex<double>> DspScratch::complex_lane(std::size_t lane,
                                                         std::size_t n) {
  MPROS_EXPECTS(lane < kComplexLanes);
  return grow(complex_[lane], n);
}

std::span<double> DspScratch::real_lane(Real lane, std::size_t n) {
  const auto i = static_cast<std::size_t>(lane);
  MPROS_EXPECTS(i < static_cast<std::size_t>(Real::kCount));
  return grow(real_[i], n);
}

std::span<double> DspScratch::fft_workspace_as_reals(std::size_t n) {
  // An array of std::complex<double> is an array of (re, im) double pairs
  // ([complex.numbers.general]).
  const std::span<std::complex<double>> lane = complex_lane(1, (n + 1) / 2);
  return {reinterpret_cast<double*>(lane.data()), n};
}

std::size_t DspScratch::footprint_bytes() const {
  std::size_t bytes = 0;
  for (const auto& buf : complex_) {
    bytes += buf.capacity() * sizeof(std::complex<double>);
  }
  for (const auto& buf : real_) bytes += buf.capacity() * sizeof(double);
  return bytes;
}

}  // namespace mpros::dsp
