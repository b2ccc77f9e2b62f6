#include "mpros/wavelet/dwt.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "mpros/common/assert.hpp"

namespace mpros::wavelet {
namespace {

// Orthonormal Daubechies scaling (low-pass) filters.
constexpr std::array<double, 2> kHaar = {0.7071067811865476,
                                         0.7071067811865476};
constexpr std::array<double, 4> kDb2 = {
    0.48296291314469025, 0.83651630373746899, 0.22414386804185735,
    -0.12940952255092145};
constexpr std::array<double, 8> kDb4 = {
    0.23037781330885523, 0.71484657055254153, 0.63088076792959036,
    -0.02798376941698385, -0.18703481171888114, 0.03084138183598697,
    0.03288301166698295, -0.01059740178499728};

/// Quadrature mirror: g[k] = (-1)^k h[L-1-k].
std::vector<double> wavelet_from_scaling(std::span<const double> h) {
  const std::size_t len = h.size();
  std::vector<double> g(len);
  for (std::size_t k = 0; k < len; ++k) {
    const double sign = (k % 2 == 0) ? 1.0 : -1.0;
    g[k] = sign * h[len - 1 - k];
  }
  return g;
}

}  // namespace

std::span<const double> scaling_coefficients(Family f) {
  switch (f) {
    case Family::Haar: return kHaar;
    case Family::Db2: return kDb2;
    case Family::Db4: return kDb4;
  }
  return kHaar;
}

std::span<const double> wavelet_coefficients(Family f) {
  static const std::vector<double> haar = wavelet_from_scaling(kHaar);
  static const std::vector<double> db2 = wavelet_from_scaling(kDb2);
  static const std::vector<double> db4 = wavelet_from_scaling(kDb4);
  switch (f) {
    case Family::Haar: return haar;
    case Family::Db2: return db2;
    case Family::Db4: return db4;
  }
  return haar;
}

const char* to_string(Family f) {
  switch (f) {
    case Family::Haar: return "haar";
    case Family::Db2: return "db2";
    case Family::Db4: return "db4";
  }
  return "?";
}

DwtLevel dwt_step(std::span<const double> x, Family f) {
  MPROS_EXPECTS(x.size() >= 2 && x.size() % 2 == 0);
  const std::span<const double> h = scaling_coefficients(f);
  const std::span<const double> g = wavelet_coefficients(f);
  const std::size_t n = x.size();
  const std::size_t half = n / 2;
  const std::size_t len = h.size();

  DwtLevel out;
  out.approx.resize(half);
  out.detail.resize(half);
  for (std::size_t i = 0; i < half; ++i) {
    double a = 0.0, d = 0.0;
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t j = (2 * i + k) % n;  // periodic extension
      a += h[k] * x[j];
      d += g[k] * x[j];
    }
    out.approx[i] = a;
    out.detail[i] = d;
  }
  return out;
}

std::vector<double> idwt_step(std::span<const double> approx,
                              std::span<const double> detail, Family f) {
  MPROS_EXPECTS(approx.size() == detail.size() && !approx.empty());
  const std::span<const double> h = scaling_coefficients(f);
  const std::span<const double> g = wavelet_coefficients(f);
  const std::size_t half = approx.size();
  const std::size_t n = 2 * half;
  const std::size_t len = h.size();

  std::vector<double> x(n, 0.0);
  // Transpose of the analysis operator (orthogonal => inverse).
  for (std::size_t i = 0; i < half; ++i) {
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t j = (2 * i + k) % n;
      x[j] += h[k] * approx[i] + g[k] * detail[i];
    }
  }
  return x;
}

std::size_t max_levels(std::size_t n) {
  std::size_t levels = 0;
  while (n >= 2 && n % 2 == 0) {
    n /= 2;
    ++levels;
  }
  return levels;
}

Decomposition decompose(std::span<const double> x, Family f,
                        std::size_t levels) {
  Decomposition d;
  decompose(x, f, levels, d);
  return d;
}

double analyze_in_place(std::span<double> x, Family f,
                        std::span<double> detail) {
  const std::span<const double> h = scaling_coefficients(f);
  const std::span<const double> g = wavelet_coefficients(f);
  const std::size_t n = x.size();
  const std::size_t half = n / 2;
  const std::size_t len = h.size();
  MPROS_EXPECTS(n >= 2 && n % 2 == 0);
  MPROS_EXPECTS(detail.empty() || detail.size() == half);
  // Output i overwrites x[i] once its sums are done. Only a read that the
  // periodic extension wraps can land below i, and it lands among the
  // level's first min(n, 8) entries (8 taps is the longest filter): keep
  // those.
  std::array<double, kDb4.size()> head{};
  std::copy_n(x.begin(), std::min(n, head.size()), head.begin());
  double energy = 0.0;
  for (std::size_t i = 0; i < half; ++i) {
    double a = 0.0, dv = 0.0;
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t j = (2 * i + k) % n;  // periodic extension
      const double v = j < i ? head[j] : x[j];
      a += h[k] * v;
      dv += g[k] * v;
    }
    x[i] = a;
    if (!detail.empty()) detail[i] = dv;
    energy += dv * dv;
  }
  return energy;
}

void decompose(std::span<const double> x, Family f, std::size_t levels,
               Decomposition& d) {
  MPROS_EXPECTS(levels >= 1 && levels <= max_levels(x.size()));
  d.family = f;
  d.details.resize(levels);
  d.approx.assign(x.begin(), x.end());
  std::size_t n = x.size();
  for (std::size_t level = 0; level < levels; ++level) {
    d.details[level].resize(n / 2);
    (void)analyze_in_place(std::span(d.approx).first(n), f, d.details[level]);
    n /= 2;
  }
  d.approx.resize(n);
}

std::vector<double> reconstruct(const Decomposition& d) {
  MPROS_EXPECTS(!d.details.empty());
  std::vector<double> current = d.approx;
  for (std::size_t level = d.details.size(); level-- > 0;) {
    current = idwt_step(current, d.details[level], d.family);
  }
  return current;
}

}  // namespace mpros::wavelet
