#pragma once
// Discrete wavelet transform.
//
// Substrate for the Georgia Tech Wavelet Neural Network (paper §6.2): the
// WNN's inputs include "wavelet maps" of the vibration signal, and its
// selling point is localization — drawing conclusions from *transitory*
// phenomena that steady-state FFT analysis (DLI) misses.
//
// Implementation: Mallat pyramid with periodic signal extension, orthogonal
// Daubechies filters (Haar/db1, db2, db4).

#include <cstddef>
#include <span>
#include <vector>

namespace mpros::wavelet {

enum class Family { Haar, Db2, Db4 };

/// Analysis low-pass coefficients for a family (orthonormal).
[[nodiscard]] std::span<const double> scaling_coefficients(Family f);

/// Analysis high-pass (quadrature mirror) coefficients for a family,
/// precomputed once per process.
[[nodiscard]] std::span<const double> wavelet_coefficients(Family f);

[[nodiscard]] const char* to_string(Family f);

/// One DWT level: split x (even length) into approximation and detail
/// halves using periodic extension.
struct DwtLevel {
  std::vector<double> approx;
  std::vector<double> detail;
};
[[nodiscard]] DwtLevel dwt_step(std::span<const double> x, Family f);

/// Inverse of dwt_step.
[[nodiscard]] std::vector<double> idwt_step(std::span<const double> approx,
                                            std::span<const double> detail,
                                            Family f);

/// One pyramid level in place over `x` (even length n): its first n/2
/// entries become the half-rate approximation and `detail` (n/2 entries,
/// or empty to drop them) the detail. Returns the detail's energy, summed
/// in index order. Allocates nothing.
double analyze_in_place(std::span<double> x, Family f,
                        std::span<double> detail);

/// Full multi-level decomposition.
/// details[0] is the finest scale; approx is the coarsest residual.
struct Decomposition {
  Family family = Family::Db4;
  std::vector<std::vector<double>> details;
  std::vector<double> approx;

  [[nodiscard]] std::size_t levels() const { return details.size(); }
};

/// Decompose `x` through `levels` levels (x.size() must be divisible by
/// 2^levels).
[[nodiscard]] Decomposition decompose(std::span<const double> x, Family f,
                                      std::size_t levels);

/// Allocation-free variant: writes into `d`, reusing its buffers. At a
/// steady (length, levels) this performs zero heap allocation.
void decompose(std::span<const double> x, Family f, std::size_t levels,
               Decomposition& d);

/// Perfect reconstruction from a decomposition.
[[nodiscard]] std::vector<double> reconstruct(const Decomposition& d);

/// Maximum level count for a signal length (floor(log2(n))).
[[nodiscard]] std::size_t max_levels(std::size_t n);

}  // namespace mpros::wavelet
