#pragma once
// Per-thread sample arena.
//
// Every spectral routine needs transient buffers (an FFT workspace, a half
// spectrum), and a DC test needs its acquisition records and the analyzers'
// sample temporaries. Allocating them per call put a malloc/free pair — and
// the associated lock traffic under the fleet thread pool — on the hottest
// path in the system; giving each DC or analyzer its own copies kept
// hundreds of kilobytes per DC resident between tests. DspScratch keeps one
// small set of lazily grown, thread-local buffers instead: the first
// acquisition at a given size allocates, every subsequent one reuses
// capacity, and everything stepped on one thread shares one set. It is the
// only per-thread sample storage of the dc, dsp, rules, nn and wavelet
// layers, so footprint_bytes() is all of a thread's sample memory.
//
// Buffers are handed out by *lane*; two buffers that must stay live at the
// same time take distinct lanes.
//
//  - Complex lanes 0..2 belong to the dsp:: routines, which take them
//    inside one call: 0 holds a transform's result (the half spectrum a
//    HalfSpectrum views until the thread's next spectral call, the
//    envelope's analytic spectrum), 1 the FFT workspace (the envelope's
//    forward half spectrum), 2 the envelope's workspace. A caller outside
//    the DSP layer holds none of them across a dsp:: call.
//  - Real lanes are named after their one owner. No dsp:: routine takes a
//    real lane, so an owner may hold its lane across any dsp:: call.
//  - fft_workspace_as_reals() lends complex lane 1 to a caller that runs
//    no dsp:: transform while it holds it (the sensor screens). It leaves
//    lane 0, and so a live HalfSpectrum, untouched.

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace mpros::dsp {

class DspScratch {
 public:
  static constexpr std::size_t kComplexLanes = 3;

  /// Real lanes, by owner.
  enum class Real : std::size_t {
    kVibrationRecord,  ///< DataConcentrator: a test's three accelerometer
                       ///< records (Motor, Gearbox, Compressor) back to back
    kCurrentRecord,    ///< DataConcentrator: the motor-current record
    kEnvelope,         ///< FeatureExtractor: the bearing-band envelope
    kWnnSpectrum,      ///< WnnClassifier: the cepstrum, then the log spectrum
    kWavelet,          ///< wavelet_feature_vector: the in-place pyramid
    kCount,
  };

  /// The calling thread's arena (thread_local; no synchronization needed).
  static DspScratch& local();

  DspScratch() = default;
  DspScratch(const DspScratch&) = delete;
  DspScratch& operator=(const DspScratch&) = delete;
  ~DspScratch();

  /// First `n` entries of the lane's complex buffer, grown if needed.
  /// Contents are unspecified; the caller overwrites what it uses.
  std::span<std::complex<double>> complex_lane(std::size_t lane,
                                               std::size_t n);

  /// First `n` entries of the named real lane, grown if needed. Contents
  /// are unspecified. Growing one lane never moves another.
  std::span<double> real_lane(Real lane, std::size_t n);

  /// Complex lane 1 read as `n` doubles, grown if needed (see above).
  std::span<double> fft_workspace_as_reals(std::size_t n);

  /// Bytes currently reserved across all lanes. The "dsp.scratch_bytes"
  /// gauge sums it over every live thread's arena.
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  std::vector<std::complex<double>> complex_[kComplexLanes];
  std::vector<double> real_[static_cast<std::size_t>(Real::kCount)];
};

}  // namespace mpros::dsp
