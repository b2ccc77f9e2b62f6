#pragma once
// The Failure Prediction Reporting Protocol (paper §7).
//
// "A standard protocol has been defined for reporting failure predictions
// to the PDME for fusion and display." Fields follow §7.2 (diagnostic data)
// and §7.3 (prognostics vector) exactly; §5.5's DC ID and severity
// categories ride along. Reports serialize to the wire via the codec.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mpros/common/clock.hpp"
#include "mpros/common/ids.hpp"

namespace mpros {
class Writer;
class TryReader;
}  // namespace mpros

namespace mpros::net {

/// §7.3: "Zero to n ordered pairs of the form '(probability, time)'. Each
/// pair indicates the probability that the given machine condition will
/// lead to failure of the machine within 'time' seconds from now."
struct PrognosticPair {
  double probability = 0.0;
  double time_seconds = 0.0;

  friend bool operator==(const PrognosticPair&,
                         const PrognosticPair&) = default;
};

struct FailureReport {
  // §5.5 / §7.2 identification fields.
  DcId dc;                          ///< data concentrator source
  KnowledgeSourceId knowledge_source;
  ObjectId sensed_object;           ///< the machine this report applies to
  ConditionId machine_condition;    ///< diagnosed failure mode

  double severity = 0.0;            ///< 0..1, 1 = maximal (§7.2 field 4)
  double belief = 1.0;              ///< 0..1 (§7.2 field 5)
  std::string explanation;          ///< optional, human readable
  std::string recommendations;      ///< optional, human readable
  SimTime timestamp;                ///< when the report is "effective"
  std::string additional_info;      ///< optional

  std::vector<PrognosticPair> prognostics;  ///< §7.3

  /// Telemetry span id stamped by the originating DC test (0 = untraced).
  /// Rides the wire (format v2) so PDME-side spans join the DC's timeline.
  std::uint64_t trace = 0;

  friend bool operator==(const FailureReport&,
                         const FailureReport&) = default;
};

/// Wire encoding (versioned; decoders accept the current version only).
[[nodiscard]] std::vector<std::uint8_t> serialize(const FailureReport& r);

/// Appends one report frame (magic + version + fields) to `w`. A batch body
/// is a count of these frames back to back; serialize() is the one-frame
/// special case.
void serialize_report_into(Writer& w, const FailureReport& r);

/// Fail-soft decode of one report frame from `rd` into `out`, reusing
/// `out`'s string/prognostics capacity (the arena-decode hot path). Consumes
/// exactly the frame and does NOT require rd.done() — batch decoding reads
/// several frames back to back. Returns false (and latches rd) on bad
/// magic/version, truncation, or a hostile prognostic count.
bool try_read_report_frame(TryReader& rd, FailureReport& out);

/// Fail-soft decode for untrusted bytes (recorder frames, replay): returns
/// nullopt on truncation, bad magic/version, or trailing garbage — never
/// aborts.
[[nodiscard]] std::optional<FailureReport> try_deserialize_report(
    std::span<const std::uint8_t> bytes);

/// One-line rendering for logs / the PDME browser.
[[nodiscard]] std::string summarize(const FailureReport& r);

}  // namespace mpros::net
