#pragma once
// The OOSM report log: one compact home for every failure report the PDME
// posts (paper §4.2: each report is an OOSM object).
//
// A posted report used to live as a full object record with a dozen
// properties, a relation vector per kind and a copy in the fusion core.
// The log instead appends one fixed-layout record per report:
//  - text fields (name, explanation, recommendations, additional info) are
//    interned, so the handful of distinct strings a knowledge source emits
//    is stored once;
//  - prognostic pairs live in one shared pool, addressed by offset.
// ObjectModel keeps a small per-id slot pointing into the log and serves
// the report's name, kind, properties and RefersTo edge from the record,
// so the object API reads exactly as it did for a stored object.
//
// Append-only: records never move between indexes and are never edited, so
// a log index names one report for the life of the model. Single writer,
// like the rest of the OOSM.

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "mpros/common/ids.hpp"
#include "mpros/net/report.hpp"

namespace mpros::oosm {

/// Each distinct string stored once and named by a dense id; id 0 is the
/// empty string.
class TextPool {
 public:
  TextPool() = default;
  /// A copy re-keys its index on its own strings.
  TextPool(const TextPool& other);
  TextPool& operator=(const TextPool& other);
  TextPool(TextPool&&) noexcept = default;
  TextPool& operator=(TextPool&&) noexcept = default;
  ~TextPool() = default;

  std::uint32_t intern(std::string_view text);
  [[nodiscard]] const std::string& text(std::uint32_t id) const;
  /// Distinct non-empty strings held.
  [[nodiscard]] std::size_t size() const { return texts_.size(); }
  /// Characters held across all distinct strings.
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

 private:
  /// A deque keeps every string at a stable address, so the index can key
  /// on views into it.
  std::deque<std::string> texts_;
  std::unordered_map<std::string_view, std::uint32_t> ids_;
  std::size_t bytes_ = 0;
};

class ReportLog {
 public:
  /// One logged report, fixed layout. Text fields are TextPool ids.
  struct Record {
    DcId dc;
    KnowledgeSourceId knowledge_source;
    ObjectId sensed_object;
    ConditionId machine_condition;
    double severity = 0.0;
    double belief = 0.0;
    SimTime timestamp;
    std::uint64_t trace = 0;
    std::uint32_t name = 0;
    std::uint32_t explanation = 0;
    std::uint32_t recommendations = 0;
    std::uint32_t additional_info = 0;
    std::uint32_t prognostics_begin = 0;  ///< offset into the pair pool
    std::uint32_t prognostics_count = 0;
    std::uint8_t flags = 0;
  };
  static constexpr std::uint8_t kRefersTo = 1;  ///< RefersTo edge posted
  static constexpr std::uint8_t kPosted = 2;    ///< "posted" marker set

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] const Record& record(std::uint32_t index) const {
    return records_[index];
  }
  [[nodiscard]] std::span<const net::PrognosticPair> prognostics(
      const Record& r) const {
    return {prognostics_.data() + r.prognostics_begin, r.prognostics_count};
  }
  [[nodiscard]] const std::string& text(std::uint32_t id) const {
    return texts_.text(id);
  }
  [[nodiscard]] const TextPool& texts() const { return texts_; }

  /// The report as it was posted, into `out` (reusing its capacity).
  void read(std::uint32_t index, net::FailureReport& out) const;
  [[nodiscard]] net::FailureReport report(std::uint32_t index) const {
    net::FailureReport out;
    read(index, out);
    return out;
  }

 private:
  friend class ObjectModel;

  /// Append `report`'s record; flags start clear.
  std::uint32_t append(const net::FailureReport& report);
  Record& mutable_record(std::uint32_t index) { return records_[index]; }

  std::vector<Record> records_;
  std::vector<net::PrognosticPair> prognostics_;
  TextPool texts_;
};

/// The "prognostics" property text: one 36-character token per pair,
/// "x<probability bits>:<time bits>;", each double as 16 hex digits of its
/// IEEE-754 bits, so the text round-trips exactly.
[[nodiscard]] std::string encode_prognostics(
    std::span<const net::PrognosticPair> pairs);
/// Inverse of encode_prognostics; malformed tokens are skipped.
[[nodiscard]] std::vector<net::PrognosticPair> decode_prognostics(
    std::string_view text);

}  // namespace mpros::oosm
