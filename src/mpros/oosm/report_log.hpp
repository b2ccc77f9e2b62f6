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
//  - prognostic pairs live in a shared pool, addressed by chunk and offset.
// ObjectModel keeps a small per-id slot pointing into the log and serves
// the report's name, kind, properties and RefersTo edge from the record,
// so the object API reads exactly as it did for a stored object.
//
// Both the records and the pair pool are stored in fixed-size chunks, each
// allocated when the one before it fills. Growing the log never copies what
// it already holds and never holds two copies at once; an empty log
// allocates nothing. A record or pair stays at its address while the log
// grows; only a copy of the log may move its last, partial chunks while
// they fill.
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
    /// Where the pairs start in the pair pool: chunk << kPairChunkBits |
    /// offset. A record's pairs never straddle two chunks.
    std::uint32_t prognostics_begin = 0;
    std::uint32_t prognostics_count = 0;
    std::uint8_t flags = 0;
  };
  static constexpr std::uint8_t kRefersTo = 1;  ///< RefersTo edge posted

  /// Records per record chunk (24 KiB), and the pair pool's chunk size
  /// (1,024 pairs, 16 KiB). A report with more pairs than that gets a
  /// chunk of its own, sized to fit.
  static constexpr std::uint32_t kRecordsPerChunk = 256;
  static constexpr std::uint32_t kPairChunkBits = 10;
  static constexpr std::uint32_t kPairsPerChunk = 1u << kPairChunkBits;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const Record& record(std::uint32_t index) const {
    return records_[index / kRecordsPerChunk][index % kRecordsPerChunk];
  }
  [[nodiscard]] std::span<const net::PrognosticPair> prognostics(
      const Record& r) const {
    if (r.prognostics_count == 0) return {};
    const std::vector<net::PrognosticPair>& chunk =
        pairs_[r.prognostics_begin >> kPairChunkBits];
    return {chunk.data() + (r.prognostics_begin & (kPairsPerChunk - 1)),
            r.prognostics_count};
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
  Record& mutable_record(std::uint32_t index) {
    return records_[index / kRecordsPerChunk][index % kRecordsPerChunk];
  }
  /// Copy `pairs` into the pool; returns the packed begin.
  std::uint32_t append_pairs(std::span<const net::PrognosticPair> pairs);

  /// Every chunk but the last holds exactly kRecordsPerChunk records; a
  /// chunk's capacity is reserved when it is started.
  std::vector<std::vector<Record>> records_;
  std::vector<std::vector<net::PrognosticPair>> pairs_;
  std::size_t size_ = 0;
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
