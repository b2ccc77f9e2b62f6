#include "mpros/oosm/report_log.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <limits>

#include "mpros/common/assert.hpp"

namespace mpros::oosm {

TextPool::TextPool(const TextPool& other)
    : texts_(other.texts_), bytes_(other.bytes_) {
  ids_.reserve(texts_.size());
  for (std::size_t i = 0; i < texts_.size(); ++i) {
    ids_.emplace(std::string_view(texts_[i]),
                 static_cast<std::uint32_t>(i + 1));
  }
}

TextPool& TextPool::operator=(const TextPool& other) {
  if (this != &other) *this = TextPool(other);
  return *this;
}

std::uint32_t TextPool::intern(std::string_view text) {
  if (text.empty()) return 0;
  const auto it = ids_.find(text);
  if (it != ids_.end()) return it->second;
  MPROS_EXPECTS(texts_.size() < std::numeric_limits<std::uint32_t>::max());
  const std::string& stored = texts_.emplace_back(text);
  const auto id = static_cast<std::uint32_t>(texts_.size());
  ids_.emplace(std::string_view(stored), id);
  bytes_ += stored.size();
  return id;
}

const std::string& TextPool::text(std::uint32_t id) const {
  static const std::string kEmpty;
  return id == 0 ? kEmpty : texts_[id - 1];
}

std::uint32_t ReportLog::append_pairs(
    std::span<const net::PrognosticPair> pairs) {
  if (pairs_.empty() || pairs_.back().size() + pairs.size() > kPairsPerChunk) {
    MPROS_EXPECTS(pairs_.size() < (std::size_t{1} << (32 - kPairChunkBits)));
    pairs_.emplace_back().reserve(std::max<std::size_t>(kPairsPerChunk,
                                                        pairs.size()));
  }
  std::vector<net::PrognosticPair>& chunk = pairs_.back();
  const auto begin = static_cast<std::uint32_t>(
      (pairs_.size() - 1) << kPairChunkBits | chunk.size());
  chunk.insert(chunk.end(), pairs.begin(), pairs.end());
  return begin;
}

std::uint32_t ReportLog::append(const net::FailureReport& r) {
  MPROS_EXPECTS(size_ < std::numeric_limits<std::uint32_t>::max());
  if (size_ % kRecordsPerChunk == 0) {
    records_.emplace_back().reserve(kRecordsPerChunk);
  }
  Record& rec = records_.back().emplace_back();
  rec.dc = r.dc;
  rec.knowledge_source = r.knowledge_source;
  rec.sensed_object = r.sensed_object;
  rec.machine_condition = r.machine_condition;
  rec.severity = r.severity;
  rec.belief = r.belief;
  rec.timestamp = r.timestamp;
  rec.trace = r.trace;
  char name[64];
  char* w = name;
  std::memcpy(w, "Report ", 7);
  w += 7;
  w = std::to_chars(w, name + 32, r.machine_condition.value()).ptr;
  std::memcpy(w, " on ", 4);
  w += 4;
  w = std::to_chars(w, name + 60, r.sensed_object.value()).ptr;
  rec.name = texts_.intern({name, static_cast<std::size_t>(w - name)});
  rec.explanation = texts_.intern(r.explanation);
  rec.recommendations = texts_.intern(r.recommendations);
  rec.additional_info = texts_.intern(r.additional_info);
  if (!r.prognostics.empty()) {
    rec.prognostics_begin = append_pairs(r.prognostics);
    rec.prognostics_count = static_cast<std::uint32_t>(r.prognostics.size());
  }
  return static_cast<std::uint32_t>(size_++);
}

void ReportLog::read(std::uint32_t index, net::FailureReport& out) const {
  const Record& rec = record(index);
  out.dc = rec.dc;
  out.knowledge_source = rec.knowledge_source;
  out.sensed_object = rec.sensed_object;
  out.machine_condition = rec.machine_condition;
  out.severity = rec.severity;
  out.belief = rec.belief;
  out.explanation = text(rec.explanation);
  out.recommendations = text(rec.recommendations);
  out.timestamp = rec.timestamp;
  out.additional_info = text(rec.additional_info);
  const auto pairs = prognostics(rec);
  out.prognostics.assign(pairs.begin(), pairs.end());
  out.trace = rec.trace;
}

namespace {

/// Fixed-width hex of the raw IEEE-754 bits: exact round-trip with no
/// digit-generation arithmetic at all.
char* write_bits_hex(char* p, double v) {
  static constexpr char kHex[] = "0123456789abcdef";
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  for (int shift = 60; shift >= 0; shift -= 4) {
    *p++ = kHex[(bits >> shift) & 0xF];
  }
  return p;
}

}  // namespace

std::string encode_prognostics(std::span<const net::PrognosticPair> pairs) {
  std::string out;
  out.reserve(pairs.size() * 36);
  char buf[40];
  for (const net::PrognosticPair& p : pairs) {
    char* w = buf;
    *w++ = 'x';
    w = write_bits_hex(w, p.probability);
    *w++ = ':';
    w = write_bits_hex(w, p.time_seconds);
    *w++ = ';';
    out.append(buf, w);
  }
  return out;
}

std::vector<net::PrognosticPair> decode_prognostics(std::string_view text) {
  std::vector<net::PrognosticPair> out;
  std::string_view rest(text);
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    const std::string_view tok = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);
    // "x<prob bits>:<time bits>", the only form encode_prognostics writes.
    if (tok.size() != 34 || tok.front() != 'x' || tok[17] != ':') continue;
    std::uint64_t pb = 0;
    std::uint64_t tb = 0;
    const char* const base = tok.data();
    auto res = std::from_chars(base + 1, base + 17, pb, 16);
    if (res.ec != std::errc{} || res.ptr != base + 17) continue;
    res = std::from_chars(base + 18, base + 34, tb, 16);
    if (res.ec != std::errc{} || res.ptr != base + 34) continue;
    out.push_back({std::bit_cast<double>(pb), std::bit_cast<double>(tb)});
  }
  return out;
}

}  // namespace mpros::oosm
