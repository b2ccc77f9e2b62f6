#include "mpros/net/report.hpp"

#include <cstdio>
#include <span>

#include "mpros/common/codec.hpp"

namespace mpros::net {
namespace {

constexpr std::uint16_t kReportMagic = 0x4D52;  // "MR"
// Decoders accept this version only; it carries the telemetry trace id
// after the version byte.
constexpr std::uint8_t kReportVersion = 2;

}  // namespace

void serialize_report_into(Writer& w, const FailureReport& r) {
  w.u16(kReportMagic);
  w.u8(kReportVersion);
  w.u64(r.trace);
  w.u64(r.dc.value());
  w.u64(r.knowledge_source.value());
  w.u64(r.sensed_object.value());
  w.u64(r.machine_condition.value());
  w.f64(r.severity);
  w.f64(r.belief);
  w.str(r.explanation);
  w.str(r.recommendations);
  w.i64(r.timestamp.micros());
  w.str(r.additional_info);
  w.u32(static_cast<std::uint32_t>(r.prognostics.size()));
  for (const PrognosticPair& p : r.prognostics) {
    w.f64(p.probability);
    w.f64(p.time_seconds);
  }
}

std::vector<std::uint8_t> serialize(const FailureReport& r) {
  Writer w;
  serialize_report_into(w, r);
  return w.take();
}

bool try_read_report_frame(TryReader& rd, FailureReport& out) {
  if (rd.u16() != kReportMagic) {
    rd.fail();
    return false;
  }
  const std::uint8_t version = rd.u8();
  if (!rd.ok() || version != kReportVersion) {
    rd.fail();
    return false;
  }
  out.trace = rd.u64();
  out.dc = DcId(rd.u64());
  out.knowledge_source = KnowledgeSourceId(rd.u64());
  out.sensed_object = ObjectId(rd.u64());
  out.machine_condition = ConditionId(rd.u64());
  out.severity = rd.f64();
  out.belief = rd.f64();
  rd.str(out.explanation);
  rd.str(out.recommendations);
  out.timestamp = SimTime(rd.i64());
  rd.str(out.additional_info);
  const std::uint32_t n = rd.u32();
  // Each pair is 16 bytes: reject counts the payload cannot hold before
  // reserving (a corrupted count must not become a huge allocation).
  if (!rd.ok() || n > rd.remaining() / 16) {
    rd.fail();
    return false;
  }
  out.prognostics.clear();
  out.prognostics.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    PrognosticPair p;
    p.probability = rd.f64();
    p.time_seconds = rd.f64();
    out.prognostics.push_back(p);
  }
  if (!rd.ok()) return false;
  return true;
}

std::optional<FailureReport> try_deserialize_report(
    std::span<const std::uint8_t> bytes) {
  TryReader rd(bytes);
  FailureReport r;
  if (!try_read_report_frame(rd, r) || !rd.done()) return std::nullopt;
  return r;
}

std::string summarize(const FailureReport& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "[dc=%llu ks=%llu] obj=%llu cond=%llu sev=%.2f bel=%.2f "
                "t=%s prog=%zu",
                static_cast<unsigned long long>(r.dc.value()),
                static_cast<unsigned long long>(r.knowledge_source.value()),
                static_cast<unsigned long long>(r.sensed_object.value()),
                static_cast<unsigned long long>(r.machine_condition.value()),
                r.severity, r.belief, to_string(r.timestamp).c_str(),
                r.prognostics.size());
  return buf;
}

}  // namespace mpros::net
