#include "mpros/net/fleet_summary.hpp"

#include "mpros/common/codec.hpp"
#include "mpros/net/messages.hpp"

namespace mpros::net {
namespace {

constexpr std::uint16_t kFleetMagic = 0x4653;  // "FS"
constexpr std::uint8_t kFleetVersion = 1;

// Per-machine flag bits.
constexpr std::uint8_t kHasDiagnosis = 0x01;
constexpr std::uint8_t kHasMedianTtf = 0x02;

}  // namespace

std::vector<std::uint8_t> serialize(const FleetSummary& s) {
  Writer w;
  w.u16(kFleetMagic);
  w.u8(kFleetVersion);
  w.u64(s.ship.value());
  w.str(s.ship_name);
  w.i64(s.timestamp.micros());
  w.u32(s.dcs_alive);
  w.u32(s.dcs_stale);
  w.u32(s.dcs_lost);
  w.u32(s.quarantine_active);
  w.u64(s.quarantine_total);
  w.u32(static_cast<std::uint32_t>(s.machines.size()));
  for (const MachineHealthSummary& m : s.machines) {
    w.u64(m.machine.value());
    w.str(m.name);
    w.str(m.klass);
    w.f64(m.health);
    std::uint8_t flags = 0;
    if (m.has_diagnosis) flags |= kHasDiagnosis;
    if (m.has_median_ttf) flags |= kHasMedianTtf;
    w.u8(flags);
    if (m.has_diagnosis) {
      w.u8(static_cast<std::uint8_t>(m.top_mode));
      w.f64(m.top_belief);
      w.f64(m.top_severity);
      w.f64(m.priority);
      w.u32(m.report_count);
    }
    if (m.has_median_ttf) w.i64(m.median_ttf.micros());
  }
  return w.take();
}

std::optional<FleetSummary> try_deserialize_fleet_summary(
    std::span<const std::uint8_t> bytes) {
  TryReader rd(bytes);
  if (rd.u16() != kFleetMagic) return std::nullopt;
  const std::uint8_t version = rd.u8();
  if (!rd.ok() || version < 1 || version > kFleetVersion) return std::nullopt;

  FleetSummary s;
  s.ship = ShipId(rd.u64());
  s.ship_name = rd.str();
  s.timestamp = SimTime(rd.i64());
  s.dcs_alive = rd.u32();
  s.dcs_stale = rd.u32();
  s.dcs_lost = rd.u32();
  s.quarantine_active = rd.u32();
  s.quarantine_total = rd.u64();
  const std::uint32_t n = rd.u32();
  // A machine entry is at least id (8) + two length prefixes (8) + health
  // (8) + flags (1): reject counts the payload cannot hold before reserving
  // (a corrupted count must not become a huge allocation).
  if (!rd.ok() || n > rd.remaining() / 25) return std::nullopt;
  s.machines.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    MachineHealthSummary m;
    m.machine = ObjectId(rd.u64());
    m.name = rd.str();
    m.klass = rd.str();
    m.health = rd.f64();
    const std::uint8_t flags = rd.u8();
    if (!rd.ok() || (flags & ~(kHasDiagnosis | kHasMedianTtf)) != 0) {
      return std::nullopt;
    }
    if ((flags & kHasDiagnosis) != 0) {
      m.has_diagnosis = true;
      const std::uint8_t mode = rd.u8();
      if (!rd.ok() || mode >= domain::kFailureModeCount) return std::nullopt;
      m.top_mode = static_cast<domain::FailureMode>(mode);
      m.top_belief = rd.f64();
      m.top_severity = rd.f64();
      m.priority = rd.f64();
      m.report_count = rd.u32();
    }
    if ((flags & kHasMedianTtf) != 0) {
      m.has_median_ttf = true;
      m.median_ttf = SimTime(rd.i64());
    }
    if (!rd.ok()) return std::nullopt;
    s.machines.push_back(std::move(m));
  }
  if (!rd.ok() || !rd.done()) return std::nullopt;
  return s;
}

std::vector<std::uint8_t> wrap(const FleetSummaryEnvelope& m) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MessageType::FleetSummaryEnvelopeMsg));
  w.u64(m.ship.value());
  w.u64(m.sequence);
  const std::vector<std::uint8_t> body = serialize(m.summary);
  std::vector<std::uint8_t> out = w.take();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::optional<FleetSummaryEnvelope> try_unwrap_fleet_envelope(
    std::span<const std::uint8_t> bytes) {
  if (try_peek_type(bytes) != MessageType::FleetSummaryEnvelopeMsg) {
    return std::nullopt;
  }
  TryReader r(bytes.subspan(1));
  FleetSummaryEnvelope m;
  m.ship = ShipId(r.u64());
  m.sequence = r.u64();
  if (!r.ok() || m.sequence == 0) return std::nullopt;
  auto summary =
      try_deserialize_fleet_summary(bytes.subspan(1 + 16));  // past ship + seq
  if (!summary.has_value()) return std::nullopt;
  m.summary = *std::move(summary);
  return m;
}

}  // namespace mpros::net
