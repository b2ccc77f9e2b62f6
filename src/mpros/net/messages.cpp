#include "mpros/net/messages.hpp"

#include "mpros/common/codec.hpp"

namespace mpros::net {

namespace {

constexpr std::uint16_t kCommandMagic = 0x434D;  // "CM"
constexpr std::uint8_t kCommandVersion = 1;

constexpr std::uint16_t kBatchMagic = 0x4252;  // "RB"
constexpr std::uint8_t kBatchVersion = 1;

/// Batch body: magic, version, source DC, report count, then that many
/// report frames back to back (each a full magic+version report encoding,
/// so a frame-level version bump never needs a batch version bump).
void append_batch_body(Writer& w, DcId dc,
                       std::span<const FailureReport> reports) {
  w.u16(kBatchMagic);
  w.u8(kBatchVersion);
  w.u64(dc.value());
  w.u32(static_cast<std::uint32_t>(reports.size()));
  for (const FailureReport& r : reports) serialize_report_into(w, r);
}

/// Decodes a batch body into the arena's prefix, stamping `sequence` on
/// every element. Returns the view or nullopt; the arena only grows.
std::optional<ReportBatchView> try_read_batch_body(
    std::span<const std::uint8_t> body, std::uint64_t sequence,
    std::vector<ReportEnvelope>& arena) {
  TryReader rd(body);
  if (rd.u16() != kBatchMagic) return std::nullopt;
  const std::uint8_t version = rd.u8();
  if (!rd.ok() || version < 1 || version > kBatchVersion) return std::nullopt;
  ReportBatchView view;
  view.dc = DcId(rd.u64());
  view.sequence = sequence;
  const std::uint32_t n = rd.u32();
  // The smallest legal report frame is far above 64 bytes: reject counts
  // the payload cannot hold before growing the arena.
  if (!rd.ok() || n > rd.remaining() / 64) return std::nullopt;
  if (arena.size() < n) arena.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ReportEnvelope& slot = arena[i];
    if (!try_read_report_frame(rd, slot.report)) return std::nullopt;
    if (slot.report.dc != view.dc) return std::nullopt;  // forged source
    slot.dc = view.dc;
    slot.sequence = sequence;
  }
  if (!rd.done()) return std::nullopt;
  view.count = n;
  return view;
}

}  // namespace

const char* to_string(MessageType t) {
  switch (t) {
    case MessageType::FailureReportMsg: return "failure-report";
    case MessageType::SensorData: return "sensor-data";
    case MessageType::TestCommand: return "test-command";
    case MessageType::ReportEnvelopeMsg: return "report-envelope";
    case MessageType::Ack: return "ack";
    case MessageType::Heartbeat: return "heartbeat";
    case MessageType::FleetSummaryEnvelopeMsg: return "fleet-summary";
    case MessageType::Command: return "command";
    case MessageType::CommandEnvelopeMsg: return "command-envelope";
    case MessageType::ReportBatchMsg: return "report-batch";
    case MessageType::ReportBatchEnvelopeMsg: return "report-batch-envelope";
  }
  return "?";
}

std::optional<MessageType> try_peek_type(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return std::nullopt;
  switch (static_cast<MessageType>(bytes[0])) {
    case MessageType::SensorData:
    case MessageType::TestCommand:
    case MessageType::Ack:
    case MessageType::Heartbeat:
    case MessageType::FleetSummaryEnvelopeMsg:
    case MessageType::Command:
    case MessageType::CommandEnvelopeMsg:
    case MessageType::ReportBatchEnvelopeMsg:
      return static_cast<MessageType>(bytes[0]);
    case MessageType::FailureReportMsg:
    case MessageType::ReportEnvelopeMsg:
    case MessageType::ReportBatchMsg:
      break;  // retired report tags
  }
  return std::nullopt;
}

std::vector<std::uint8_t> wrap(const SensorDataMessage& m) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MessageType::SensorData));
  w.u64(m.dc.value());
  w.u64(m.machine.value());
  w.i64(m.timestamp.micros());
  w.u32(static_cast<std::uint32_t>(m.values.size()));
  for (const auto& [key, value] : m.values) {
    w.str(key);
    w.f64(value);
  }
  return w.take();
}

std::vector<std::uint8_t> wrap(const TestCommandMessage& m) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MessageType::TestCommand));
  w.u64(m.target.value());
  w.u8(static_cast<std::uint8_t>(m.command));
  w.str(m.reason);
  return w.take();
}

std::vector<std::uint8_t> wrap(const AckMessage& m) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MessageType::Ack));
  w.u64(m.dc.value());
  w.u64(m.cumulative);
  return w.take();
}

std::vector<std::uint8_t> wrap(const HeartbeatMessage& m) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MessageType::Heartbeat));
  w.u64(m.dc.value());
  w.i64(m.timestamp.micros());
  w.u64(m.last_sequence);
  return w.take();
}

std::vector<std::uint8_t> serialize(const CommandMessage& m) {
  Writer w;
  w.u16(kCommandMagic);
  w.u8(kCommandVersion);
  w.u64(m.target.value());
  w.u64(m.revision);
  w.i64(m.issued_at.micros());
  w.str(m.reason);
  w.u32(static_cast<std::uint32_t>(m.settings.size()));
  for (const auto& [key, value] : m.settings) {
    w.str(key);
    w.f64(value);
  }
  return w.take();
}

std::optional<CommandMessage> try_deserialize_command(
    std::span<const std::uint8_t> bytes) {
  TryReader rd(bytes);
  if (rd.u16() != kCommandMagic) return std::nullopt;
  const std::uint8_t version = rd.u8();
  if (!rd.ok() || version < 1 || version > kCommandVersion) {
    return std::nullopt;
  }
  CommandMessage m;
  m.target = DcId(rd.u64());
  m.revision = rd.u64();
  m.issued_at = SimTime(rd.i64());
  m.reason = rd.str();
  const std::uint32_t n = rd.u32();
  // A setting is at least a length prefix (4) plus the f64 (8): reject
  // counts the payload cannot hold before reserving.
  if (!rd.ok() || n > rd.remaining() / 12) return std::nullopt;
  m.settings.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string key = rd.str();
    const double value = rd.f64();
    if (!rd.ok()) return std::nullopt;
    m.settings.emplace_back(std::move(key), value);
  }
  if (!rd.ok() || !rd.done()) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> wrap(const CommandMessage& m) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(MessageType::Command));
  const std::vector<std::uint8_t> body = serialize(m);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::vector<std::uint8_t> wrap(const CommandEnvelope& m) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MessageType::CommandEnvelopeMsg));
  w.u64(m.dc.value());
  w.u64(m.sequence);
  const std::vector<std::uint8_t> body = serialize(m.command);
  std::vector<std::uint8_t> out = w.take();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::vector<std::uint8_t> wrap_batch_envelope(
    DcId dc, std::uint64_t sequence, std::span<const FailureReport> reports) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MessageType::ReportBatchEnvelopeMsg));
  w.u64(dc.value());
  w.u64(sequence);
  append_batch_body(w, dc, reports);
  return w.take();
}

std::optional<ReportBatchView> try_unwrap_reports_into(
    std::span<const std::uint8_t> bytes, std::vector<ReportEnvelope>& arena) {
  if (try_peek_type(bytes) != MessageType::ReportBatchEnvelopeMsg) {
    return std::nullopt;
  }
  TryReader hdr(bytes.subspan(1));
  const DcId dc{hdr.u64()};
  const std::uint64_t sequence = hdr.u64();
  if (!hdr.ok()) return std::nullopt;
  auto view = try_read_batch_body(bytes.subspan(1 + 16), sequence, arena);
  if (!view.has_value() || view->dc != dc) return std::nullopt;
  return view;
}

std::optional<CommandMessage> try_unwrap_command(
    std::span<const std::uint8_t> bytes) {
  if (try_peek_type(bytes) != MessageType::Command) return std::nullopt;
  return try_deserialize_command(bytes.subspan(1));
}

std::optional<CommandEnvelope> try_unwrap_command_envelope(
    std::span<const std::uint8_t> bytes) {
  if (try_peek_type(bytes) != MessageType::CommandEnvelopeMsg) {
    return std::nullopt;
  }
  TryReader r(bytes.subspan(1));
  CommandEnvelope m;
  m.dc = DcId(r.u64());
  m.sequence = r.u64();
  if (!r.ok() || m.sequence == 0) return std::nullopt;
  auto command =
      try_deserialize_command(bytes.subspan(1 + 16));  // past dc + sequence
  if (!command.has_value()) return std::nullopt;
  m.command = *std::move(command);
  return m;
}

std::optional<SensorDataMessage> try_unwrap_sensor_data(
    std::span<const std::uint8_t> bytes) {
  if (try_peek_type(bytes) != MessageType::SensorData) return std::nullopt;
  TryReader r(bytes.subspan(1));
  SensorDataMessage m;
  m.dc = DcId(r.u64());
  m.machine = ObjectId(r.u64());
  m.timestamp = SimTime(r.i64());
  const std::uint32_t n = r.u32();
  // Each entry is at least a length prefix plus the f64: guard the reserve
  // against corrupted counts.
  if (!r.ok() || n > r.remaining() / 12) return std::nullopt;
  m.values.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string key = r.str();
    const double value = r.f64();
    m.values.emplace_back(std::move(key), value);
  }
  if (!r.ok() || !r.done()) return std::nullopt;
  return m;
}

std::optional<TestCommandMessage> try_unwrap_test_command(
    std::span<const std::uint8_t> bytes) {
  if (try_peek_type(bytes) != MessageType::TestCommand) return std::nullopt;
  TryReader r(bytes.subspan(1));
  TestCommandMessage m;
  m.target = DcId(r.u64());
  const std::uint8_t command = r.u8();
  if (!r.ok() ||
      command != static_cast<std::uint8_t>(
                     TestCommandMessage::Command::VibrationTest)) {
    return std::nullopt;
  }
  m.command = static_cast<TestCommandMessage::Command>(command);
  m.reason = r.str();
  if (!r.ok() || !r.done()) return std::nullopt;
  return m;
}

std::optional<AckMessage> try_unwrap_ack(std::span<const std::uint8_t> bytes) {
  if (try_peek_type(bytes) != MessageType::Ack) return std::nullopt;
  TryReader r(bytes.subspan(1));
  AckMessage m;
  m.dc = DcId(r.u64());
  m.cumulative = r.u64();
  if (!r.ok() || !r.done()) return std::nullopt;
  return m;
}

std::optional<HeartbeatMessage> try_unwrap_heartbeat(
    std::span<const std::uint8_t> bytes) {
  if (try_peek_type(bytes) != MessageType::Heartbeat) return std::nullopt;
  TryReader r(bytes.subspan(1));
  HeartbeatMessage m;
  m.dc = DcId(r.u64());
  m.timestamp = SimTime(r.i64());
  m.last_sequence = r.u64();
  if (!r.ok() || !r.done()) return std::nullopt;
  return m;
}

}  // namespace mpros::net
