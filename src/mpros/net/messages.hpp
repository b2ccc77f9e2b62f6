#pragma once
// Message envelopes for the ship's network.
//
// Beyond failure-prediction reports (§7), the MPROS interfaces carry two
// more flows the paper describes:
//  - raw sensor data outward ("open interfaces to provide machinery
//    condition and raw sensor data to other shipboard systems", §1) and to
//    PDME-resident algorithms that need "data from widely separate parts
//    of the ship" (§5.7);
//  - commands inward ("the PDME or any other client can command the
//    scheduler to conduct another test and analysis routine", §5.8).
//
// Every datagram starts with a one-byte MessageType so endpoints dispatch
// without guessing.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mpros/common/clock.hpp"
#include "mpros/common/ids.hpp"
#include "mpros/net/report.hpp"

namespace mpros::net {

enum class MessageType : std::uint8_t {
  /// Retired report tag (lone unsequenced report). Reserved: try_peek_type
  /// rejects it, so endpoints count such datagrams as malformed.
  FailureReportMsg = 1,
  SensorData = 2,
  TestCommand = 3,
  /// Retired report tag (one sequenced report). Reserved, like tag 1.
  ReportEnvelopeMsg = 4,
  Ack = 5,
  Heartbeat = 6,
  /// Ship-to-shore fleet summary envelope (fleet_summary.hpp). Acked and
  /// heartbeat-advertised with the Ack/Heartbeat types above, the DcId
  /// field carrying the per-hull stream id.
  FleetSummaryEnvelopeMsg = 7,
  /// Bare runtime-reconfiguration command (CommandMessage): the shore
  /// downlink hop, fire-and-forget — the hull's PDME re-seals it in the
  /// target DC's reliable command stream.
  Command = 8,
  /// Sequenced runtime-reconfiguration command on a DC's reliable command
  /// stream (PDME -> DC), acked with the Ack type above.
  CommandEnvelopeMsg = 9,
  /// Retired report tag (unsequenced bare batch). Reserved, like tag 1.
  ReportBatchMsg = 10,
  /// The one report datagram: a batch of reports from one DC under one
  /// sequence number. On the reliable stream the sequence covers a whole
  /// sync window, so acks, gap detection, and retransmission move batches
  /// instead of single reports. Sequence 0 = unsequenced (no dedup, no
  /// ack); a single report is a batch of one.
  ReportBatchEnvelopeMsg = 11,
};

[[nodiscard]] const char* to_string(MessageType t);

/// A batch of named process-variable samples for one machine.
struct SensorDataMessage {
  DcId dc;
  ObjectId machine;
  SimTime timestamp;
  std::vector<std::pair<std::string, double>> values;

  friend bool operator==(const SensorDataMessage&,
                         const SensorDataMessage&) = default;
};

/// One decoded report with the header of the datagram that carried it:
/// the element of try_unwrap_reports_into's arena and of
/// PdmeExecutive::submit(). Sequences are per-DC and start at 1; 0 marks an
/// unsequenced report.
struct ReportEnvelope {
  DcId dc;
  std::uint64_t sequence = 0;
  FailureReport report;

  friend bool operator==(const ReportEnvelope&,
                         const ReportEnvelope&) = default;
};

/// Cumulative acknowledgement from the PDME back to one DC: every envelope
/// with sequence <= `cumulative` has been applied (or deduplicated).
struct AckMessage {
  DcId dc;                       ///< the DC whose report stream is acked
  std::uint64_t cumulative = 0;

  friend bool operator==(const AckMessage&, const AckMessage&) = default;
};

/// Periodic DC liveness beacon. `last_sequence` advertises the newest
/// report sequence the DC has sent, so the PDME can spot tail loss (a gap
/// with no later report to reveal it).
struct HeartbeatMessage {
  DcId dc;
  SimTime timestamp;
  std::uint64_t last_sequence = 0;

  friend bool operator==(const HeartbeatMessage&,
                         const HeartbeatMessage&) = default;
};

/// A runtime-reconfiguration command for one DC (the control plane): a
/// batch of well-known dotted settings keys with their new values (analyzer
/// toggles use 0/1). The DC validates each setting independently, applies
/// the valid ones, and persists them in its database so a restarted DC
/// comes back with its last-acked configuration.
///
/// `revision` orders commands per target: the DC applies a command only
/// when its revision is newer than the last applied one, so disordered or
/// retransmitted delivery converges on the newest command. Revision 0 is
/// unordered (always applied) for ad-hoc senders.
struct CommandMessage {
  DcId target;
  std::uint64_t revision = 0;
  SimTime issued_at;
  std::vector<std::pair<std::string, double>> settings;
  std::string reason;  ///< free text for the DC's journal

  friend bool operator==(const CommandMessage&,
                         const CommandMessage&) = default;
};

/// The unit of reliable command delivery: a per-DC command-stream sequence
/// (assigned by the PDME's per-DC ReliableSender, starting at 1) plus the
/// command. The DC acks cumulatively with AckMessage, exactly like the
/// report stream in the other direction.
struct CommandEnvelope {
  DcId dc;
  std::uint64_t sequence = 0;
  CommandMessage command;

  friend bool operator==(const CommandEnvelope&,
                         const CommandEnvelope&) = default;
};

/// Versioned CommandMessage body encoding (magic + version, like the fleet
/// summary codec).
[[nodiscard]] std::vector<std::uint8_t> serialize(const CommandMessage& m);

/// Fail-soft body decode for untrusted bytes: nullopt on bad magic/version,
/// truncation, corrupted counts, or trailing garbage — never aborts.
[[nodiscard]] std::optional<CommandMessage> try_deserialize_command(
    std::span<const std::uint8_t> bytes);

/// A command to a Data Concentrator's scheduler.
struct TestCommandMessage {
  enum class Command : std::uint8_t { VibrationTest = 1 };

  DcId target;
  Command command = Command::VibrationTest;
  std::string reason;  ///< free text for the DC's journal

  friend bool operator==(const TestCommandMessage&,
                         const TestCommandMessage&) = default;
};

/// Type tag of a wire datagram: nullopt on empty payloads, unknown type
/// bytes, or a retired report tag.
[[nodiscard]] std::optional<MessageType> try_peek_type(
    std::span<const std::uint8_t> bytes);

/// Header of a decoded report batch: where the reports came from and how
/// many landed in the arena's prefix.
struct ReportBatchView {
  DcId dc;
  std::uint64_t sequence = 0;  ///< 0 = unsequenced
  std::size_t count = 0;       ///< decoded elements at the arena's front
};

/// Fail-soft decoder for the report datagram (ReportBatchEnvelopeMsg) into
/// a caller-owned arena. The arena only ever grows — element strings and
/// prognostics vectors keep their capacity across calls, so steady-state
/// decode is allocation-free. Elements beyond the returned count hold stale
/// data from earlier batches; every element in the prefix has dc/sequence
/// stamped from the datagram header. Returns nullopt on any malformed byte:
/// one corrupt frame fails the whole datagram (batches share their
/// datagram's integrity fate).
[[nodiscard]] std::optional<ReportBatchView> try_unwrap_reports_into(
    std::span<const std::uint8_t> bytes, std::vector<ReportEnvelope>& arena);

// Enveloped encodings (type byte + body).
[[nodiscard]] std::vector<std::uint8_t> wrap(const SensorDataMessage& m);
[[nodiscard]] std::vector<std::uint8_t> wrap(const TestCommandMessage& m);
[[nodiscard]] std::vector<std::uint8_t> wrap(const AckMessage& m);
[[nodiscard]] std::vector<std::uint8_t> wrap(const HeartbeatMessage& m);
[[nodiscard]] std::vector<std::uint8_t> wrap(const CommandMessage& m);
[[nodiscard]] std::vector<std::uint8_t> wrap(const CommandEnvelope& m);

/// The report datagram (ReportBatchEnvelopeMsg): type byte + u64 dc + u64
/// sequence + versioned batch body. Sequence 0 sends the batch unsequenced.
/// The decoder rejects a body whose DC disagrees with the header.
[[nodiscard]] std::vector<std::uint8_t> wrap_batch_envelope(
    DcId dc, std::uint64_t sequence, std::span<const FailureReport> reports);

// Decoders for untrusted bytes: nullopt on wrong type, truncation, or
// corruption — never abort.
[[nodiscard]] std::optional<SensorDataMessage> try_unwrap_sensor_data(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] std::optional<TestCommandMessage> try_unwrap_test_command(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] std::optional<AckMessage> try_unwrap_ack(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] std::optional<HeartbeatMessage> try_unwrap_heartbeat(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] std::optional<CommandMessage> try_unwrap_command(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] std::optional<CommandEnvelope> try_unwrap_command_envelope(
    std::span<const std::uint8_t> bytes);

}  // namespace mpros::net
