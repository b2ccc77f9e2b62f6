#pragma once
// Reliable report delivery over the hostile ship transport.
//
// §5.1 lets knowledge fusion *tolerate* gaps; this layer makes the system
// *recover* from them. Each DC seals its failure reports in monotonically
// sequence-numbered batch datagrams and keeps a bounded retransmit buffer;
// the PDME detects stream gaps, drops duplicate sequences, and acknowledges
// cumulatively so the DC can retire delivered entries. Retransmissions back
// off exponentially, driven by whatever scheduler ticks the owning
// component (the DC's event scheduler in the assembled system).
//
// Thread-safe: the DC worker sweeps retransmits while the driver thread
// delivers ACKs; both sides serialize on an internal mutex.

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "mpros/common/clock.hpp"
#include "mpros/net/messages.hpp"

namespace mpros::net {

struct FleetSummary;  // fleet_summary.hpp

/// Deterministic per-stream phase offset in [0, period/4): hundreds of DCs
/// brought up together would otherwise run their retransmit sweeps and
/// heartbeats in lockstep and burst-retransmit the instant an outage ends.
/// Seeded by stream id (splitmix64), not by time, so a restarted owner
/// keeps its phase and the schedule stays deterministic.
[[nodiscard]] SimTime desync_phase(std::uint64_t stream_id, SimTime period);

struct ReliableConfig {
  /// Unacked envelopes kept for retransmission; beyond this the oldest is
  /// dropped (counted, warned) — bounded memory beats unbounded recovery.
  std::size_t buffer_limit = 256;
  SimTime initial_rto = SimTime::from_seconds(90.0);
  SimTime max_rto = SimTime::from_seconds(1800.0);
  double backoff = 2.0;  ///< RTO multiplier per retransmission
};

/// DC side: envelopes reports, buffers them until acked, and surfaces the
/// retransmissions that have come due.
class ReliableSender {
 public:
  explicit ReliableSender(DcId dc, ReliableConfig cfg = {});
  ~ReliableSender();

  ReliableSender(const ReliableSender&) = delete;
  ReliableSender& operator=(const ReliableSender&) = delete;

  /// Seal one sync window's reports under the next sequence number
  /// (ReportBatchEnvelopeMsg), buffer the datagram for retransmission, and
  /// return its wire payload for immediate send. The whole window acks,
  /// gaps, and retransmits as a unit.
  [[nodiscard]] std::vector<std::uint8_t> envelope(
      std::span<const FailureReport> reports, SimTime now);

  /// Fleet-tier overload: seal a ship-to-shore summary in the same
  /// sequence/retransmit window. The stream id is this sender's `dc`
  /// value, reinterpreted as the hull's ShipId — one reliable stream per
  /// uplink, same ack algebra.
  [[nodiscard]] std::vector<std::uint8_t> envelope(const FleetSummary& summary,
                                                   SimTime now);

  /// Control-plane overload: seal a runtime-reconfiguration command in the
  /// same sequence/retransmit window. The PDME keeps one such sender per
  /// DC (the `dc` value is the target), so commands ride the same ack
  /// algebra as reports, just pointed the other way.
  [[nodiscard]] std::vector<std::uint8_t> envelope(const CommandMessage& cmd,
                                                   SimTime now);

  /// Retire every buffered envelope with sequence <= ack.cumulative.
  void on_ack(const AckMessage& ack);

  /// Wire payloads whose retransmission timer expired at or before `now`;
  /// each returned entry's timer is backed off for the next round.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> due_retransmits(
      SimTime now);

  [[nodiscard]] DcId dc() const { return dc_; }
  [[nodiscard]] std::uint64_t last_sequence() const;
  [[nodiscard]] std::size_t unacked() const;

  struct Stats {
    std::uint64_t enveloped = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t acked = 0;
    std::uint64_t overflow_dropped = 0;  ///< evicted before being acked
    /// Entries whose retransmission timer reached max_rto: the link has
    /// been down long enough that recovery now crawls — the observable
    /// precursor to overflow_dropped (net.retransmit_max_backoff counter).
    std::uint64_t max_backoff_hits = 0;

    friend bool operator==(const Stats&, const Stats&) = default;
  };
  /// Coherent copy of the sender's counters, taken under the stream lock.
  /// All fields are monotonic counters (never regress); instantaneous
  /// gauges live on their own accessors (unacked()) or in telemetry
  /// (net.retransmit_inflight).
  [[nodiscard]] Stats snapshot() const;

 private:
  struct Entry {
    std::uint64_t sequence = 0;
    std::vector<std::uint8_t> payload;
    SimTime next_retry;
    SimTime rto;
  };

  /// Buffer `payload` (already carrying `next_sequence_`) in the window,
  /// advancing the sequence. Caller holds mu_.
  [[nodiscard]] std::vector<std::uint8_t> seal(std::vector<std::uint8_t> payload,
                                               SimTime now);

  const DcId dc_;
  const ReliableConfig cfg_;
  mutable std::mutex mu_;
  std::uint64_t next_sequence_ = 1;
  std::deque<Entry> window_;  // ascending sequence
  Stats stats_;
};

/// PDME side: per-DC stream state. Detects gaps the moment a later
/// sequence (or a heartbeat advertising one) arrives, counts healed gaps
/// when retransmissions fill them, and produces the cumulative ACK.
class ReliableReceiver {
 public:
  struct Outcome {
    bool duplicate = false;      ///< sequence already applied — drop payload
    std::uint64_t new_gaps = 0;  ///< sequences newly discovered missing
    AckMessage ack;              ///< cumulative ack to return to the DC
  };

  /// Record arrival of `sequence` from `dc`.
  Outcome on_envelope(DcId dc, std::uint64_t sequence);

  /// Would on_envelope(dc, sequence) report a duplicate? Pure query — no
  /// stats or stream mutation. The PDME asks this before ingesting so it
  /// can drop and re-ack retransmissions without fusing them, and only
  /// commits the stream state (on_envelope) once the reports are fused —
  /// acking a report that never reached fusion would lose it forever.
  [[nodiscard]] bool is_duplicate(DcId dc, std::uint64_t sequence) const;

  /// Cumulative ack for `dc` from current stream state (e.g. re-acking a
  /// duplicate without running on_envelope).
  [[nodiscard]] AckMessage make_ack(DcId dc) const;

  /// A heartbeat advertised the DC's newest sequence: any sequence between
  /// the highest seen and `last_sequence` is a (tail) gap. Returns how many
  /// were newly discovered missing.
  std::uint64_t on_advertised(DcId dc, std::uint64_t last_sequence);

  /// Highest sequence S such that 1..S have all arrived.
  [[nodiscard]] std::uint64_t cumulative(DcId dc) const;
  /// Sequences known missing right now (detected, not yet healed).
  [[nodiscard]] std::uint64_t open_gaps(DcId dc) const;

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t gaps_detected = 0;
    std::uint64_t gaps_healed = 0;

    friend bool operator==(const Stats&, const Stats&) = default;
  };
  /// Copy of the receiver's counters — all monotonic; the instantaneous
  /// stream view lives on cumulative()/open_gaps(). Single-threaded like
  /// the rest of the receiver (the PDME driver owns it).
  [[nodiscard]] Stats snapshot() const { return stats_; }

 private:
  struct Stream {
    std::uint64_t contiguous = 0;     ///< 1..contiguous all received
    std::uint64_t max_known = 0;      ///< highest sequence seen/advertised
    std::set<std::uint64_t> pending;  ///< received above `contiguous`
  };

  std::map<std::uint64_t, Stream> streams_;  // by DcId value
  Stats stats_;
};

}  // namespace mpros::net
