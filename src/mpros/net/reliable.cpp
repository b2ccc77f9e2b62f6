#include "mpros/net/reliable.hpp"

#include <algorithm>
#include <atomic>

#include "mpros/common/assert.hpp"
#include "mpros/common/log.hpp"
#include "mpros/common/rng.hpp"
#include "mpros/net/fleet_summary.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::net {

namespace {

struct ReliableMetrics {
  telemetry::Counter& envelopes_sent;
  telemetry::Counter& retransmits;
  telemetry::Counter& retransmit_overflow;
  telemetry::Counter& retransmit_max_backoff;
  telemetry::Gauge& retransmit_inflight;

  static ReliableMetrics& get() {
    static auto& reg = telemetry::Registry::instance();
    static ReliableMetrics m{
        reg.counter("net.envelopes_sent"),
        reg.counter("net.retransmits"),
        reg.counter("net.retransmit_overflow"),
        reg.counter("net.retransmit_max_backoff"),
        reg.gauge("net.retransmit_inflight"),
    };
    return m;
  }
};

/// Unacked entries across every live sender in the process; the
/// net.retransmit_inflight gauge mirrors it so the operator sees total
/// recovery debt, not just the last sender to move.
std::atomic<std::int64_t> g_inflight{0};

void adjust_inflight(std::int64_t delta) {
  if (delta == 0) return;
  const std::int64_t now =
      g_inflight.fetch_add(delta, std::memory_order_relaxed) + delta;
  ReliableMetrics::get().retransmit_inflight.set(static_cast<double>(now));
}

}  // namespace

SimTime desync_phase(std::uint64_t stream_id, SimTime period) {
  const std::int64_t quarter = period.micros() / 4;
  if (quarter <= 0) return SimTime(0);
  // splitmix64 over the stream id: avalanche spreads consecutive DC ids
  // across the whole window.
  return SimTime(static_cast<std::int64_t>(
      splitmix64(stream_id ^ 0x9E3779B97F4A7C15ULL) %
      static_cast<std::uint64_t>(quarter)));
}

ReliableSender::ReliableSender(DcId dc, ReliableConfig cfg)
    : dc_(dc), cfg_(cfg) {
  MPROS_EXPECTS(cfg.buffer_limit >= 1);
  MPROS_EXPECTS(cfg.backoff >= 1.0);
  MPROS_EXPECTS(cfg.initial_rto.micros() > 0);
}

ReliableSender::~ReliableSender() {
  // Entries dying unacked leave the recovery-debt ledger with the sender.
  adjust_inflight(-static_cast<std::int64_t>(window_.size()));
}

std::vector<std::uint8_t> ReliableSender::envelope(
    std::span<const FailureReport> reports, SimTime now) {
  std::lock_guard lock(mu_);
  return seal(wrap_batch_envelope(dc_, next_sequence_, reports), now);
}

std::vector<std::uint8_t> ReliableSender::envelope(const FleetSummary& summary,
                                                   SimTime now) {
  std::lock_guard lock(mu_);
  FleetSummaryEnvelope env;
  env.ship = ShipId(dc_.value());
  env.sequence = next_sequence_;
  env.summary = summary;
  return seal(wrap(env), now);
}

std::vector<std::uint8_t> ReliableSender::envelope(const CommandMessage& cmd,
                                                   SimTime now) {
  std::lock_guard lock(mu_);
  CommandEnvelope env;
  env.dc = dc_;
  env.sequence = next_sequence_;
  env.command = cmd;
  return seal(wrap(env), now);
}

std::vector<std::uint8_t> ReliableSender::seal(
    std::vector<std::uint8_t> payload, SimTime now) {
  std::int64_t inflight_delta = 1;
  if (window_.size() >= cfg_.buffer_limit) {
    MPROS_LOG_WARN("net",
                   "dc-%llu retransmit buffer full; dropping seq=%llu unacked",
                   static_cast<unsigned long long>(dc_.value()),
                   static_cast<unsigned long long>(window_.front().sequence));
    window_.pop_front();
    --inflight_delta;
    ++stats_.overflow_dropped;
    ReliableMetrics::get().retransmit_overflow.inc();
  }
  window_.push_back(Entry{next_sequence_, payload, now + cfg_.initial_rto,
                          cfg_.initial_rto});
  ++next_sequence_;
  ++stats_.enveloped;
  ReliableMetrics::get().envelopes_sent.inc();
  adjust_inflight(inflight_delta);
  return payload;
}

void ReliableSender::on_ack(const AckMessage& ack) {
  if (ack.dc != dc_) return;  // mis-routed datagram
  std::lock_guard lock(mu_);
  std::int64_t retired = 0;
  while (!window_.empty() && window_.front().sequence <= ack.cumulative) {
    window_.pop_front();
    ++stats_.acked;
    ++retired;
  }
  adjust_inflight(-retired);
}

std::vector<std::vector<std::uint8_t>> ReliableSender::due_retransmits(
    SimTime now) {
  std::lock_guard lock(mu_);
  std::vector<std::vector<std::uint8_t>> due;
  for (Entry& e : window_) {
    if (now < e.next_retry) continue;
    due.push_back(e.payload);
    const bool was_max = e.rto >= cfg_.max_rto;
    e.rto = std::min(cfg_.max_rto,
                     SimTime(static_cast<std::int64_t>(
                         static_cast<double>(e.rto.micros()) * cfg_.backoff)));
    e.next_retry = now + e.rto;
    ++stats_.retransmits;
    if (!was_max && e.rto >= cfg_.max_rto) {
      // The entry just hit the backoff ceiling: from here on it retries at
      // the slowest cadence until acked or evicted. Counted, so a stuck
      // link shows up in telemetry before the dead-letter Warn fires.
      ++stats_.max_backoff_hits;
      ReliableMetrics::get().retransmit_max_backoff.inc();
    }
  }
  if (!due.empty()) {
    ReliableMetrics::get().retransmits.inc(due.size());
  }
  return due;
}

std::uint64_t ReliableSender::last_sequence() const {
  std::lock_guard lock(mu_);
  return next_sequence_ - 1;
}

std::size_t ReliableSender::unacked() const {
  std::lock_guard lock(mu_);
  return window_.size();
}

ReliableSender::Stats ReliableSender::snapshot() const {
  std::lock_guard lock(mu_);
  return stats_;
}

ReliableReceiver::Outcome ReliableReceiver::on_envelope(
    DcId dc, std::uint64_t sequence) {
  MPROS_EXPECTS(sequence >= 1);
  Stream& s = streams_[dc.value()];
  Outcome out;

  if (sequence <= s.contiguous || s.pending.contains(sequence)) {
    out.duplicate = true;
    ++stats_.duplicates;
  } else {
    if (sequence > s.max_known) {
      // Everything between the old horizon and this arrival is missing.
      out.new_gaps = sequence - std::max(s.max_known, s.contiguous) - 1;
      s.max_known = sequence;
    } else {
      // A known-missing sequence arrived: one gap healed.
      ++stats_.gaps_healed;
    }
    stats_.gaps_detected += out.new_gaps;
    ++stats_.accepted;
    s.pending.insert(sequence);
    while (!s.pending.empty() && *s.pending.begin() == s.contiguous + 1) {
      ++s.contiguous;
      s.pending.erase(s.pending.begin());
    }
  }

  out.ack.dc = dc;
  out.ack.cumulative = s.contiguous;
  return out;
}

bool ReliableReceiver::is_duplicate(DcId dc, std::uint64_t sequence) const {
  MPROS_EXPECTS(sequence >= 1);
  const auto it = streams_.find(dc.value());
  if (it == streams_.end()) return false;
  const Stream& s = it->second;
  return sequence <= s.contiguous || s.pending.contains(sequence);
}

AckMessage ReliableReceiver::make_ack(DcId dc) const {
  return AckMessage{dc, cumulative(dc)};
}

std::uint64_t ReliableReceiver::on_advertised(DcId dc,
                                              std::uint64_t last_sequence) {
  Stream& s = streams_[dc.value()];
  if (last_sequence <= s.max_known) return 0;
  const std::uint64_t newly_missing =
      last_sequence - std::max(s.max_known, s.contiguous);
  s.max_known = last_sequence;
  stats_.gaps_detected += newly_missing;
  return newly_missing;
}

std::uint64_t ReliableReceiver::cumulative(DcId dc) const {
  const auto it = streams_.find(dc.value());
  return it == streams_.end() ? 0 : it->second.contiguous;
}

std::uint64_t ReliableReceiver::open_gaps(DcId dc) const {
  const auto it = streams_.find(dc.value());
  if (it == streams_.end()) return 0;
  const Stream& s = it->second;
  // Missing = everything the DC is known to have sent, minus everything
  // received (the contiguous prefix plus the out-of-order pending set).
  return s.max_known - s.contiguous - s.pending.size();
}

}  // namespace mpros::net
