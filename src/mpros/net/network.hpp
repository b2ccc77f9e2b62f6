#pragma once
// The simulated ship's network (DCOM transport substitute).
//
// §5.1 requires knowledge fusion to "accommodate inputs which are
// incomplete, time-disordered, fragmentary, and which have gaps" — so the
// transport injects exactly those pathologies, deterministically: latency
// with jitter (reordering), datagram loss, and duplication. Endpoints are
// named ("pdme", "dc-3"); deliveries fire when the scenario driver advances
// simulated time. Thread-safe: DC worker threads send concurrently while
// the driver thread advances.

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "mpros/common/clock.hpp"
#include "mpros/common/ids.hpp"
#include "mpros/common/rng.hpp"

namespace mpros::net {

struct Message {
  std::string from;
  std::string to;
  std::vector<std::uint8_t> payload;
  SimTime sent_at;
  SimTime delivered_at;
};

struct NetworkConfig {
  SimTime base_latency = SimTime::from_millis(5.0);
  SimTime jitter = SimTime::from_millis(20.0);  ///< uniform extra latency
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  std::uint64_t seed = 0xC0FFEE;
};

struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;        ///< total, including outage drops
  std::uint64_t duplicated = 0;
  std::uint64_t dead_lettered = 0;  ///< destination never registered
  std::uint64_t outage_dropped = 0; ///< subset of dropped due to outages
};

/// A scripted degradation window: while `from <= send time < to`, traffic
/// touching `endpoint` (as source or destination; empty = all traffic)
/// drops with `drop_probability`. Probability 1 is a hard partition;
/// anything lower is a burst-loss window. Loss is decided at send time, so
/// a given seed always yields the same delivery trace.
struct Outage {
  std::string endpoint;
  SimTime from;
  SimTime to;
  double drop_probability = 1.0;
};

/// The network endpoint name of a data concentrator ("dc-<id>").
[[nodiscard]] std::string dc_endpoint(DcId dc);

class SimNetwork {
 public:
  explicit SimNetwork(NetworkConfig cfg = {});

  using Handler = std::function<void(const Message&)>;

  /// Register a named endpoint. Handlers run on the thread that calls
  /// advance_to(). Re-registering a name replaces its handler.
  void register_endpoint(const std::string& name, Handler handler);

  /// Observe every *delivered* message (after latency/drop/duplication,
  /// before the endpoint handler) — the flight recorder's capture point.
  /// One tap; nullptr clears. Runs on the delivering thread.
  void set_delivery_tap(Handler tap);

  /// Queue a message. Latency/drop/duplication are decided at send time
  /// (deterministic given the seed and send order).
  void send(const std::string& from, const std::string& to,
            std::vector<std::uint8_t> payload, SimTime now);

  /// Script a partition or burst-loss window. Windows may overlap; the
  /// worst (highest) active drop probability wins.
  void schedule_outage(Outage outage);

  /// Deliver everything due at or before `now`, in delivery-time order.
  /// Returns the number of messages delivered.
  std::size_t advance_to(SimTime now);

  /// Deliver everything still in flight regardless of time.
  std::size_t flush();

  [[nodiscard]] NetworkStats stats() const;
  [[nodiscard]] std::size_t in_flight() const;

 private:
  struct Pending {
    SimTime deliver_at;
    std::uint64_t sequence;  // tie-break for determinism
    Message message;
  };
  struct Later {
    bool operator()(const Pending& a, const Pending& b) const {
      if (a.deliver_at != b.deliver_at) return b.deliver_at < a.deliver_at;
      return b.sequence < a.sequence;
    }
  };

  void enqueue_locked(Message msg, SimTime deliver_at);
  std::size_t deliver_due(SimTime now, bool everything);

  [[nodiscard]] double drop_probability_at(const std::string& from,
                                           const std::string& to,
                                           SimTime now) const;

  mutable std::mutex mu_;
  NetworkConfig cfg_;
  Rng rng_;
  std::vector<Outage> outages_;
  Handler tap_;
  std::map<std::string, Handler> endpoints_;
  std::priority_queue<Pending, std::vector<Pending>, Later> queue_;
  NetworkStats stats_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace mpros::net
