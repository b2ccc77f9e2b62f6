#include "mpros/net/network.hpp"

#include <algorithm>

#include "mpros/common/assert.hpp"
#include "mpros/common/log.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::net {

namespace {

// Process-wide wire metrics; registered once, then relaxed atomics only.
struct NetMetrics {
  telemetry::Counter& sent;
  telemetry::Counter& bytes_sent;
  telemetry::Counter& delivered;
  telemetry::Counter& dropped;
  telemetry::Counter& duplicated;
  telemetry::Counter& dead_lettered;
  telemetry::Counter& outage_dropped;
  telemetry::Histogram& transit_latency_us;

  static NetMetrics& get() {
    static NetMetrics m{
        telemetry::Registry::instance().counter("net.sent"),
        telemetry::Registry::instance().counter("net.bytes_sent"),
        telemetry::Registry::instance().counter("net.delivered"),
        telemetry::Registry::instance().counter("net.dropped"),
        telemetry::Registry::instance().counter("net.duplicated"),
        telemetry::Registry::instance().counter("net.dead_lettered"),
        telemetry::Registry::instance().counter("net.outage_dropped"),
        telemetry::Registry::instance().histogram("net.transit_latency_us"),
    };
    return m;
  }
};

}  // namespace

std::string dc_endpoint(DcId dc) {
  return "dc-" + std::to_string(dc.value());
}

SimNetwork::SimNetwork(NetworkConfig cfg) : cfg_(cfg), rng_(cfg.seed) {
  MPROS_EXPECTS(cfg.drop_probability >= 0.0 && cfg.drop_probability < 1.0);
  MPROS_EXPECTS(cfg.duplicate_probability >= 0.0 &&
                cfg.duplicate_probability < 1.0);
}

void SimNetwork::register_endpoint(const std::string& name, Handler handler) {
  MPROS_EXPECTS(handler != nullptr);
  std::lock_guard lock(mu_);
  endpoints_[name] = std::move(handler);
}

void SimNetwork::enqueue_locked(Message msg, SimTime deliver_at) {
  msg.delivered_at = deliver_at;
  queue_.push(Pending{deliver_at, next_sequence_++, std::move(msg)});
}

void SimNetwork::set_delivery_tap(Handler tap) {
  std::lock_guard lock(mu_);
  tap_ = std::move(tap);
}

void SimNetwork::schedule_outage(Outage outage) {
  MPROS_EXPECTS(outage.from < outage.to);
  MPROS_EXPECTS(outage.drop_probability >= 0.0 &&
                outage.drop_probability <= 1.0);
  std::lock_guard lock(mu_);
  outages_.push_back(std::move(outage));
}

double SimNetwork::drop_probability_at(const std::string& from,
                                       const std::string& to,
                                       SimTime now) const {
  double p = cfg_.drop_probability;
  for (const Outage& o : outages_) {
    if (now < o.from || now >= o.to) continue;
    if (!o.endpoint.empty() && o.endpoint != from && o.endpoint != to) {
      continue;
    }
    p = std::max(p, o.drop_probability);
  }
  return p;
}

void SimNetwork::send(const std::string& from, const std::string& to,
                      std::vector<std::uint8_t> payload, SimTime now) {
  NetMetrics& metrics = NetMetrics::get();
  metrics.sent.inc();
  metrics.bytes_sent.inc(payload.size());

  std::lock_guard lock(mu_);
  ++stats_.sent;

  // A hard partition drops without touching the RNG, so scripting one does
  // not perturb the loss/jitter draws of unaffected traffic.
  const double drop_p = drop_probability_at(from, to, now);
  if (drop_p >= 1.0 || rng_.bernoulli(drop_p)) {
    ++stats_.dropped;
    metrics.dropped.inc();
    if (drop_p > cfg_.drop_probability) {
      ++stats_.outage_dropped;
      metrics.outage_dropped.inc();
    }
    return;
  }

  Message msg{from, to, std::move(payload), now, now};
  const auto latency = [&] {
    return cfg_.base_latency +
           SimTime(static_cast<std::int64_t>(rng_.uniform(
               0.0, static_cast<double>(cfg_.jitter.micros()))));
  };

  if (rng_.bernoulli(cfg_.duplicate_probability)) {
    ++stats_.duplicated;
    metrics.duplicated.inc();
    Message copy = msg;
    enqueue_locked(std::move(copy), now + latency());
  }
  enqueue_locked(std::move(msg), now + latency());
}

std::size_t SimNetwork::deliver_due(SimTime now, bool everything) {
  NetMetrics& metrics = NetMetrics::get();
  std::size_t delivered = 0;
  while (true) {
    Message msg;
    Handler handler;
    Handler tap;
    {
      std::lock_guard lock(mu_);
      if (queue_.empty()) break;
      if (!everything && now < queue_.top().deliver_at) break;
      msg = std::move(const_cast<Pending&>(queue_.top()).message);
      queue_.pop();
      const auto it = endpoints_.find(msg.to);
      if (it == endpoints_.end()) {
        ++stats_.dead_lettered;
        metrics.dead_lettered.inc();
        MPROS_LOG_WARN("net",
                       "dead-lettered %zu-byte datagram %s -> %s "
                       "(no such endpoint)",
                       msg.payload.size(), msg.from.c_str(), msg.to.c_str());
        continue;
      }
      handler = it->second;  // copy so the handler runs unlocked
      tap = tap_;
      ++stats_.delivered;
    }
    metrics.delivered.inc();
    metrics.transit_latency_us.observe(
        static_cast<double>((msg.delivered_at - msg.sent_at).micros()));
    if (tap) tap(msg);
    handler(msg);
    ++delivered;
  }
  return delivered;
}

std::size_t SimNetwork::advance_to(SimTime now) {
  return deliver_due(now, false);
}

std::size_t SimNetwork::flush() { return deliver_due(SimTime(0), true); }

NetworkStats SimNetwork::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t SimNetwork::in_flight() const {
  std::lock_guard lock(mu_);
  return queue_.size();
}

}  // namespace mpros::net
