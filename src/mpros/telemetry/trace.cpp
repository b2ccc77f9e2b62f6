#include "mpros/telemetry/trace.hpp"

#include <chrono>

namespace mpros::telemetry {

namespace {

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_capacity(std::size_t n) {
  std::lock_guard lock(mu_);
  if (n == 0) n = 1;
  // Rebuild in logical order under the new capacity.
  std::vector<SpanRecord> kept;
  kept.reserve(std::min(size_, n));
  const std::size_t skip = size_ > n ? size_ - n : 0;
  for (std::size_t i = skip; i < size_; ++i) {
    kept.push_back(std::move(ring_[(start_ + i) % ring_.size()]));
  }
  evicted_ += skip;
  capacity_ = n;
  ring_.assign(capacity_, SpanRecord{});
  for (std::size_t i = 0; i < kept.size(); ++i) ring_[i] = std::move(kept[i]);
  start_ = 0;
  size_ = kept.size();
}

void Tracer::record(SpanRecord span) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  if (ring_.size() != capacity_) ring_.resize(capacity_);
  if (size_ == capacity_) {
    ring_[start_] = std::move(span);
    start_ = (start_ + 1) % capacity_;
    ++evicted_;
  } else {
    ring_[(start_ + size_) % capacity_] = std::move(span);
    ++size_;
  }
  ++recorded_;
}

std::vector<SpanRecord> Tracer::spans_for(TraceId trace) const {
  std::lock_guard lock(mu_);
  std::vector<SpanRecord> out;
  for (std::size_t i = 0; i < size_; ++i) {
    const SpanRecord& span = ring_[(start_ + i) % capacity_];
    if (span.trace == trace) out.push_back(span);
  }
  return out;
}

std::vector<SpanRecord> Tracer::recent() const {
  std::lock_guard lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start_ + i) % capacity_]);
  }
  return out;
}

std::uint64_t Tracer::recorded() const {
  std::lock_guard lock(mu_);
  return recorded_;
}

std::uint64_t Tracer::evicted() const {
  std::lock_guard lock(mu_);
  return evicted_;
}

void Tracer::clear() {
  std::lock_guard lock(mu_);
  start_ = size_ = 0;
  recorded_ = evicted_ = 0;
}

StageTimer::StageTimer(std::string stage, TraceId trace,
                       std::int64_t sim_now_us, Histogram* wall_us)
    : stage_(std::move(stage)),
      trace_(trace),
      sim_start_us_(sim_now_us),
      sim_end_us_(sim_now_us),
      wall_start_ns_(wall_now_ns()),
      wall_us_(wall_us) {}

StageTimer::~StageTimer() {
  const std::int64_t wall_ns = wall_now_ns() - wall_start_ns_;
  if (wall_us_ != nullptr) {
    wall_us_->observe(static_cast<double>(wall_ns) / 1000.0);
  }
  // Untraced work (trace 0) can never be queried back out by id, so only
  // the histogram above sees it — stages run at report rate and the ring's
  // mutex + span copy are not worth paying for spans nobody can find.
  if (trace_ == 0) return;
  SpanRecord span;
  span.trace = trace_;
  span.stage = std::move(stage_);
  span.sim_start_us = sim_start_us_;
  span.sim_end_us = sim_end_us_;
  span.wall_ns = wall_ns;
  Tracer::instance().record(std::move(span));
}

}  // namespace mpros::telemetry
