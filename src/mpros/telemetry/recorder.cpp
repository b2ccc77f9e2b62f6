#include "mpros/telemetry/recorder.hpp"

#include <cstdio>
#include <cstring>

#include "mpros/common/codec.hpp"
#include "mpros/common/file.hpp"

namespace mpros::telemetry {

namespace {

constexpr char kMagic[3] = {'M', 'F', 'R'};

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::set_header(RecorderHeader header) {
  std::lock_guard lock(mu_);
  header_ = header;
  header_.version = kRecorderVersion;
}

RecorderHeader FlightRecorder::header() const {
  std::lock_guard lock(mu_);
  return header_;
}

void FlightRecorder::push_locked(RecorderFrame frame) {
  if (ring_.size() == capacity_) {
    ring_.pop_front();
    ++evicted_;
  }
  ring_.push_back(std::move(frame));
  ++recorded_;
}

void FlightRecorder::record_message(std::int64_t time_us, std::string from,
                                    std::string to,
                                    std::vector<std::uint8_t> payload) {
  std::lock_guard lock(mu_);
  RecorderFrame frame;
  frame.kind = FrameKind::NetMessage;
  frame.time_us = time_us;
  frame.from = std::move(from);
  frame.to = std::move(to);
  frame.payload = std::move(payload);
  push_locked(std::move(frame));
}

void FlightRecorder::record_event(std::int64_t time_us, std::string component,
                                  const std::string& text) {
  std::lock_guard lock(mu_);
  RecorderFrame frame;
  frame.kind = FrameKind::Event;
  frame.time_us = time_us;
  frame.from = std::move(component);
  frame.payload.assign(text.begin(), text.end());
  push_locked(std::move(frame));
}

std::vector<RecorderFrame> FlightRecorder::frames() const {
  std::lock_guard lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::uint64_t FlightRecorder::recorded() const {
  std::lock_guard lock(mu_);
  return recorded_;
}

std::uint64_t FlightRecorder::evicted() const {
  std::lock_guard lock(mu_);
  return evicted_;
}

void FlightRecorder::clear() {
  std::lock_guard lock(mu_);
  ring_.clear();
  recorded_ = evicted_ = 0;
}

std::vector<std::uint8_t> FlightRecorder::encode() const {
  std::lock_guard lock(mu_);
  Writer w;
  for (const char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u8(kRecorderVersion);
  w.u8(header_.pdme_dedup ? 0x01 : 0x00);
  w.u32(header_.plant_count);
  w.u64(header_.seed);
  w.u32(static_cast<std::uint32_t>(ring_.size()));
  for (const RecorderFrame& frame : ring_) {
    w.u8(static_cast<std::uint8_t>(frame.kind));
    w.i64(frame.time_us);
    w.str(frame.from);
    w.str(frame.to);
    w.bytes(frame.payload);
  }
  return w.take();
}

bool FlightRecorder::dump(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = encode();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool ok = std::fclose(f) == 0 && written == bytes.size();
  return ok;
}

std::optional<FlightRecorder::Decoded> FlightRecorder::decode(
    std::span<const std::uint8_t> bytes) {
  TryReader r(bytes);
  const std::uint8_t magic[3] = {r.u8(), r.u8(), r.u8()};
  const std::uint8_t version = r.u8();
  const std::uint8_t flags = r.u8();
  if (!r.ok() || std::memcmp(magic, kMagic, sizeof magic) != 0 ||
      version != kRecorderVersion) {
    return std::nullopt;
  }

  Decoded out;
  out.header.version = version;
  out.header.pdme_dedup = (flags & 0x01) != 0;
  out.header.plant_count = r.u32();
  out.header.seed = r.u64();
  const std::uint32_t frame_count = r.u32();

  // Each frame needs at least kind + time + three u32 lengths: reject frame
  // counts the remaining bytes cannot possibly hold (memory-bomb guard).
  constexpr std::size_t kMinFrameBytes = 1 + 8 + 4 + 4 + 4;
  if (!r.ok() || frame_count > r.remaining() / kMinFrameBytes) {
    return std::nullopt;
  }

  out.frames.reserve(frame_count);
  for (std::uint32_t i = 0; i < frame_count && r.ok(); ++i) {
    RecorderFrame frame;
    const std::uint8_t kind = r.u8();
    frame.time_us = r.i64();
    r.str(frame.from);
    r.str(frame.to);
    r.bytes(frame.payload);
    if (kind != static_cast<std::uint8_t>(FrameKind::NetMessage) &&
        kind != static_cast<std::uint8_t>(FrameKind::Event)) {
      return std::nullopt;
    }
    frame.kind = static_cast<FrameKind>(kind);
    out.frames.push_back(std::move(frame));
  }
  if (!r.ok() || !r.done()) return std::nullopt;  // truncated / trailing garbage
  return out;
}

std::optional<FlightRecorder::Decoded> FlightRecorder::load(
    const std::string& path) {
  const FileRead file = read_file(path);
  if (!file.ok()) return std::nullopt;
  return decode(file.bytes);
}

}  // namespace mpros::telemetry
