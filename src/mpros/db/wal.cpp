#include "mpros/db/wal.hpp"

#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "mpros/common/assert.hpp"
#include "mpros/common/file.hpp"
#include "mpros/common/log.hpp"
#include "mpros/telemetry/metrics.hpp"

namespace mpros::db {

namespace walfmt {

void put_value(Writer& w, const Value& v) {
  w.u8(static_cast<std::uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::Null: break;
    case ValueType::Integer: w.i64(v.as_integer()); break;
    case ValueType::Real: w.f64(v.as_real()); break;
    case ValueType::Text: w.str(v.as_text()); break;
  }
}

void put_row(Writer& w, const Row& row) {
  w.u32(static_cast<std::uint32_t>(row.size()));
  for (const Value& v : row) put_value(w, v);
}

void put_schema(Writer& w, const TableSchema& schema) {
  w.str(schema.name);
  w.u32(static_cast<std::uint32_t>(schema.columns.size()));
  for (const ColumnDef& col : schema.columns) {
    w.str(col.name);
    w.u8(static_cast<std::uint8_t>(col.type));
    w.u8(col.nullable ? 1 : 0);
  }
}

void put_op(Writer& w, const RedoOp& op) {
  w.u8(static_cast<std::uint8_t>(op.kind));
  w.str(op.table);
  switch (op.kind) {
    case RedoOp::Kind::CreateTable:
      put_schema(w, op.schema);
      break;
    case RedoOp::Kind::DropTable:
      break;
    case RedoOp::Kind::CreateIndex:
      w.str(op.column);
      break;
    case RedoOp::Kind::Insert:
      w.i64(op.key);
      put_row(w, op.row);
      break;
    case RedoOp::Kind::Update:
      w.i64(op.key);
      w.str(op.column);
      put_value(w, op.value);
      break;
    case RedoOp::Kind::Erase:
      w.i64(op.key);
      break;
  }
}

bool read_value(TryReader& in, Value& v) {
  switch (static_cast<ValueType>(in.u8())) {
    case ValueType::Null: v = Value(); break;
    case ValueType::Integer: v = Value(in.i64()); break;
    case ValueType::Real: v = Value(in.f64()); break;
    case ValueType::Text: v = Value(in.str()); break;
    default: in.fail(); break;  // unknown tag
  }
  return in.ok();
}

bool read_row(TryReader& in, Row& row) {
  const std::uint32_t count = in.u32();
  // Memory-bomb guard: a value is at least one tag byte.
  if (count > in.remaining()) in.fail();
  row.clear();
  if (!in.ok()) return false;
  row.reserve(count);
  for (std::uint32_t i = 0; i < count && in.ok(); ++i) {
    read_value(in, row.emplace_back());
  }
  return in.ok();
}

bool read_schema(TryReader& in, TableSchema& schema) {
  in.str(schema.name);
  const std::uint32_t count = in.u32();
  // A column is at least name-len(4) + type(1) + nullable(1) bytes.
  if (count > in.remaining() / 6) in.fail();
  schema.columns.clear();
  if (!in.ok()) return false;
  schema.columns.reserve(count);
  for (std::uint32_t i = 0; i < count && in.ok(); ++i) {
    ColumnDef& col = schema.columns.emplace_back();
    in.str(col.name);
    const std::uint8_t type = in.u8();
    const std::uint8_t nullable = in.u8();
    if (type > static_cast<std::uint8_t>(ValueType::Text) || nullable > 1) {
      in.fail();
    }
    col.type = static_cast<ValueType>(type);
    col.nullable = nullable == 1;
  }
  return in.ok();
}

bool read_op(TryReader& in, RedoOp& op) {
  const std::uint8_t kind = in.u8();
  if (kind < static_cast<std::uint8_t>(RedoOp::Kind::CreateTable) ||
      kind > static_cast<std::uint8_t>(RedoOp::Kind::Erase)) {
    in.fail();
    return false;
  }
  op = RedoOp{};
  op.kind = static_cast<RedoOp::Kind>(kind);
  in.str(op.table);
  switch (op.kind) {
    case RedoOp::Kind::CreateTable:
      read_schema(in, op.schema);
      break;
    case RedoOp::Kind::DropTable:
      break;
    case RedoOp::Kind::CreateIndex:
      in.str(op.column);
      break;
    case RedoOp::Kind::Insert:
      op.key = in.i64();
      read_row(in, op.row);
      break;
    case RedoOp::Kind::Update:
      op.key = in.i64();
      in.str(op.column);
      read_value(in, op.value);
      break;
    case RedoOp::Kind::Erase:
      op.key = in.i64();
      break;
  }
  return in.ok();
}

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace walfmt

namespace {

constexpr char kWalMagic[4] = {'M', 'W', 'A', 'L'};
constexpr std::size_t kHeaderBytes = sizeof(kWalMagic) + 1;  // magic + version
constexpr std::size_t kFrameOverhead = 8;                    // len + crc

bool header_intact(std::span<const std::uint8_t> bytes) {
  return bytes.size() >= kHeaderBytes &&
         std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) == 0 &&
         bytes[sizeof(kWalMagic)] == kWalVersion;
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string path, std::uint64_t next_seq)
    : path_(std::move(path)), next_seq_(next_seq) {
  MPROS_EXPECTS(next_seq_ >= 1);
  const FileRead existing = read_file(path_);
  if (existing.status == FileRead::Status::Unreadable) {
    // Recreating it would destroy whatever committed frames it holds.
    MPROS_LOG_ERROR("db", "wal: cannot read %s: %s", path_.c_str(),
                    std::strerror(existing.error));
    return;
  }
  const bool fresh = !header_intact(existing.bytes);
  file_ = std::fopen(path_.c_str(), fresh ? "wb" : "ab");
  if (file_ == nullptr) {
    MPROS_LOG_ERROR("db", "wal: cannot open %s: %s", path_.c_str(),
                    std::strerror(errno));
    return;
  }
  if (fresh) {
    if (!write_header()) return;
  } else {
    synced_bytes_ = existing.bytes.size();
  }
}

WriteAheadLog::~WriteAheadLog() {
  // Deliberately no flush: anything not group-committed through sync() is
  // not durable, which is exactly the crash semantics recovery expects.
  if (file_ != nullptr) std::fclose(file_);
}

bool WriteAheadLog::write_header() {
  std::uint8_t header[kHeaderBytes];
  std::memcpy(header, kWalMagic, sizeof(kWalMagic));
  header[sizeof(kWalMagic)] = kWalVersion;
  if (std::fwrite(header, 1, kHeaderBytes, file_) != kHeaderBytes ||
      std::fflush(file_) != 0 || ::fsync(fileno(file_)) != 0) {
    MPROS_LOG_ERROR("db", "wal: cannot write header to %s", path_.c_str());
    std::fclose(file_);
    file_ = nullptr;
    return false;
  }
  synced_bytes_ = kHeaderBytes;
  return true;
}

void WriteAheadLog::append(const RedoOp& op) {
  static telemetry::Counter& records =
      telemetry::Registry::instance().counter("wal.records");
  walfmt::put_op(pending_, op);
  ++pending_ops_;
  ++stats_.records;
  records.inc();
}

std::uint64_t WriteAheadLog::seal() {
  if (pending_ops_ == 0) return 0;
  const std::uint64_t seq = next_seq_++;
  Writer payload;
  payload.reserve(12 + pending_.size());
  payload.u64(seq);
  payload.u32(static_cast<std::uint32_t>(pending_ops_));
  payload.raw(pending_.bytes());
  sealed_.u32(static_cast<std::uint32_t>(payload.size()));
  sealed_.u32(walfmt::crc32(payload.bytes()));
  sealed_.raw(payload.bytes());
  pending_.clear();
  pending_ops_ = 0;
  ++stats_.commits;
  return seq;
}

bool WriteAheadLog::sync() {
  if (sealed_.size() == 0) return true;
  if (file_ == nullptr) return false;
  const std::vector<std::uint8_t>& frames = sealed_.bytes();
  if (std::fwrite(frames.data(), 1, frames.size(), file_) != frames.size() ||
      std::fflush(file_) != 0 || ::fsync(fileno(file_)) != 0) {
    MPROS_LOG_ERROR("db", "wal: write to %s failed: %s", path_.c_str(),
                    std::strerror(errno));
    return false;
  }
  synced_bytes_ += frames.size();
  sealed_.clear();
  ++stats_.fsyncs;
  return true;
}

bool WriteAheadLog::reset(std::uint64_t next_seq) {
  MPROS_EXPECTS(next_seq >= 1);
  pending_.clear();
  pending_ops_ = 0;
  sealed_.clear();
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "wb");
  next_seq_ = next_seq;
  synced_bytes_ = 0;
  if (file_ == nullptr) {
    MPROS_LOG_ERROR("db", "wal: cannot reopen %s: %s", path_.c_str(),
                    std::strerror(errno));
    return false;
  }
  return write_header();
}

WalReplayResult WriteAheadLog::replay(
    std::span<const std::uint8_t> bytes, std::uint64_t after_seq,
    const std::function<bool(std::uint64_t, RedoOp&&)>& apply) {
  WalReplayResult result;
  if (!header_intact(bytes)) {
    // Empty, torn before the header finished, or not a WAL at all: an
    // empty log.
    result.truncated_bytes = bytes.size();
    return result;
  }
  result.valid_bytes = kHeaderBytes;

  std::size_t pos = kHeaderBytes;
  while (pos < bytes.size()) {
    TryReader frame(bytes.subspan(pos));
    const std::uint32_t len = frame.u32();
    const std::uint32_t crc = frame.u32();
    if (!frame.ok() || frame.remaining() < len) break;
    const std::span<const std::uint8_t> payload =
        bytes.subspan(pos + kFrameOverhead, len);
    if (walfmt::crc32(payload) != crc) break;

    TryReader body(payload);
    const std::uint64_t seq = body.u64();
    const std::uint32_t op_count = body.u32();
    if (!body.ok() || op_count > body.remaining()) break;  // an op is >= 1 byte

    // Decode the WHOLE frame before applying any of it, so a frame that
    // turns out malformed halfway through never leaves partial effects.
    std::vector<RedoOp> ops;
    ops.reserve(op_count);
    for (std::uint32_t i = 0; i < op_count && body.ok(); ++i) {
      walfmt::read_op(body, ops.emplace_back());
    }
    if (!body.ok() || !body.done()) break;

    // A CRC-valid but semantically inadmissible op poisons the tail the
    // same way torn bytes do — but by then earlier ops of the frame have
    // been applied, so tell the caller (partial_frame) to redo recovery
    // capped at last_seq.
    const bool replay_frame = seq > after_seq;
    if (replay_frame) {
      bool frame_ok = true;
      std::uint64_t applied = 0;
      for (RedoOp& op : ops) {
        if (!apply(seq, std::move(op))) {
          frame_ok = false;
          break;
        }
        ++applied;
      }
      if (!frame_ok) {
        result.partial_frame = applied > 0;
        break;
      }
    }

    pos += kFrameOverhead + len;
    result.valid_bytes = pos;
    result.last_seq = seq;
    if (replay_frame) {
      ++result.commits;
      result.records += op_count;
    }
  }
  result.truncated_bytes = bytes.size() - result.valid_bytes;
  return result;
}

WalReplayResult WriteAheadLog::replay(
    const std::string& path, std::uint64_t after_seq,
    const std::function<bool(std::uint64_t, RedoOp&&)>& apply) {
  const FileRead file = read_file(path);
  if (file.status == FileRead::Status::Unreadable) {
    WalReplayResult result;
    result.unreadable = true;
    return result;
  }
  return replay(file.bytes, after_seq, apply);
}

bool WriteAheadLog::truncate_torn_tail(const std::string& path,
                                       const WalReplayResult& result) {
  if (result.unreadable) return false;
  std::error_code ec;
  if (result.valid_bytes < kHeaderBytes) {
    // Missing or header-torn: lay down a fresh empty log.
    WriteAheadLog fresh(path);
    return fresh.ok();
  }
  if (result.truncated_bytes == 0) return true;
  std::filesystem::resize_file(path, result.valid_bytes, ec);
  if (ec) {
    MPROS_LOG_ERROR("db", "wal: truncate %s to %llu bytes failed: %s",
                    path.c_str(),
                    static_cast<unsigned long long>(result.valid_bytes),
                    ec.message().c_str());
    return false;
  }
  return true;
}

}  // namespace mpros::db
