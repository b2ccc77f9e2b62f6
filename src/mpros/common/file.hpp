#pragma once
// Whole-file reads for the durability and flight-recorder formats.
//
// Recovery has to tell a file that is not there (a fresh directory) from
// one it cannot read (an I/O error): treating the second like the first
// would truncate or recreate committed data. read_file() therefore never
// folds a failed read into "missing" or "short".

#include <cstdint>
#include <string>
#include <vector>

namespace mpros {

struct FileRead {
  enum class Status {
    Ok,          ///< every byte read; an empty file is Ok with no bytes
    Missing,     ///< no such file
    Unreadable,  ///< it exists (or may) but open or read failed
  };
  Status status = Status::Missing;
  std::vector<std::uint8_t> bytes;  ///< the whole file when Ok, else empty
  int error = 0;                    ///< errno when Unreadable

  [[nodiscard]] bool ok() const { return status == Status::Ok; }
};

[[nodiscard]] FileRead read_file(const std::string& path);

}  // namespace mpros
