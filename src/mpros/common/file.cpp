#include "mpros/common/file.hpp"

#include <cerrno>
#include <cstdio>

namespace mpros {

FileRead read_file(const std::string& path) {
  FileRead out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    out.error = errno;
    out.status = out.error == ENOENT ? FileRead::Status::Missing
                                     : FileRead::Status::Unreadable;
    return out;
  }
  constexpr std::size_t kChunk = 1 << 16;
  std::size_t n = 0;
  do {
    const std::size_t used = out.bytes.size();
    out.bytes.resize(used + kChunk);
    n = std::fread(out.bytes.data() + used, 1, kChunk, f);
    out.bytes.resize(used + n);
  } while (n == kChunk);
  // A short read is the end of the file only when no error caused it.
  if (std::ferror(f) != 0) {
    out.error = errno;
    out.status = FileRead::Status::Unreadable;
    out.bytes.clear();
  } else {
    out.status = FileRead::Status::Ok;
  }
  std::fclose(f);
  return out;
}

}  // namespace mpros
