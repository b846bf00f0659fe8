// File helpers shared by the journal (svc/journal.hpp) and the snapshot
// store (svc/snapshot.hpp): the FNV-1a checksum both formats end in,
// unaligned little-endian loads, and the POSIX plumbing both need.
// Internal to musketeer_svc.
//
// Every failure throws JournalError whose message starts with `subject`
// ("journal" or "snapshot") and carries the failing call and its errno.
// Nothing here renames or unlinks: publication and removal stay in
// journal.cpp and snapshot.cpp, beside their fault points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace musketeer::svc::file_io {

/// 64-bit FNV-1a of `n` bytes.
inline std::uint64_t fnv1a(const char* data, std::size_t n) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

inline std::uint32_t load_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline std::uint64_t load_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Throws JournalError("<subject> <path>: <what>: <strerror(errno)>")
/// carrying `op` and errno.
[[noreturn]] void io_fail(const char* subject, const std::string& path,
                          const char* op, const char* what);

/// write() all `n` bytes, retrying on EINTR.
void write_all(const char* subject, int fd, const std::string& path,
               const char* data, std::size_t n);

/// Whole contents of `path`. A failed open or read throws (op "open" or
/// "read").
std::string read_file(const char* subject, const std::string& path);

/// Durability of creates/renames/unlinks needs the directory entry itself
/// on disk. Best-effort: a directory that cannot be opened (exotic FS)
/// degrades to POSIX-default behaviour, it does not fail the operation.
void fsync_parent_dir(const std::string& path);

/// Sequence numbers of the files `<base_path><infix><6 digits><suffix>`
/// beside `base_path`, ascending. Any other name (a tmp file, a name
/// with a non-digit) is ignored. Read-only.
std::vector<std::uint64_t> list_numbered(const std::string& base_path,
                                         const std::string& infix,
                                         const std::string& suffix);

}  // namespace musketeer::svc::file_io
