#include "svc/file_io.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "svc/journal.hpp"

namespace musketeer::svc::file_io {

namespace {

std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

std::string base_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

void io_fail(const char* subject, const std::string& path, const char* op,
             const char* what) {
  const int saved = errno;
  throw JournalError(std::string(subject) + " " + path + ": " + what + ": " +
                         std::strerror(saved),
                     op, saved);
}

void write_all(const char* subject, int fd, const std::string& path,
               const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t wrote = ::write(fd, data, n);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      io_fail(subject, path, "write", "write failed");
    }
    data += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
}

std::string read_file(const char* subject, const std::string& path) {
  std::string buf;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) io_fail(subject, path, "open", "open failed");
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      io_fail(subject, path, "read", "read failed");
    }
    if (got == 0) break;
    buf.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return buf;
}

void fsync_parent_dir(const std::string& path) {
  const int fd =
      ::open(dir_of(path).c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

std::vector<std::uint64_t> list_numbered(const std::string& base_path,
                                         const std::string& infix,
                                         const std::string& suffix) {
  constexpr std::size_t kDigits = 6;
  std::vector<std::uint64_t> seqs;
  const std::string prefix = base_of(base_path) + infix;
  DIR* d = ::opendir(dir_of(base_path).c_str());
  if (d == nullptr) return seqs;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() != prefix.size() + kDigits + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    bool digits = true;
    std::uint64_t seq = 0;
    for (std::size_t i = prefix.size(); i < prefix.size() + kDigits; ++i) {
      if (name[i] < '0' || name[i] > '9') {
        digits = false;
        break;
      }
      seq = seq * 10 + static_cast<std::uint64_t>(name[i] - '0');
    }
    if (digits) seqs.push_back(seq);
  }
  ::closedir(d);
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

}  // namespace musketeer::svc::file_io
