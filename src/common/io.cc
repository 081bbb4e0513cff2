#include "common/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace dslog {

namespace fs = std::filesystem;

Status WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, const std::string& data) {
  // pid + process-wide counter: concurrent writers of the same path (e.g.
  // two threads saving one LogStore file) get distinct temp files, so
  // their writes cannot interleave into the published file.
  static std::atomic<uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  // write + fsync the temp file, so the data is on disk before the rename
  // can make it visible (otherwise a power loss shortly after the rename
  // could expose an empty or partial destination file).
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError("cannot open for write: " + tmp);
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      ::close(fd);
      return Status::IOError("write failed: " + tmp);
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::IOError("fsync failed: " + tmp);
  }
  ::close(fd);
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return Status::IOError("rename failed: " + tmp + " -> " + path);
  }
  // fsync the containing directory so the rename itself is durable.
  const fs::path parent = fs::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
  int dirfd = ::open(dir.c_str(), O_RDONLY);
  if (dirfd >= 0) {
    ::fsync(dirfd);
    ::close(dirfd);
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("read failed: " + path);
  return data;
}

Result<int64_t> FileSize(const std::string& path) {
  std::error_code ec;
  auto sz = fs::file_size(path, ec);
  if (ec) return Status::IOError("file_size failed: " + path);
  return static_cast<int64_t>(sz);
}

Status CreateDirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) return Status::IOError("create_directories failed: " + path);
  return Status::OK();
}

Status RemoveFileIfExists(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) return Status::IOError("remove failed: " + path);
  return Status::OK();
}

std::string ScratchDir() {
  static const std::string dir = [] {
    std::string d = (fs::temp_directory_path() /
                     ("dslog_scratch_" + std::to_string(::getpid())))
                        .string();
    std::error_code ec;
    fs::create_directories(d, ec);
    return d;
  }();
  return dir;
}

}  // namespace dslog
