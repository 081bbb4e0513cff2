// Minimal file I/O helpers (whole-file read/write, sizes, temp dirs).

#ifndef DSLOG_COMMON_IO_H_
#define DSLOG_COMMON_IO_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace dslog {

/// Writes `data` to `path`, truncating any existing file.
Status WriteFile(const std::string& path, const std::string& data);

/// Writes `data` to a temp file next to `path` and rename()s it into place,
/// so a crash mid-write never leaves a torn file at `path`: readers see
/// either the old content or the new content, never a prefix.
Status WriteFileAtomic(const std::string& path, const std::string& data);

/// Reads the entire file at `path`.
Result<std::string> ReadFileToString(const std::string& path);

/// Size in bytes of the file at `path`.
Result<int64_t> FileSize(const std::string& path);

/// Creates directory `path` (and parents). OK if it already exists.
Status CreateDirs(const std::string& path);

/// Removes a file if it exists; OK when absent.
Status RemoveFileIfExists(const std::string& path);

/// A process-unique scratch directory under the system temp dir; created on
/// first use.
std::string ScratchDir();

}  // namespace dslog

#endif  // DSLOG_COMMON_IO_H_
