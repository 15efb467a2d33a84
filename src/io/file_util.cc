#include "io/file_util.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/fault_injection.h"

namespace dehealth {

StatusOr<std::string> ReadFileToString(const std::string& path) {
  DEHEALTH_RETURN_IF_ERROR(InjectFaultPoint("file.read"));
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open for reading: " + path);
  // One read into a string sized from the file, not a stream copy into a
  // growing buffer and a second copy out of it.
  std::string content;
  std::error_code size_error;
  const uintmax_t size = std::filesystem::file_size(path, size_error);
  if (!size_error) content.resize(static_cast<size_t>(size));
  file.read(content.data(), static_cast<std::streamsize>(content.size()));
  content.resize(static_cast<size_t>(file.gcount()));
  if (file) {
    // Whatever the size did not cover: a file that grew since, or one that
    // has no size (a pipe, a directory) — streamed as before.
    std::ostringstream rest;
    rest << file.rdbuf();
    content += rest.str();
  }
  if (file.bad()) return Status::Internal("read error: " + path);
  // Simulated media corruption / torn read: downstream decoders must catch
  // this via checksums or parse validation, never crash.
  InjectDataFault("file.read.data", &content);
  return content;
}

Status WriteStringToFile(const std::string& content, const std::string& path) {
  DEHEALTH_RETURN_IF_ERROR(InjectFaultPoint("file.write"));
  std::ofstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open for writing: " + path);
  file.write(content.data(), static_cast<long>(content.size()));
  if (!file) return Status::Internal("short write: " + path);
  return Status::OK();
}

Status WriteStringToFileAtomic(const std::string& content,
                               const std::string& path) {
  // The injected failure modes mirror the real ones this function defends
  // against: kFail/kEnospc/kShort fail after a partial tmp write (the tmp
  // is cleaned up, `path` untouched); kCrash dies mid-write, leaving a
  // stale tmp the next attempt must overwrite and `path` still intact.
  FaultKind injected_kind;
  const bool injected =
      FaultInjector::Global().Hit("file.write_atomic", &injected_kind);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    return Status::NotFound("cannot open for writing: " + tmp + " (" +
                            std::strerror(errno) + ")");
  Status status;
  size_t limit = content.size();
  if (injected) {
    limit = content.size() / 2;  // partial write, then the fault hits
    status = Status::Internal("injected fault at file.write_atomic: " +
                              std::string(injected_kind == FaultKind::kEnospc
                                              ? "No space left on device"
                                              : "short write") +
                              ": " + tmp);
  }
  size_t done = 0;
  while (done < limit) {
    const ssize_t n = ::write(fd, content.data() + done, limit - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      status = Status::Internal("short write: " + tmp + " (" +
                                std::strerror(errno) + ")");
      break;
    }
    done += static_cast<size_t>(n);
  }
  if (injected && injected_kind == FaultKind::kCrash) {
    // A kill here leaves a partial tmp and an untouched `path` — exactly
    // the window the tmp+fsync+rename dance exists to survive.
    ::_exit(kFaultCrashExitCode);
  }
  // fsync before rename: otherwise the rename can become durable before
  // the data, re-opening the truncation window the tmp+rename dance exists
  // to close.
  if (status.ok() && ::fsync(fd) != 0)
    status = Status::Internal("fsync: " + tmp + " (" + std::strerror(errno) +
                              ")");
  if (::close(fd) != 0 && status.ok())
    status = Status::Internal("close: " + tmp + " (" + std::strerror(errno) +
                              ")");
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0)
    status = Status::Internal("rename " + tmp + " -> " + path + " (" +
                              std::strerror(errno) + ")");
  if (!status.ok()) std::remove(tmp.c_str());
  return status;
}

}  // namespace dehealth
