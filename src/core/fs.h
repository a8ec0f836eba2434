// Filesystem indirection for crash-safe storage.
//
// Every *mutating* filesystem operation the storage layer performs
// (snapshot publish, cache segment publish) goes through a
// FileSystem so that the fault-injection harness (src/faults/fs_faults.h)
// can deterministically interpose ENOSPC, EIO, short/torn writes, and
// crash-before-rename at chosen operation indices — the storage-layer
// analogue of PR 2's measurement-layer FaultPlan. Read-only operations
// (directory scans, streaming snapshot reads) stay on std::filesystem /
// ifstream: crash-safety is a property of how bytes reach disk, and the
// read side is already guarded end-to-end by the .bbs checksums.
//
// The real implementation uses POSIX fds and classifies errno into the
// transient/permanent taxonomy of core/error.h: EINTR/EAGAIN/EIO-class
// failures throw TransientIoError (retryable, see core/retry.h), while
// ENOSPC/EROFS/EACCES-class failures throw plain IoError (permanent).
// write_file fsyncs before closing, so a completed write_file followed by
// rename() is a durable atomic publish on POSIX filesystems.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>

namespace bblab::core {

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// True if `path` exists (any file type). Never throws.
  [[nodiscard]] virtual bool exists(const std::filesystem::path& path) = 0;

  /// mkdir -p. Idempotent; throws IoError/TransientIoError on failure.
  virtual void create_directories(const std::filesystem::path& path) = 0;

  /// Create-or-truncate `path` and write all of `data`, fsync, close.
  /// Throws TransientIoError (retryable) or IoError (permanent); on
  /// failure the file may hold any prefix of `data` — callers publish
  /// through a temp file + rename so readers never see that state.
  virtual void write_file(const std::filesystem::path& path,
                          std::string_view data) = 0;

  /// Read the whole file into a string. Throws IoError if missing,
  /// TransientIoError/IoError per errno class otherwise.
  [[nodiscard]] virtual std::string read_file(const std::filesystem::path& path) = 0;

  /// Atomic rename (same filesystem). The publish step of every
  /// write-temp-then-rename protocol.
  virtual void rename(const std::filesystem::path& from,
                      const std::filesystem::path& to) = 0;

  /// Remove a file; false if it did not exist. Throws on real failures.
  virtual bool remove(const std::filesystem::path& path) = 0;

  /// The real POSIX-backed filesystem (a process-wide singleton).
  [[nodiscard]] static FileSystem& system();

  /// The process-wide default used by storage code that is not handed an
  /// explicit FileSystem: system() unless overridden by set_instance().
  [[nodiscard]] static FileSystem& instance();

  /// Override the process-wide default (the CLI installs the fault
  /// harness here); nullptr restores system(). Not synchronized with
  /// in-flight operations — install before spawning storage work.
  static void set_instance(FileSystem* fs);
};

}  // namespace bblab::core
