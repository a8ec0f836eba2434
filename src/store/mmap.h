// Read-only memory-mapped files.
//
// The daemon's query path opens multi-megabyte `.bbs` snapshots
// thousands of times per run; reading them through ifstream would copy
// every section into a heap buffer per open. A read-only mmap instead
// gives a stable byte image the section views can point straight into:
// the kernel pages data in on demand and shares the page cache across
// every open of the same snapshot, so N concurrent queries over one
// snapshot cost one copy of the file in memory, not N.
//
// Only the *read* side maps; all mutating I/O stays on the
// core::FileSystem seam (crash-safety is about how bytes reach disk,
// and the read side is guarded end-to-end by the .bbs checksums — a
// concurrently-truncated mapping surfaces as a checksum/framing error,
// never as silently wrong data; see DESIGN.md §6).
#pragma once

#include <cstddef>
#include <filesystem>
#include <string_view>

namespace bblab::store {

/// An immutable byte view of a whole file. Move-only; unmaps on
/// destruction. Empty files map to an empty view (no mmap call).
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  /// Map `path` read-only. Throws IoError if the file cannot be opened
  /// (missing, permissions) or cannot be mapped (not a regular file — a
  /// pipe or a directory — or a filesystem without mmap).
  [[nodiscard]] static MappedFile open(const std::filesystem::path& path);

  [[nodiscard]] std::string_view view() const {
    return {static_cast<const char*>(addr_), size_};
  }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  void unmap() noexcept;

  void* addr_{nullptr};
  std::size_t size_{0};
};

}  // namespace bblab::store
