#include "store/mmap.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "core/error.h"

namespace bblab::store {

namespace {

struct FdGuard {
  int fd{-1};
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

MappedFile::MappedFile(MappedFile&& other) noexcept
    : addr_{other.addr_}, size_{other.size_} {
  other.addr_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    unmap();
    addr_ = other.addr_;
    size_ = other.size_;
    other.addr_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

MappedFile::~MappedFile() { unmap(); }

void MappedFile::unmap() noexcept {
  if (addr_ != nullptr && size_ > 0) ::munmap(addr_, size_);
  addr_ = nullptr;
  size_ = 0;
}

MappedFile MappedFile::open(const std::filesystem::path& path) {
  // O_NONBLOCK: opening a FIFO with no writer must fail fast below
  // rather than hang; it changes nothing for a regular file.
  FdGuard guard{::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK)};
  if (guard.fd < 0) {
    throw IoError{"mmap open: cannot open " + path.string() + ": " +
                  std::strerror(errno)};
  }
  struct stat st{};
  if (::fstat(guard.fd, &st) != 0) {
    throw IoError{"mmap open: fstat " + path.string() + ": " +
                  std::strerror(errno)};
  }
  if (!S_ISREG(st.st_mode)) {
    throw IoError{"mmap open: " + path.string() +
                  " is not a regular file, so it is not mappable"};
  }
  MappedFile mapped;
  if (st.st_size == 0) return mapped;  // empty view, no mmap call
  void* addr = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                      MAP_PRIVATE, guard.fd, 0);
  if (addr == MAP_FAILED) {
    throw IoError{"mmap open: " + path.string() + " is not mappable: " +
                  std::strerror(errno)};
  }
  mapped.addr_ = addr;
  mapped.size_ = static_cast<std::size_t>(st.st_size);
  return mapped;
}

}  // namespace bblab::store
