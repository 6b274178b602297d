#include "src/util/mmap_file.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <system_error>

#if defined(_WIN32)
#define GREPAIR_HAVE_MMAP 0
#else
#define GREPAIR_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "src/util/hashing.h"

namespace grepair {

namespace {

std::string ErrnoText() {
  return std::string(std::strerror(errno));
}

}  // namespace

MmapFile::~MmapFile() {
#if GREPAIR_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    munmap(const_cast<void*>(data_), size_);
  }
#endif
}

Result<std::shared_ptr<MmapFile>> MmapFile::Open(const std::string& path) {
#if GREPAIR_HAVE_MMAP
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open " + path + ": " + ErrnoText());
  }
  struct stat st;
  if (fstat(fd, &st) != 0) {
    Status status =
        Status::NotFound("cannot stat " + path + ": " + ErrnoText());
    ::close(fd);
    return status;
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::InvalidArgument(path + " is not a regular file");
  }
  auto file = std::shared_ptr<MmapFile>(new MmapFile());
  file->path_ = path;
  file->size_ = static_cast<size_t>(st.st_size);
  if (file->size_ == 0) {
    ::close(fd);
    return file;  // empty file: empty span, nothing to map
  }
  void* map = mmap(nullptr, file->size_, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map != MAP_FAILED) {
    ::close(fd);  // the mapping outlives the descriptor
    file->data_ = map;
    file->mapped_ = true;
    return file;
  }
  // mmap refused (unusual filesystem, resource limits): fall back to a
  // heap read so callers keep the same span contract.
  file->fallback_.resize(file->size_);
  size_t off = 0;
  while (off < file->size_) {
    ssize_t n = pread(fd, file->fallback_.data() + off, file->size_ - off,
                      static_cast<off_t>(off));
    if (n <= 0) {
      Status status = Status::Corruption(
          "short read of " + path + " at offset " + std::to_string(off) +
          ": " + (n < 0 ? ErrnoText() : "unexpected EOF"));
      ::close(fd);
      return status;
    }
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  file->data_ = file->fallback_.data();
  return file;
#else
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  auto file = std::shared_ptr<MmapFile>(new MmapFile());
  file->path_ = path;
  file->fallback_ = std::move(bytes).ValueOrDie();
  file->size_ = file->fallback_.size();
  file->data_ = file->fallback_.data();
  return file;
#endif
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path + ": " + ErrnoText());
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) {
    return Status::Corruption("read error in " + path + " at offset " +
                              std::to_string(bytes.size()));
  }
  return bytes;
}

std::FILE* CreateExclusiveFile(const std::function<std::string()>& next_name,
                               std::string* chosen) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    *chosen = next_name();
    std::FILE* f = std::fopen(chosen->c_str(), "wbx");
    if (f != nullptr || errno != EEXIST) return f;
  }
  return nullptr;
}

Status WriteFileBytesAtomic(const std::string& path, ByteSpan bytes) {
  // Replace regular files only: the rename would swap a FIFO, device
  // node or symlink itself for a plain file.
  std::error_code ec;
  std::filesystem::file_status target =
      std::filesystem::symlink_status(path, ec);
  if (std::filesystem::exists(target) &&
      !std::filesystem::is_regular_file(target)) {
    return Status::InvalidArgument("cannot write " + path +
                                   ": not a regular file");
  }
  // mkstemp-style temporary names: a per-process random salt mixed with
  // a counter, so writers in this process or another never share one;
  // rename serializes who wins.
  static const uint64_t salt = [] {
    std::random_device seed;
    return (uint64_t{seed()} << 32) ^ seed();
  }();
  static std::atomic<uint64_t> counter{0};
  std::string tmp;
  std::FILE* f = CreateExclusiveFile(
      [&] { return path + ".tmp" + std::to_string(Mix64(salt + counter++)); },
      &tmp);
  if (f == nullptr) {
    return Status::InvalidArgument("cannot write " + tmp + ": " +
                                   ErrnoText());
  }
  // bytes.data may be null for an empty span; fwrite's nonnull
  // contract makes that UB even with size 0.
  size_t written =
      bytes.size == 0 ? 0 : std::fwrite(bytes.data, 1, bytes.size, f);
  bool bad = written != bytes.size;
  bad = std::fflush(f) != 0 || bad;
  bad = std::fclose(f) != 0 || bad;
  if (bad) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to " + tmp + " (" +
                            std::to_string(written) + " of " +
                            std::to_string(bytes.size) + " bytes)");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Status status = Status::Internal("cannot rename " + tmp + " to " +
                                     path + ": " + ErrnoText());
    std::remove(tmp.c_str());
    return status;
  }
  return Status::OK();
}

Status WriteFileBytes(const std::string& path,
                      const std::vector<uint8_t>& bytes) {
  return WriteFileBytesAtomic(path, SpanOf(bytes));
}

}  // namespace grepair
