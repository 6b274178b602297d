// Read-only memory-mapped files: the backing store of the zero-copy
// storage layer.
//
// MmapFile maps a whole file PROT_READ and hands out ByteSpans into
// the mapping; a GRSHARD2 container opened this way costs O(1) page
// faults up front no matter how many shards it holds, and each shard's
// payload stays a borrowed window into the map until the query layer
// faults it in. Instances are shared_ptr-held so every rep borrowing
// from the mapping pins it alive — the lifetime rule of the whole
// layer is "span users hold the MmapFile".
//
// Platforms without a working mmap (or exotic files mmap refuses) fall
// back to a heap buffer read through ordinary IO; the span contract is
// identical, only the O(1)-open property is lost.

#ifndef GREPAIR_UTIL_MMAP_FILE_H_
#define GREPAIR_UTIL_MMAP_FILE_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/util/byte_io.h"
#include "src/util/status.h"

namespace grepair {

/// \brief A read-only file mapping (or its heap-buffer fallback).
/// Immutable and safe to share across threads once opened.
class MmapFile {
 public:
  /// \brief Maps `path` read-only. kNotFound / kInvalidArgument name
  /// the path and the errno string on failure; empty files open
  /// successfully with an empty span.
  static Result<std::shared_ptr<MmapFile>> Open(const std::string& path);

  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  ByteSpan span() const {
    return ByteSpan(static_cast<const uint8_t*>(data_), size_);
  }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// \brief True when the bytes live in a real mapping rather than the
  /// heap fallback (exposed for tests and the CLI's `info` output).
  bool is_mapped() const { return mapped_; }

 private:
  MmapFile() = default;

  std::string path_;
  const void* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;               // true: munmap on destruction
  std::vector<uint8_t> fallback_;     // owns the bytes when !mapped_
};

/// \brief Status-ful whole-file read into an owned buffer (for writers
/// and small inputs where a mapping is overkill). Errors name the path.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

/// \brief Creates and opens for writing the first name `next_name`
/// draws, out of at most 100 draws, that does not exist yet. The create
/// is exclusive (O_CREAT|O_EXCL): a file or symlink already at a drawn
/// name is never opened, followed or truncated. On success `*chosen`
/// names the new file; null with errno set (EEXIST when every draw was
/// taken) when none could be made.
std::FILE* CreateExclusiveFile(const std::function<std::string()>& next_name,
                               std::string* chosen);

/// \brief Atomic whole-file write: the bytes land in a temporary
/// sibling first, created by CreateExclusiveFile under a fresh name
/// (so never through a symlink, nor shared with a concurrent writer),
/// and are rename(2)d over `path` only after a flushed, full-length
/// close, so readers never observe a torn file — they see either the
/// old contents or the new, never a prefix. The temporary is removed
/// on any failure. An existing `path` must be a
/// regular file (lstat(2), so a symlink does not qualify): a FIFO,
/// device node, directory or symlink fails with kInvalidArgument and
/// is left intact. Not durable: nothing is fsync'd. Errors name the
/// path. Every container, sidecar and SSD-tier writer in the tree
/// funnels through here.
Status WriteFileBytesAtomic(const std::string& path, ByteSpan bytes);

/// \brief Status-ful whole-file write; errors name the path. Atomic:
/// delegates to WriteFileBytesAtomic.
Status WriteFileBytes(const std::string& path,
                      const std::vector<uint8_t>& bytes);

}  // namespace grepair

#endif  // GREPAIR_UTIL_MMAP_FILE_H_
