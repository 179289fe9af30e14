// The versioned flat-file table container behind every serving-layer
// artifact — ROADMAP item 1's "zero-copy table format".
//
// A TableImage is a directory of named, 64-byte-aligned slabs:
//
//   +--------------------------------------------------------------+
//   | header   magic "CAVT" | version | kind fourcc | num_slabs    |
//   |          file_bytes   | FNV-1a64 payload checksum            |
//   | directory (fixed 32 entries x 48 B)                          |
//   |          name[24] | dtype | offset | bytes                   |
//   +--------------------------------------------------------------+
//   | slab 0 payload (64-aligned) ................................ |
//   | slab 1 payload (64-aligned) ................................ |
//   +--------------------------------------------------------------+
//
// Both LogicTable and JointLogicTable dump into this one container
// (serving/table_codec.h names their slabs), replacing the two
// near-duplicate ad-hoc binary formats.  Loading is `mmap(PROT_READ,
// MAP_SHARED)` with zero-copy const views: N processes opening the same
// image share one physical copy of the payload through the page cache,
// which is what makes the 329 MB joint Q deployable fleet-wide.
//
// Endianness: fields and payloads are stored in host byte order (the
// fleet is homogeneous little-endian).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serving/table_io.h"

namespace cav::serving {

/// Element type of a slab, so readers can type-check their views.
enum class SlabType : std::uint32_t {
  kBytes = 0,
  kF32 = 1,
  kF64 = 2,
  kU64 = 3,
  kF16 = 4,  ///< IEEE 754 binary16, stored as uint16_t
  kU8 = 5,
};

template <typename T>
constexpr SlabType slab_type_of();
template <>
constexpr SlabType slab_type_of<float>() { return SlabType::kF32; }
template <>
constexpr SlabType slab_type_of<double>() { return SlabType::kF64; }
template <>
constexpr SlabType slab_type_of<std::uint64_t>() { return SlabType::kU64; }
template <>
constexpr SlabType slab_type_of<std::uint16_t>() { return SlabType::kF16; }
template <>
constexpr SlabType slab_type_of<std::uint8_t>() { return SlabType::kU8; }

/// Streaming writer: slabs are written to disk as they are added (the
/// 329 MB joint Q is never double-buffered), the header + directory are
/// patched in by finish().  Throws TableIoError on every failure.
class TableImageWriter {
 public:
  /// `kind` is a fourcc naming the payload convention ("PAIR", "JNT2");
  /// readers dispatch on it.  The file is created eagerly.
  TableImageWriter(std::string path, std::string_view kind);
  ~TableImageWriter();

  TableImageWriter(const TableImageWriter&) = delete;
  TableImageWriter& operator=(const TableImageWriter&) = delete;

  /// Append one slab (name <= 23 chars, unique).  Data is written through
  /// to the file immediately, 64-aligned.
  void add_slab(std::string_view name, SlabType dtype, const void* data, std::size_t bytes);

  template <typename T>
  void add_slab(std::string_view name, std::span<const T> values) {
    add_slab(name, slab_type_of<T>(), values.data(), values.size_bytes());
  }

  /// Patch in the header/directory and close the file.  Must be called
  /// exactly once; a writer destroyed without finish() removes the
  /// half-written file.
  void finish();

 private:
  struct Entry {
    std::string name;
    SlabType dtype;
    std::uint64_t offset;
    std::uint64_t bytes;
  };

  std::string path_;
  std::uint32_t kind_ = 0;
  std::vector<Entry> entries_;
  std::uint64_t checksum_;
  std::uint64_t cursor_ = 0;
  void* file_ = nullptr;  ///< FILE*, opaque to keep <cstdio> out of the header
  bool finished_ = false;
};

/// A read-only, mmap-backed image.  All accessors return views into the
/// mapping — no payload bytes are ever copied.  The object is movable and
/// shareable via shared_ptr; the mapping lives as long as the object.
class TableImage {
 public:
  struct OpenOptions {
    /// Verify the FNV-1a payload checksum on open (one sequential read
    /// pass; it also warms the page cache).  Disable only for
    /// latency-sensitive cold starts that trust the file.
    bool verify_checksum = true;
  };

  /// mmap `path` and validate the header.  Throws TableIoError with
  /// reason "cannot open" / "truncated" / "bad magic" / "bad version" /
  /// "bad directory" / "checksum mismatch".  (Two overloads instead of a
  /// `= {}` default: gcc 12 rejects brace-defaulting a nested aggregate
  /// with member initializers inside its enclosing class.)
  static TableImage open(const std::string& path, const OpenOptions& options);
  static TableImage open(const std::string& path) { return open(path, OpenOptions{}); }

  TableImage(TableImage&& other) noexcept;
  TableImage& operator=(TableImage&& other) noexcept;
  TableImage(const TableImage&) = delete;
  TableImage& operator=(const TableImage&) = delete;
  ~TableImage();

  const std::string& path() const { return path_; }
  std::uint32_t kind() const { return kind_; }
  /// Kind as a printable fourcc string ("PAIR").
  std::string kind_name() const;
  std::size_t file_bytes() const { return map_bytes_; }
  std::size_t num_slabs() const { return entries_.size(); }

  bool has_slab(std::string_view name) const;
  SlabType slab_dtype(std::string_view name) const;
  /// Raw view of a slab's bytes.  Throws TableIoError (reason "missing
  /// slab") when the image has no slab of that name.
  std::span<const std::byte> slab(std::string_view name) const;

  /// Typed zero-copy view; throws on missing slab, element-type mismatch
  /// or size not divisible by sizeof(T).  kBytes slabs match any T whose
  /// size divides the slab (the escape hatch for opaque metadata).
  template <typename T>
  std::span<const T> slab_as(std::string_view name) const {
    const auto* e = find(name);
    if (e == nullptr) throw TableIoError("TableImage::slab_as", "missing slab", path_);
    if (e->dtype != static_cast<std::uint32_t>(SlabType::kBytes) &&
        e->dtype != static_cast<std::uint32_t>(slab_type_of<T>())) {
      throw TableIoError("TableImage::slab_as", "slab type mismatch", path_);
    }
    if (e->bytes % sizeof(T) != 0) {
      throw TableIoError("TableImage::slab_as", "slab size not a multiple of element", path_);
    }
    return {reinterpret_cast<const T*>(base_ + e->offset), e->bytes / sizeof(T)};
  }

 private:
  struct Entry {
    char name[24];
    std::uint32_t dtype;
    std::uint64_t offset;
    std::uint64_t bytes;
  };

  TableImage() = default;
  const Entry* find(std::string_view name) const;

  std::string path_;
  std::uint32_t kind_ = 0;
  const std::byte* base_ = nullptr;  ///< mmap base (page-aligned)
  std::size_t map_bytes_ = 0;
  std::vector<Entry> entries_;
};

/// The container magic ("CAVT" little-endian).
inline constexpr std::uint32_t kTableImageMagic = 0x54564143;

}  // namespace cav::serving
