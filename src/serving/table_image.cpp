#include "serving/table_image.h"

#include <sys/mman.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

namespace cav::serving {
namespace {

constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kMaxSlabs = 32;
constexpr std::size_t kAlign = 64;
constexpr std::size_t kEntryBytes = 24 + 4 + 4 + 8 + 8;  // name, dtype, pad, offset, bytes
constexpr std::size_t kHeaderBytes = 32;                 // magic..checksum
// Directory capacity is fixed so payload can stream out before the slab
// count is known; first slab starts at the next 64-byte boundary.
constexpr std::size_t kPayloadStart =
    ((kHeaderBytes + kMaxSlabs * kEntryBytes) + kAlign - 1) / kAlign * kAlign;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint32_t fourcc(std::string_view s) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4 && i < s.size(); ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(s[i])) << (8 * i);
  }
  return v;
}

}  // namespace

TableImageWriter::TableImageWriter(std::string path, std::string_view kind)
    : path_(std::move(path)), kind_(fourcc(kind)), checksum_(kFnvOffset) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  if (f == nullptr) throw TableIoError("TableImageWriter", "cannot open", path_);
  file_ = f;
  cursor_ = kPayloadStart;
  if (std::fseek(f, static_cast<long>(kPayloadStart), SEEK_SET) != 0) {
    std::fclose(f);
    file_ = nullptr;
    throw TableIoError("TableImageWriter", "seek failed", path_);
  }
}

TableImageWriter::~TableImageWriter() {
  if (file_ != nullptr) {
    std::fclose(static_cast<std::FILE*>(file_));
    if (!finished_) std::remove(path_.c_str());
  }
}

void TableImageWriter::add_slab(std::string_view name, SlabType dtype, const void* data,
                                std::size_t bytes) {
  if (file_ == nullptr || finished_) {
    throw TableIoError("TableImageWriter::add_slab", "writer already finished", path_);
  }
  if (name.empty() || name.size() > 23) {
    throw TableIoError("TableImageWriter::add_slab", "bad slab name", path_);
  }
  if (entries_.size() >= kMaxSlabs) {
    throw TableIoError("TableImageWriter::add_slab", "too many slabs", path_);
  }
  for (const Entry& e : entries_) {
    if (e.name == name) throw TableIoError("TableImageWriter::add_slab", "duplicate slab", path_);
  }
  auto* f = static_cast<std::FILE*>(file_);

  const std::size_t padded = (cursor_ + kAlign - 1) / kAlign * kAlign;
  if (padded != cursor_) {
    static constexpr char zeros[kAlign] = {};
    if (std::fwrite(zeros, 1, padded - cursor_, f) != padded - cursor_) {
      throw TableIoError("TableImageWriter::add_slab", "write failed", path_);
    }
    cursor_ = padded;
  }
  if (bytes > 0 && std::fwrite(data, 1, bytes, f) != bytes) {
    throw TableIoError("TableImageWriter::add_slab", "write failed", path_);
  }
  checksum_ = fnv1a(checksum_, data, bytes);
  entries_.push_back({std::string(name), dtype, cursor_, bytes});
  cursor_ += bytes;
}

void TableImageWriter::finish() {
  if (file_ == nullptr || finished_) {
    throw TableIoError("TableImageWriter::finish", "writer already finished", path_);
  }
  auto* f = static_cast<std::FILE*>(file_);

  unsigned char header[kPayloadStart] = {};
  const std::uint32_t magic = kTableImageMagic;
  const std::uint32_t version = kVersion;
  const auto num_slabs = static_cast<std::uint32_t>(entries_.size());
  const std::uint64_t file_bytes = cursor_;
  std::memcpy(header + 0, &magic, 4);
  std::memcpy(header + 4, &version, 4);
  std::memcpy(header + 8, &kind_, 4);
  std::memcpy(header + 12, &num_slabs, 4);
  std::memcpy(header + 16, &file_bytes, 8);
  std::memcpy(header + 24, &checksum_, 8);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    unsigned char* e = header + kHeaderBytes + i * kEntryBytes;
    std::memcpy(e, entries_[i].name.c_str(), entries_[i].name.size());
    const auto dtype = static_cast<std::uint32_t>(entries_[i].dtype);
    std::memcpy(e + 24, &dtype, 4);
    std::memcpy(e + 32, &entries_[i].offset, 8);
    std::memcpy(e + 40, &entries_[i].bytes, 8);
  }
  const bool ok = std::fseek(f, 0, SEEK_SET) == 0 &&
                  std::fwrite(header, 1, sizeof header, f) == sizeof header &&
                  std::fflush(f) == 0;
  std::fclose(f);
  file_ = nullptr;
  if (!ok) throw TableIoError("TableImageWriter::finish", "write failed", path_);
  finished_ = true;
}

TableImage TableImage::open(const std::string& path, const OpenOptions& options) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw TableIoError("TableImage::open", "cannot open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw TableIoError("TableImage::open", "cannot stat", path);
  }
  const auto file_bytes = static_cast<std::size_t>(st.st_size);
  if (file_bytes < kPayloadStart) {
    ::close(fd);
    throw TableIoError("TableImage::open", "truncated", path);
  }
  void* base = ::mmap(nullptr, file_bytes, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (base == MAP_FAILED) throw TableIoError("TableImage::open", "mmap failed", path);

  // From here on `image` owns the mapping: any throw unwinds through its
  // destructor, which unmaps.
  TableImage image;
  image.path_ = path;
  image.base_ = static_cast<const std::byte*>(base);
  image.map_bytes_ = file_bytes;

  const auto* h = reinterpret_cast<const unsigned char*>(base);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t num_slabs = 0;
  std::uint64_t declared_bytes = 0;
  std::uint64_t checksum = 0;
  std::memcpy(&magic, h + 0, 4);
  std::memcpy(&version, h + 4, 4);
  std::memcpy(&image.kind_, h + 8, 4);
  std::memcpy(&num_slabs, h + 12, 4);
  std::memcpy(&declared_bytes, h + 16, 8);
  std::memcpy(&checksum, h + 24, 8);
  if (magic != kTableImageMagic) throw TableIoError("TableImage::open", "bad magic", path);
  if (version != kVersion) throw TableIoError("TableImage::open", "bad version", path);
  if (num_slabs > kMaxSlabs) throw TableIoError("TableImage::open", "bad directory", path);
  if (declared_bytes > file_bytes) throw TableIoError("TableImage::open", "truncated", path);

  image.entries_.resize(num_slabs);
  std::uint64_t running = kFnvOffset;
  for (std::size_t i = 0; i < num_slabs; ++i) {
    Entry& e = image.entries_[i];
    const unsigned char* src = h + kHeaderBytes + i * kEntryBytes;
    std::memcpy(e.name, src, 24);
    e.name[23] = '\0';
    std::memcpy(&e.dtype, src + 24, 4);
    std::memcpy(&e.offset, src + 32, 8);
    std::memcpy(&e.bytes, src + 40, 8);
    if (e.offset % kAlign != 0 || e.offset < kPayloadStart ||
        e.offset + e.bytes > declared_bytes) {
      throw TableIoError("TableImage::open", "bad directory", path);
    }
    if (options.verify_checksum) {
      running = fnv1a(running, image.base_ + e.offset, e.bytes);
    }
  }
  if (options.verify_checksum && running != checksum) {
    throw TableIoError("TableImage::open", "checksum mismatch", path);
  }
  return image;
}

TableImage::TableImage(TableImage&& other) noexcept
    : path_(std::move(other.path_)),
      kind_(other.kind_),
      base_(other.base_),
      map_bytes_(other.map_bytes_),
      entries_(std::move(other.entries_)) {
  other.base_ = nullptr;
  other.map_bytes_ = 0;
}

TableImage& TableImage::operator=(TableImage&& other) noexcept {
  if (this != &other) {
    if (base_ != nullptr) ::munmap(const_cast<std::byte*>(base_), map_bytes_);
    path_ = std::move(other.path_);
    kind_ = other.kind_;
    base_ = other.base_;
    map_bytes_ = other.map_bytes_;
    entries_ = std::move(other.entries_);
    other.base_ = nullptr;
    other.map_bytes_ = 0;
  }
  return *this;
}

TableImage::~TableImage() {
  if (base_ != nullptr) ::munmap(const_cast<std::byte*>(base_), map_bytes_);
}

std::string TableImage::kind_name() const {
  std::string s(4, '\0');
  for (std::size_t i = 0; i < 4; ++i) {
    s[i] = static_cast<char>((kind_ >> (8 * i)) & 0xFF);
  }
  while (!s.empty() && s.back() == '\0') s.pop_back();
  return s;
}

const TableImage::Entry* TableImage::find(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

bool TableImage::has_slab(std::string_view name) const { return find(name) != nullptr; }

SlabType TableImage::slab_dtype(std::string_view name) const {
  const Entry* e = find(name);
  if (e == nullptr) throw TableIoError("TableImage::slab_dtype", "missing slab", path_);
  return static_cast<SlabType>(e->dtype);
}

std::span<const std::byte> TableImage::slab(std::string_view name) const {
  const Entry* e = find(name);
  if (e == nullptr) throw TableIoError("TableImage::slab", "missing slab", path_);
  return {base_ + e->offset, e->bytes};
}

}  // namespace cav::serving
