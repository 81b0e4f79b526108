#pragma once

// Versioned, endian-stable, integrity-checked binary serialization.
//
// This is the ONE place in the tree where bytes are reinterpreted as
// structured data (the raw-deserialization lint rule enforces that: no
// memcpy-into-struct or reinterpret_cast decoding anywhere else). Everything
// above — the CompiledDtd artifact format, the on-disk cache — is built from
// the bounds-checked primitives here, so a truncated, bit-flipped, or
// hostile input can produce only Status::InvalidArgument, never undefined
// behaviour.
//
// Container layout (all scalars little-endian, written byte-wise):
//
//   [ header: magic(8) endian(4) version(4) section_count(4) reserved(4)
//             content_key(8) total_size(8) digest(8) ]            48 bytes
//   [ section table: tag(4) reserved(4) offset(8) size(8) digest(8) ] * n
//   [ payload: sections, each starting 8-aligned ]
//
// The header digest is FNV-1a 64 over the header bytes before the digest
// field plus the whole section table; each section's digest covers its
// payload bytes including the trailing alignment padding, so every byte of
// the container is covered by exactly one checksum. Validation order on
// open — size, magic, endianness, format version, header digest, table
// geometry, section digests — guarantees the caller-visible error names the
// outermost mismatch (e.g. a foreign-endian header is reported as such, not
// as a checksum failure).
//
// Flat sections: arrays of trivially-copyable fixed-width records are
// written at 8-byte alignment and read back as typed pointers into the
// underlying buffer (Cursor::FlatArray). Over a MappedFile this is the
// zero-copy mmap load path: repeat loads do no parsing and no allocation
// for the flat data beyond pointer fix-ups.

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace xicc::serde {

/// FNV-1a 64-bit over a byte range; `seed` chains multi-range digests.
inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
uint64_t Fnv1a64(const void* data, size_t size,
                 uint64_t seed = kFnvOffsetBasis);
inline uint64_t Fnv1a64(std::string_view bytes,
                        uint64_t seed = kFnvOffsetBasis) {
  return Fnv1a64(bytes.data(), bytes.size(), seed);
}

/// Section payload checksum: eight interleaved FNV-1a word lanes (one
/// multiply per 8 bytes per lane, lanes independent so the multiplies
/// pipeline), folded with byte-wise FNV-1a over the lane states and the
/// sub-block tail. ~10× the throughput of byte-wise Fnv1a64 on the
/// multi-megabyte payloads mmap warm starts verify on every load; the
/// header and section table, being tiny, keep the reference byte-wise
/// digest. Not FNV-1a-compatible — a distinct domain by construction.
uint64_t SectionDigest(const void* data, size_t size);
inline uint64_t SectionDigest(std::string_view bytes) {
  return SectionDigest(bytes.data(), bytes.size());
}

/// The endianness sentinel stored in every container header. Serialized
/// byte-wise as little-endian, so the on-disk bytes are {04 03 02 01}; a
/// container produced by a hypothetical native-order writer on a big-endian
/// host would read back as 0x04030201 and is rejected as foreign.
inline constexpr uint32_t kEndianSentinel = 0x01020304u;
inline constexpr uint32_t kForeignEndianSentinel = 0x04030201u;

inline constexpr size_t kHeaderSize = 48;
inline constexpr size_t kSectionEntrySize = 32;
inline constexpr size_t kMagicSize = 8;

/// Builds a container: scalar encoders plus section framing. Sections may
/// not nest; every write must happen inside a BeginSection/EndSection pair.
/// Usage:
///
///   Writer w("XICCART\0", kVersion, content_key);
///   w.BeginSection(kTagDtd);
///   w.U32(...); w.Str(...);
///   w.EndSection();
///   std::string bytes = std::move(w).Finish();
class Writer {
 public:
  /// `magic` must point at kMagicSize bytes identifying the format.
  Writer(const char* magic, uint32_t version, uint64_t content_key);

  void BeginSection(uint32_t tag);
  void EndSection();

  void U8(uint8_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// u32 length prefix + raw bytes.
  void Str(std::string_view s);
  void RawBytes(std::string_view bytes);
  /// Pads with zero bytes to the next 8-byte boundary.
  void AlignTo8();

  /// Writes `count` records of trivially-copyable fixed-width type T at
  /// 8-byte alignment, so Cursor::FlatArray<T> can return a direct pointer.
  /// Record layout is the host's — valid only on little-endian hosts, which
  /// the constructor enforces (big-endian hosts would need per-field
  /// encoders; no supported target is big-endian).
  template <typename T>
  void FlatArray(const T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T> && alignof(T) <= 8,
                  "flat records must be trivially copyable, align <= 8");
    AlignTo8();
    U64(count);
    RawBytes(std::string_view(reinterpret_cast<const char*>(data),
                              count * sizeof(T)));
  }

  /// Assembles header + section table + payload. The Writer is consumed.
  std::string Finish() &&;

 private:
  struct Section {
    uint32_t tag;
    uint64_t offset;       // Relative to payload start until Finish().
    uint64_t size;         // Logical size, excluding alignment padding.
    uint64_t padded_size;  // Digest coverage: size rounded up to 8.
    uint64_t digest;
  };

  char magic_[kMagicSize];
  uint32_t version_;
  uint64_t content_key_;
  std::string payload_;
  std::vector<Section> sections_;
  bool in_section_ = false;
  uint64_t section_start_ = 0;
};

/// Sticky-error decode cursor over one section's bytes. Reads past the end
/// (or any other malformation) latch an InvalidArgument status and return
/// zero values / empty strings / null pointers from then on, so a decode
/// sequence can run straight-line and check status() once at the end —
/// corrupt input degrades to harmless defaults, never out-of-bounds reads.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes, std::string_view what = "section")
      : bytes_(bytes), what_(what) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() { return std::bit_cast<double>(U64()); }
  bool Bool() { return U8() != 0; }
  std::string Str();
  std::string_view RawBytes(size_t size);
  void AlignTo8();

  /// Typed view into the buffer written by Writer::FlatArray<T>. Returns
  /// the record pointer (valid for the buffer's lifetime — zero-copy over a
  /// MappedFile) and stores the count; nullptr with count 0 on any error,
  /// including a record-count mismatch against `expected_count` when that
  /// is non-negative. The pointer is guaranteed 8-aligned.
  template <typename T>
  const T* FlatArray(size_t* count, int64_t expected_count = -1) {
    static_assert(std::is_trivially_copyable_v<T> && alignof(T) <= 8,
                  "flat records must be trivially copyable, align <= 8");
    *count = 0;
    AlignTo8();
    const uint64_t n = U64();
    if (!status_.ok()) return nullptr;
    if (expected_count >= 0 && n != static_cast<uint64_t>(expected_count)) {
      Fail("flat array count mismatch");
      return nullptr;
    }
    if (n > bytes_.size() / sizeof(T) ||
        bytes_.size() - pos_ < n * sizeof(T)) {
      Fail("flat array overruns section");
      return nullptr;
    }
    const char* p = bytes_.data() + pos_;
    if (reinterpret_cast<uintptr_t>(p) % alignof(T) != 0) {
      Fail("flat array misaligned");
      return nullptr;
    }
    pos_ += n * sizeof(T);
    *count = static_cast<size_t>(n);
    // The audited byte-to-record reinterpretation this header exists for:
    // T is trivially copyable, the bytes came from Writer::FlatArray on a
    // same-endianness host, and alignment was just verified.
    return reinterpret_cast<const T*>(p);
  }

  bool AtEnd() const { return status_.ok() && pos_ == bytes_.size(); }
  const Status& status() const { return status_; }
  /// OK only if no read failed and the section was fully consumed.
  Status Finish() const;

 private:
  void Fail(const char* reason);

  std::string_view bytes_;
  std::string_view what_;
  size_t pos_ = 0;
  Status status_;
};

/// Validated read access to a container produced by Writer. Open() performs
/// the full validation pass (header, version, endianness, digests); after
/// it succeeds, Section() hands out Cursors over the (already
/// checksum-verified) section payloads. The Reader only references the
/// caller's buffer — keep it alive.
class Reader {
 public:
  static Result<Reader> Open(std::string_view bytes, const char* magic,
                             uint32_t expected_version);

  uint64_t content_key() const { return content_key_; }
  bool HasSection(uint32_t tag) const;
  /// Cursor over the named section. Duplicate tags are rejected at Open().
  Result<Cursor> Section(uint32_t tag, std::string_view what) const;

 private:
  Reader() = default;

  struct SectionEntry {
    uint32_t tag;
    uint64_t offset;
    uint64_t size;
  };

  std::string_view bytes_;
  uint64_t content_key_ = 0;
  std::vector<SectionEntry> sections_;
};

/// Read-only memory mapping of a whole file; the zero-copy substrate for
/// warm artifact loads. Falls back with a Status (never crashes) if the
/// file cannot be opened or mapped. Movable, not copyable; unmaps on
/// destruction.
class MappedFile {
 public:
  static Result<MappedFile> Map(const std::string& path);

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  std::string_view view() const {
    return std::string_view(static_cast<const char*>(data_), size_);
  }

 private:
  MappedFile() = default;

  void* data_ = nullptr;
  size_t size_ = 0;
};

/// Reads a whole file into a string (the non-mmap load path).
Result<std::string> ReadFileToString(const std::string& path);

/// Durably replaces `path` with `bytes`: writes a sibling temp file, then
/// renames over the target, so concurrent readers see either the old or the
/// new artifact, never a torn one. Every failure (unwritable dir, short
/// write / ENOSPC, failed rename) removes the temp file before returning —
/// the cache dir never accumulates orphaned `*.tmp` files — and reports
/// kUnavailable: the condition is environmental and retryable, and callers
/// (the artifact cache) degrade to serving from memory.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

}  // namespace xicc::serde
