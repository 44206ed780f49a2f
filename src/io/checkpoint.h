#ifndef DDUP_IO_CHECKPOINT_H_
#define DDUP_IO_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "io/codec.h"
#include "io/mmap_file.h"

namespace ddup::io {

// Versioned checkpoint container (DESIGN.md §9, §16). Layout, all
// little-endian:
//
//   u64  magic      "DDUPCKP1"
//   u32  format version (2; the only version readers accept)
//   u32  section count
//   per section:
//     string  name      (u64 length + bytes)
//     u8      codec id             (io/codec.h; 0 = raw)
//     u64     uncompressed length
//     u64     stored length        (encoded payload bytes that follow)
//     u32     CRC-32 of the STORED bytes
//     bytes   stored payload
//
// Sections are opaque byte strings produced by io::Serializer; each model
// family owns its payload schema and versions it independently with a
// leading u32 (see the model Save/Load implementations). The container
// rejects bad magic, unknown format versions, truncation, unknown codec
// ids and per-section CRC mismatches — the CRC covers the stored (encoded)
// bytes, so corruption is caught before any decompressor touches the data.
// "DDUPCKP1" little-endian.
inline constexpr uint64_t kCheckpointMagic = 0x31504B4350554444ULL;
inline constexpr uint32_t kCheckpointFormatVersion = 2;

class CheckpointWriter {
 public:
  void AddSection(std::string name, std::string payload);

  // The full container image. Every section is encoded with
  // kDefaultCheckpointCodec; a section whose encoding is not smaller than
  // the payload is stored raw instead — ratio never drops below 1 and raw
  // sections stay zero-copy on the mmap read path.
  std::string Encode() const;
  // Writes Encode() to `path` via a same-directory temp file + rename, so a
  // concurrent reader never observes a half-written checkpoint. IoError if
  // the temp file cannot be opened, written, flushed or closed, or the
  // rename fails; the temp file is removed and an existing file at `path`
  // is left untouched in every such case.
  Status WriteToFile(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> sections_;
};

class CheckpointReader {
 public:
  // Per-section metadata; uncompressed_bytes == stored_bytes for raw
  // sections.
  struct SectionInfo {
    std::string name;
    uint8_t codec = kCodecRaw;
    uint64_t stored_bytes = 0;
    uint64_t uncompressed_bytes = 0;
  };

  // Parses an owned image. Sections reference the image in place — one
  // allocation per container, not one per section. CRCs are verified
  // eagerly here (the whole image is resident anyway).
  static StatusOr<CheckpointReader> FromBuffer(std::string buffer);
  // mmap-backed load: section payloads are views into the mapping, CRC
  // verification and decompression happen lazily on first access, so
  // untouched sections never fault their pages in. Falls back to the
  // buffered path when the file cannot be mapped.
  static StatusOr<CheckpointReader> FromFile(const std::string& path);
  // The pre-mmap path: reads the whole file into memory, verifies every
  // CRC up front. Kept public as the differential twin of FromFile
  // (tests byte-compare the two) and for callers that want eager
  // verification.
  static StatusOr<CheckpointReader> FromFileBuffered(const std::string& path);

  bool Has(const std::string& name) const;
  // The named section's payload as an owned copy (decompressed if needed);
  // NotFound if absent, InvalidArgument on a lazy CRC/decode failure.
  StatusOr<std::string> Section(const std::string& name) const;
  // Zero-copy variant: raw sections return a view into the container image
  // (mmap or owned buffer); compressed sections decode once into a cache
  // owned by the reader. Views are invalidated by destroying or moving the
  // reader — never let one outlive it (DESIGN.md §16). Not thread-safe:
  // lazy verification mutates the cache.
  StatusOr<std::string_view> SectionView(const std::string& name) const;
  StatusOr<SectionInfo> Info(const std::string& name) const;
  // All sections in container order.
  std::vector<SectionInfo> Sections() const;

  int num_sections() const { return static_cast<int>(sections_.size()); }
  // The raw container image this reader serves views from (tests use it to
  // pin the zero-copy property).
  std::string_view image() const;

 private:
  struct Entry {
    std::string name;
    uint8_t codec = kCodecRaw;
    size_t offset = 0;  // stored payload position within the image
    uint64_t stored_bytes = 0;
    uint64_t uncompressed_bytes = 0;
    uint32_t crc = 0;
    // Lazy-verification state (mmap path); the buffered paths verify at
    // parse time and construct entries pre-verified.
    mutable bool verified = false;
    // Decode cache for compressed sections. unique_ptr so the cached
    // string's buffer survives moves of the reader.
    mutable std::unique_ptr<std::string> decoded;
  };

  static StatusOr<CheckpointReader> Parse(CheckpointReader reader,
                                          bool verify_eagerly);
  const Entry* FindEntry(const std::string& name) const;
  // Verifies the CRC and (if compressed) decodes `entry`; returns the
  // payload view.
  StatusOr<std::string_view> Payload(const Entry& entry) const;

  // Exactly one of the two backs the image: an owned buffer or a mapping.
  std::string owned_image_;
  MappedFile mapped_;
  bool use_mapping_ = false;
  std::vector<Entry> sections_;
};

// Single-section conveniences used by the model Save/Load paths: the section
// name doubles as the model-kind tag, so loading a checkpoint of the wrong
// family fails with a clear error instead of misinterpreting bytes.
Status WriteSectionFile(const std::string& path, const std::string& kind,
                        std::string payload);
StatusOr<std::string> ReadSectionFile(const std::string& path,
                                      const std::string& kind);

}  // namespace ddup::io

#endif  // DDUP_IO_CHECKPOINT_H_
