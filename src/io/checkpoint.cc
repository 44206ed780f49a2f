#include "io/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <utility>

#include "io/serializer.h"

namespace ddup::io {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

StatusOr<std::string> ReadWholeFile(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open for read: " + path);
  std::string data;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    data.append(buf, n);
  }
  if (std::ferror(f.get())) return Status::IoError("read failed: " + path);
  return data;
}

// Little-endian header readers over the raw image. The container is parsed
// by offset (not through Deserializer) so section payloads stay views into
// the image instead of being copied out one by one.
bool ReadU8At(std::string_view d, size_t* pos, uint8_t* v) {
  if (d.size() - *pos < 1) return false;
  *v = static_cast<uint8_t>(d[(*pos)++]);
  return true;
}

bool ReadU32At(std::string_view d, size_t* pos, uint32_t* v) {
  if (d.size() - *pos < 4) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<unsigned char>(d[(*pos)++]))
          << (8 * i);
  }
  return true;
}

bool ReadU64At(std::string_view d, size_t* pos, uint64_t* v) {
  if (d.size() - *pos < 8) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<unsigned char>(d[(*pos)++]))
          << (8 * i);
  }
  return true;
}

bool ReadNameAt(std::string_view d, size_t* pos, std::string* name) {
  uint64_t n = 0;
  if (!ReadU64At(d, pos, &n)) return false;
  if (n > d.size() - *pos) return false;
  name->assign(d.data() + *pos, static_cast<size_t>(n));
  *pos += static_cast<size_t>(n);
  return true;
}

}  // namespace

void CheckpointWriter::AddSection(std::string name, std::string payload) {
  sections_.emplace_back(std::move(name), std::move(payload));
}

std::string CheckpointWriter::Encode() const {
  Serializer out;
  out.WriteU64(kCheckpointMagic);
  out.WriteU32(kCheckpointFormatVersion);
  out.WriteU32(static_cast<uint32_t>(sections_.size()));
  const Codec* codec = FindCodecByName(kDefaultCheckpointCodec);
  std::string encoded;
  for (const auto& [name, payload] : sections_) {
    encoded.clear();
    codec->Compress(payload, &encoded);
    // Store incompressible sections raw: ratio never drops below 1 and the
    // section stays zero-copy on the mmap read path.
    const bool raw = encoded.size() >= payload.size();
    const std::string& stored = raw ? payload : encoded;
    out.WriteString(name);
    out.WriteU8(raw ? uint8_t{kCodecRaw} : codec->id());
    out.WriteU64(payload.size());
    out.WriteU64(stored.size());
    out.WriteU32(Crc32(stored));
    out.WriteRaw(stored);
  }
  return out.Take();
}

Status CheckpointWriter::WriteToFile(const std::string& path) const {
  std::string image = Encode();
  std::string tmp = path + ".tmp";
  {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f) return Status::IoError("cannot open for write: " + tmp);
    if (!image.empty() &&
        std::fwrite(image.data(), 1, image.size(), f.get()) != image.size()) {
      f.reset();
      std::remove(tmp.c_str());
      return Status::IoError("short write: " + tmp);
    }
    if (std::fflush(f.get()) != 0) {
      f.reset();
      std::remove(tmp.c_str());
      return Status::IoError("flush failed: " + tmp);
    }
    // Close explicitly: an error reported at close time must not let the
    // rename replace the last good checkpoint with this file.
    if (std::fclose(f.release()) != 0) {
      std::remove(tmp.c_str());
      return Status::IoError("close failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failed: " + path);
  }
  return Status::OK();
}

StatusOr<CheckpointReader> CheckpointReader::Parse(CheckpointReader reader,
                                                   bool verify_eagerly) {
  const std::string_view image = reader.image();
  size_t pos = 0;
  uint64_t magic = 0;
  if (!ReadU64At(image, &pos, &magic) || magic != kCheckpointMagic) {
    return Status::InvalidArgument("bad checkpoint magic");
  }
  uint32_t version = 0;
  if (!ReadU32At(image, &pos, &version)) {
    return Status::InvalidArgument("bad checkpoint magic");
  }
  if (version != kCheckpointFormatVersion) {
    return Status::InvalidArgument(
        "unsupported checkpoint format version " + std::to_string(version) +
        " (expected " + std::to_string(kCheckpointFormatVersion) + ")");
  }
  uint32_t count = 0;
  if (!ReadU32At(image, &pos, &count)) {
    return Status::InvalidArgument("truncated checkpoint section");
  }
  reader.sections_.clear();
  reader.sections_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Entry entry;
    if (!ReadNameAt(image, &pos, &entry.name)) {
      return Status::InvalidArgument("truncated checkpoint section");
    }
    if (!ReadU8At(image, &pos, &entry.codec) ||
        !ReadU64At(image, &pos, &entry.uncompressed_bytes) ||
        !ReadU64At(image, &pos, &entry.stored_bytes) ||
        !ReadU32At(image, &pos, &entry.crc)) {
      return Status::InvalidArgument("truncated checkpoint section");
    }
    if (FindCodec(entry.codec) == nullptr) {
      return Status::InvalidArgument(
          "unknown checkpoint codec id " + std::to_string(entry.codec) +
          " in section: " + entry.name);
    }
    if (entry.codec == kCodecRaw &&
        entry.stored_bytes != entry.uncompressed_bytes) {
      return Status::InvalidArgument(
          "raw checkpoint section length mismatch: " + entry.name);
    }
    if (entry.stored_bytes > image.size() - pos) {
      return Status::InvalidArgument("truncated checkpoint section");
    }
    entry.offset = pos;
    pos += static_cast<size_t>(entry.stored_bytes);
    if (verify_eagerly) {
      if (Crc32(image.data() + entry.offset, entry.stored_bytes) !=
          entry.crc) {
        return Status::InvalidArgument("checkpoint section CRC mismatch: " +
                                       entry.name);
      }
      entry.verified = true;
    }
    reader.sections_.push_back(std::move(entry));
  }
  if (pos != image.size()) {
    return Status::InvalidArgument("trailing bytes after checkpoint sections");
  }
  return reader;
}

StatusOr<CheckpointReader> CheckpointReader::FromBuffer(std::string buffer) {
  CheckpointReader reader;
  reader.owned_image_ = std::move(buffer);
  reader.use_mapping_ = false;
  return Parse(std::move(reader), /*verify_eagerly=*/true);
}

StatusOr<CheckpointReader> CheckpointReader::FromFile(const std::string& path) {
  StatusOr<MappedFile> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return FromFileBuffered(path);
  CheckpointReader reader;
  reader.mapped_ = std::move(mapped).value();
  reader.use_mapping_ = true;
  return Parse(std::move(reader), /*verify_eagerly=*/false);
}

StatusOr<CheckpointReader> CheckpointReader::FromFileBuffered(
    const std::string& path) {
  StatusOr<std::string> data = ReadWholeFile(path);
  if (!data.ok()) return data.status();
  return FromBuffer(std::move(data).value());
}

std::string_view CheckpointReader::image() const {
  return use_mapping_ ? mapped_.data() : std::string_view(owned_image_);
}

const CheckpointReader::Entry* CheckpointReader::FindEntry(
    const std::string& name) const {
  for (const Entry& e : sections_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

StatusOr<std::string_view> CheckpointReader::Payload(const Entry& entry) const {
  const std::string_view image_view = image();
  const std::string_view stored(image_view.data() + entry.offset,
                                static_cast<size_t>(entry.stored_bytes));
  if (!entry.verified) {
    if (Crc32(stored.data(), stored.size()) != entry.crc) {
      return Status::InvalidArgument("checkpoint section CRC mismatch: " +
                                     entry.name);
    }
    entry.verified = true;
  }
  if (entry.codec == kCodecRaw) return stored;
  if (entry.decoded == nullptr) {
    const Codec* codec = FindCodec(entry.codec);  // validated at parse time
    auto decoded = std::make_unique<std::string>();
    Status status = codec->Decompress(
        stored, static_cast<size_t>(entry.uncompressed_bytes), decoded.get());
    if (!status.ok()) {
      return Status::InvalidArgument("checkpoint section decode failed: " +
                                     entry.name + " (" + status.message() +
                                     ")");
    }
    if (decoded->size() != entry.uncompressed_bytes) {
      return Status::InvalidArgument(
          "checkpoint section decompressed-length mismatch: " + entry.name);
    }
    entry.decoded = std::move(decoded);
  }
  return std::string_view(*entry.decoded);
}

bool CheckpointReader::Has(const std::string& name) const {
  return FindEntry(name) != nullptr;
}

StatusOr<std::string> CheckpointReader::Section(const std::string& name) const {
  StatusOr<std::string_view> view = SectionView(name);
  if (!view.ok()) return view.status();
  return std::string(view.value());
}

StatusOr<std::string_view> CheckpointReader::SectionView(
    const std::string& name) const {
  const Entry* entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::NotFound("checkpoint section not found: " + name);
  }
  return Payload(*entry);
}

StatusOr<CheckpointReader::SectionInfo> CheckpointReader::Info(
    const std::string& name) const {
  const Entry* entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::NotFound("checkpoint section not found: " + name);
  }
  return SectionInfo{entry->name, entry->codec, entry->stored_bytes,
                     entry->uncompressed_bytes};
}

std::vector<CheckpointReader::SectionInfo> CheckpointReader::Sections() const {
  std::vector<SectionInfo> infos;
  infos.reserve(sections_.size());
  for (const Entry& e : sections_) {
    infos.push_back(SectionInfo{e.name, e.codec, e.stored_bytes,
                                e.uncompressed_bytes});
  }
  return infos;
}

Status WriteSectionFile(const std::string& path, const std::string& kind,
                        std::string payload) {
  CheckpointWriter writer;
  writer.AddSection(kind, std::move(payload));
  return writer.WriteToFile(path);
}

StatusOr<std::string> ReadSectionFile(const std::string& path,
                                      const std::string& kind) {
  StatusOr<CheckpointReader> reader = CheckpointReader::FromFile(path);
  if (!reader.ok()) return reader.status();
  StatusOr<std::string> payload = reader.value().Section(kind);
  if (!payload.ok()) {
    // Only a missing section means "wrong model kind" — CRC/decode failures
    // must surface as what they are, not be masked as a kind mismatch.
    if (payload.status().code() == StatusCode::kNotFound &&
        reader.value().num_sections() == 1) {
      return Status::InvalidArgument("checkpoint kind mismatch: expected '" +
                                     kind + "'");
    }
    return payload.status();
  }
  return payload;
}

}  // namespace ddup::io
