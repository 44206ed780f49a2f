#ifndef DDUP_IO_CODEC_H_
#define DDUP_IO_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace ddup::io {

// Section compression codecs for the checkpoint container (DESIGN.md §16).
// A codec maps an arbitrary byte string to an encoded byte string and back,
// bit-exactly: Decompress(Compress(x), x.size()) == x for EVERY input.
// Codecs carry no per-stream state and no header of their own — the
// container records the codec id and the uncompressed length next to each
// section, and the CRC is computed over the ENCODED bytes so corruption is
// caught before any decode logic runs on hostile data.
//
// Ids are part of the on-disk format: never renumber or reuse them. Ids 1
// (`lz`) and 3 (`delta`) are retired; readers reject them as unknown, and
// no future codec may take either number.
enum CodecId : uint8_t {
  kCodecRaw = 0,      // passthrough
  kCodecShuffle = 2,  // 8-byte-plane transpose + LZ4-block-style matching
};

class Codec {
 public:
  virtual ~Codec() = default;
  virtual uint8_t id() const = 0;
  virtual const char* name() const = 0;
  // Replaces *out with the encoding of `input`. Never fails: every byte
  // string is encodable (the encoding may be larger than the input; the
  // container stores such sections raw instead).
  virtual void Compress(std::string_view input, std::string* out) const = 0;
  // Replaces *out with the decoded bytes; `uncompressed_size` is the decoded
  // size the caller expects (from the container header). Fails with
  // InvalidArgument on malformed input — bounds-checked everywhere, so a
  // hostile payload can never read or write out of range.
  virtual Status Decompress(std::string_view input, size_t uncompressed_size,
                            std::string* out) const = 0;
};

// The built-in codecs (`raw`, `shuffle`). Lookups return nullptr for
// unknown ids/names; the returned objects are process-lifetime singletons.
const Codec* FindCodec(uint8_t id);
const Codec* FindCodecByName(const std::string& name);

// The codec CheckpointWriter encodes every section with.
inline constexpr const char* kDefaultCheckpointCodec = "shuffle";

}  // namespace ddup::io

#endif  // DDUP_IO_CODEC_H_
