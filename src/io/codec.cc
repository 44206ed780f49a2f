#include "io/codec.h"

#include <cstring>
#include <vector>

namespace ddup::io {

namespace {

// ---------------------------------------------------------------------------
// raw
// ---------------------------------------------------------------------------

class RawCodec final : public Codec {
 public:
  uint8_t id() const override { return kCodecRaw; }
  const char* name() const override { return "raw"; }
  void Compress(std::string_view input, std::string* out) const override {
    out->assign(input.data(), input.size());
  }
  Status Decompress(std::string_view input, size_t uncompressed_size,
                    std::string* out) const override {
    if (input.size() != uncompressed_size) {
      return Status::InvalidArgument("raw payload size mismatch");
    }
    out->assign(input.data(), input.size());
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// LZ block format: LZ4-block-style greedy byte matching, the second stage
// of `shuffle`. Sequences of
//   [token: high nibble = literal length, low nibble = match length - 4]
//   [length extensions as 255-runs] [literals] [u16 LE offset] [extensions]
// with nibble value 15 meaning "extended". The final sequence carries
// literals only (no offset). Offsets are bounded by 64 KiB; matching uses a
// 16 Ki-entry hash table of 4-byte sequences, so compression is one pass
// with no allocation proportional to the input.
// ---------------------------------------------------------------------------

constexpr size_t kLzMinMatch = 4;
constexpr size_t kLzMaxOffset = 0xFFFF;
constexpr int kLzHashBits = 14;

inline uint32_t LzRead32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t LzHash(uint32_t seq) {
  return (seq * 2654435761u) >> (32 - kLzHashBits);
}

void LzPutLength(size_t extra, std::string* out) {
  while (extra >= 255) {
    out->push_back(static_cast<char>(0xFF));
    extra -= 255;
  }
  out->push_back(static_cast<char>(extra));
}

void LzEmit(const unsigned char* src, size_t lit_begin, size_t lit_end,
            size_t offset, size_t match_len, std::string* out) {
  const size_t lit = lit_end - lit_begin;
  const size_t match_code = match_len > 0 ? match_len - kLzMinMatch : 0;
  uint8_t token = static_cast<uint8_t>((lit < 15 ? lit : 15) << 4);
  if (match_len > 0) {
    token |= static_cast<uint8_t>(match_code < 15 ? match_code : 15);
  }
  out->push_back(static_cast<char>(token));
  if (lit >= 15) LzPutLength(lit - 15, out);
  out->append(reinterpret_cast<const char*>(src) + lit_begin, lit);
  if (match_len == 0) return;  // final literal-only sequence
  out->push_back(static_cast<char>(offset & 0xFF));
  out->push_back(static_cast<char>((offset >> 8) & 0xFF));
  if (match_code >= 15) LzPutLength(match_code - 15, out);
}

void LzCompress(std::string_view input, std::string* out) {
  out->clear();
  const size_t n = input.size();
  const auto* src = reinterpret_cast<const unsigned char*>(input.data());
  size_t anchor = 0;
  // The hash table stores pos+1 in 32 bits; inputs at or beyond 4 GiB fall
  // back to a literal-only encoding rather than overflowing positions.
  if (n > kLzMinMatch && n < 0xFFFFFFFFull) {
    std::vector<uint32_t> table(size_t{1} << kLzHashBits, 0);
    size_t pos = 0;
    const size_t limit = n - kLzMinMatch;  // last pos with a 4-byte read
    while (pos <= limit) {
      const uint32_t seq = LzRead32(src + pos);
      const uint32_t h = LzHash(seq);
      const size_t cand = table[h];
      table[h] = static_cast<uint32_t>(pos + 1);
      if (cand != 0 && pos + 1 - cand <= kLzMaxOffset &&
          LzRead32(src + cand - 1) == seq) {
        const size_t match_pos = cand - 1;
        size_t len = kLzMinMatch;
        while (pos + len < n && src[match_pos + len] == src[pos + len]) ++len;
        LzEmit(src, anchor, pos, pos - match_pos, len, out);
        pos += len;
        anchor = pos;
        continue;
      }
      ++pos;
    }
  }
  if (anchor < n) LzEmit(src, anchor, n, 0, 0, out);
}

// Reads a 255-run length extension; false on truncation.
bool LzGetLength(std::string_view in, size_t* ip, size_t* len) {
  for (;;) {
    if (*ip >= in.size()) return false;
    const uint8_t b = static_cast<uint8_t>(in[(*ip)++]);
    *len += b;
    if (b != 255) return true;
  }
}

Status LzCorrupt() { return Status::InvalidArgument("corrupt lz payload"); }

Status LzDecompress(std::string_view in, size_t out_size, std::string* out) {
  out->clear();
  // Reserving the full output up front makes every later append in-place:
  // the self-referencing match copies below rely on the buffer never
  // reallocating mid-append.
  out->reserve(out_size);
  size_t ip = 0;
  const size_t n = in.size();
  while (ip < n) {
    const uint8_t token = static_cast<uint8_t>(in[ip++]);
    size_t lit = token >> 4;
    if (lit == 15 && !LzGetLength(in, &ip, &lit)) return LzCorrupt();
    if (lit > n - ip || lit > out_size - out->size()) return LzCorrupt();
    out->append(in.data() + ip, lit);
    ip += lit;
    if (ip == n) break;  // final literal-only sequence
    if (n - ip < 2) return LzCorrupt();
    const size_t offset = static_cast<uint8_t>(in[ip]) |
                          (static_cast<size_t>(static_cast<uint8_t>(in[ip + 1]))
                           << 8);
    ip += 2;
    if (offset == 0 || offset > out->size()) return LzCorrupt();
    size_t match = token & 0x0F;
    if (match == 15 && !LzGetLength(in, &ip, &match)) return LzCorrupt();
    match += kLzMinMatch;
    if (match > out_size - out->size()) return LzCorrupt();
    const size_t from = out->size() - offset;
    if (offset >= match) {
      // Disjoint ranges; the reserve above keeps data() stable.
      out->append(out->data() + from, match);
    } else {
      // Overlapping (run-length) match: byte-by-byte replication.
      for (size_t i = 0; i < match; ++i) out->push_back((*out)[from + i]);
    }
  }
  if (out->size() != out_size) {
    return Status::InvalidArgument(
        "lz payload decodes to " + std::to_string(out->size()) +
        " bytes, expected " + std::to_string(out_size));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// shuffle: 8-byte-plane transpose, then the LZ block matcher. Doubles from
// one column share exponent/high-mantissa bytes; grouping byte plane k of
// every lane makes those runs contiguous, which the byte-matcher then
// collapses. The n % 8 tail is carried through untransposed.
// ---------------------------------------------------------------------------

void ShuffleBytes(std::string_view in, std::string* out) {
  const size_t n = in.size();
  const size_t lanes = n / 8;
  out->resize(n);
  for (size_t plane = 0; plane < 8; ++plane) {
    char* dst = out->data() + plane * lanes;
    for (size_t i = 0; i < lanes; ++i) dst[i] = in[i * 8 + plane];
  }
  for (size_t i = lanes * 8; i < n; ++i) (*out)[i] = in[i];
}

void UnshuffleBytes(std::string_view in, std::string* out) {
  const size_t n = in.size();
  const size_t lanes = n / 8;
  out->resize(n);
  for (size_t plane = 0; plane < 8; ++plane) {
    const char* src = in.data() + plane * lanes;
    for (size_t i = 0; i < lanes; ++i) (*out)[i * 8 + plane] = src[i];
  }
  for (size_t i = lanes * 8; i < n; ++i) (*out)[i] = in[i];
}

class ShuffleCodec final : public Codec {
 public:
  uint8_t id() const override { return kCodecShuffle; }
  const char* name() const override { return "shuffle"; }
  void Compress(std::string_view input, std::string* out) const override {
    std::string shuffled;
    ShuffleBytes(input, &shuffled);
    LzCompress(shuffled, out);
  }
  Status Decompress(std::string_view input, size_t uncompressed_size,
                    std::string* out) const override {
    std::string shuffled;
    DDUP_RETURN_IF_ERROR(LzDecompress(input, uncompressed_size, &shuffled));
    UnshuffleBytes(shuffled, out);
    return Status::OK();
  }
};

const RawCodec kRaw;
const ShuffleCodec kShuffle;
const Codec* const kCodecs[] = {&kRaw, &kShuffle};

}  // namespace

const Codec* FindCodec(uint8_t id) {
  for (const Codec* codec : kCodecs) {
    if (codec->id() == id) return codec;
  }
  return nullptr;
}

const Codec* FindCodecByName(const std::string& name) {
  for (const Codec* codec : kCodecs) {
    if (name == codec->name()) return codec;
  }
  return nullptr;
}

}  // namespace ddup::io
