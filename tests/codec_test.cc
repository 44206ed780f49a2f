// Codec layer tests (src/io/codec, DESIGN.md §16): bit-exact round trips for
// both codecs over adversarially chosen payloads, compression on payloads
// that should compress, and bounds-checked rejection of hostile encoded
// inputs (a decoder must never read or write out of range, whatever the
// bytes say).
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "io/codec.h"

namespace ddup {
namespace {

std::string RoundTrip(const io::Codec& codec, const std::string& input) {
  std::string encoded;
  codec.Compress(input, &encoded);
  std::string decoded;
  Status status = codec.Decompress(encoded, input.size(), &decoded);
  EXPECT_TRUE(status.ok()) << codec.name() << ": " << status.ToString();
  return decoded;
}

std::string DoubleBytes(const std::vector<double>& values) {
  std::string out(values.size() * sizeof(double), '\0');
  if (!values.empty()) std::memcpy(out.data(), values.data(), out.size());
  return out;
}

// Payload corpus: empty, sub-8-byte tails, text, runs, random bytes, integer
// lanes, and real-looking doubles — every branch of both codecs.
std::vector<std::string> Corpus() {
  std::vector<std::string> corpus;
  corpus.push_back("");
  corpus.push_back("a");
  corpus.push_back("abcdefg");  // below one u64 lane
  corpus.push_back("the quick brown fox jumps over the lazy dog");
  corpus.push_back(std::string(4096, 'x'));  // long single-byte run
  std::string cycle;
  for (int i = 0; i < 1000; ++i) cycle += "abcd";
  corpus.push_back(cycle);
  Rng rng(42);
  std::string random_bytes(2000, '\0');
  for (char& c : random_bytes) {
    c = static_cast<char>(rng.UniformInt(0, 255));
  }
  corpus.push_back(random_bytes);  // incompressible
  std::vector<double> counters;
  for (int i = 0; i < 500; ++i) counters.push_back(static_cast<double>(i * 3));
  corpus.push_back(DoubleBytes(counters));  // integer-ish lanes
  std::vector<double> gaussians;
  for (int i = 0; i < 500; ++i) gaussians.push_back(rng.Normal(0.0, 1.0));
  corpus.push_back(DoubleBytes(gaussians));  // full-entropy mantissas
  corpus.push_back(DoubleBytes({-0.0, 0.0,
                                std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity()}));
  return corpus;
}

// The two codecs a checkpoint may name.
const char* const kCodecNames[] = {"raw", "shuffle"};

TEST(CodecTest, RegistryExposesRawAndShuffleOnly) {
  for (uint8_t id : {io::kCodecRaw, io::kCodecShuffle}) {
    const io::Codec* codec = io::FindCodec(id);
    ASSERT_NE(codec, nullptr);
    EXPECT_EQ(codec->id(), id);
    EXPECT_EQ(io::FindCodecByName(codec->name()), codec);
  }
  // Retired ids and names stay unknown.
  for (uint8_t id : {1, 3, 200}) {
    EXPECT_EQ(io::FindCodec(id), nullptr) << int{id};
  }
  for (const std::string name : {"lz", "delta", "zstd"}) {
    EXPECT_EQ(io::FindCodecByName(name), nullptr) << name;
  }
  EXPECT_EQ(io::FindCodecByName(io::kDefaultCheckpointCodec),
            io::FindCodec(io::kCodecShuffle));
}

TEST(CodecTest, EveryCodecRoundTripsEveryPayloadBitExactly) {
  for (const std::string name : kCodecNames) {
    const io::Codec* codec = io::FindCodecByName(name);
    ASSERT_NE(codec, nullptr);
    int index = 0;
    for (const std::string& payload : Corpus()) {
      EXPECT_EQ(RoundTrip(*codec, payload), payload)
          << name << " corpus entry " << index;
      ++index;
    }
  }
}

TEST(CodecTest, ShuffleCompressesRepetitiveInputAtLeastTwofold) {
  std::string repetitive;
  for (int i = 0; i < 500; ++i) repetitive += "checkpoint section payload ";
  std::string encoded;
  io::FindCodecByName("shuffle")->Compress(repetitive, &encoded);
  EXPECT_LE(encoded.size() * 2, repetitive.size())
      << "shuffle ratio " << static_cast<double>(repetitive.size()) /
                                 static_cast<double>(encoded.size());
}

TEST(CodecTest, HostileEncodedInputsAreRejectedNotCrashed) {
  // Random byte strings fed to every decoder with every plausible expected
  // size: decoders are fully bounds-checked, so the only outcomes are a
  // clean error or a correctly-sized (garbage-free) success.
  Rng rng(7);
  for (const std::string name : kCodecNames) {
    const io::Codec* codec = io::FindCodecByName(name);
    for (int trial = 0; trial < 200; ++trial) {
      std::string hostile(static_cast<size_t>(rng.UniformInt(0, 64)), '\0');
      for (char& c : hostile) {
        c = static_cast<char>(rng.UniformInt(0, 255));
      }
      const size_t expected = static_cast<size_t>(rng.UniformInt(0, 256));
      std::string out;
      Status status = codec->Decompress(hostile, expected, &out);
      if (status.ok()) {
        EXPECT_EQ(out.size(), expected) << name << " trial " << trial;
      }
    }
  }
}

TEST(CodecTest, TruncatedEncodingsFail) {
  std::string payload;
  for (int i = 0; i < 200; ++i) payload += "abcdefgh";
  for (const std::string name : kCodecNames) {
    const io::Codec* codec = io::FindCodecByName(name);
    std::string encoded;
    codec->Compress(payload, &encoded);
    ASSERT_GT(encoded.size(), 2u);
    std::string out;
    EXPECT_FALSE(
        codec->Decompress(encoded.substr(0, encoded.size() / 2), payload.size(),
                          &out)
            .ok())
        << name;
  }
}

}  // namespace
}  // namespace ddup
