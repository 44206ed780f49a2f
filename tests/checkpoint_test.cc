// Checkpoint subsystem tests (src/io + model Save/Load, DESIGN.md §9):
// byte-level serializer round trips, container integrity (magic / version /
// CRC / truncation), per-model save→load→predict bit-identity, RNG stream
// continuation, and detector/controller snapshot resume.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/controller.h"
#include "core/detector.h"
#include "datagen/datasets.h"
#include "gtest/gtest.h"
#include "io/checkpoint.h"
#include "io/serializer.h"
#include "models/darn.h"
#include "models/gbdt.h"
#include "models/mdn.h"
#include "models/spn.h"
#include "models/tvae.h"
#include "workload/generator.h"

namespace ddup {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

storage::Table SmallCensus() { return datagen::CensusLike(500, 14); }

// Bitwise double equality: the round-trip contract is exact, not approximate.
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in their bit patterns";
}

// ---------------------------------------------------------------------------
// Serializer layer
// ---------------------------------------------------------------------------

TEST(SerializerTest, PrimitiveRoundTrip) {
  io::Serializer out;
  out.WriteU8(0xAB);
  out.WriteU32(0xDEADBEEFu);
  out.WriteU64(0x0123456789ABCDEFull);
  out.WriteI32(-42);
  out.WriteI64(-1234567890123ll);
  out.WriteBool(true);
  out.WriteDouble(-0.0);
  out.WriteDouble(1.0 / 3.0);
  out.WriteString("ddup");
  out.WriteDoubleVec({1.5, -2.5});
  out.WriteIntVec({3, -4, 5});

  io::Deserializer in(out.Take());
  EXPECT_EQ(in.ReadU8(), 0xAB);
  EXPECT_EQ(in.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(in.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.ReadI32(), -42);
  EXPECT_EQ(in.ReadI64(), -1234567890123ll);
  EXPECT_TRUE(in.ReadBool());
  EXPECT_TRUE(BitEqual(in.ReadDouble(), -0.0));
  EXPECT_TRUE(BitEqual(in.ReadDouble(), 1.0 / 3.0));
  EXPECT_EQ(in.ReadString(), "ddup");
  EXPECT_EQ(in.ReadDoubleVec(), (std::vector<double>{1.5, -2.5}));
  EXPECT_EQ(in.ReadIntVec(), (std::vector<int>{3, -4, 5}));
  EXPECT_TRUE(in.Finish().ok());
}

TEST(SerializerTest, LittleEndianLayout) {
  io::Serializer out;
  out.WriteU32(0x01020304u);
  const std::string& buf = out.buffer();
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(buf[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(buf[3]), 0x01);
}

TEST(SerializerTest, TruncatedReadSetsStickyError) {
  io::Serializer out;
  out.WriteU32(7);
  io::Deserializer in(out.Take());
  (void)in.ReadU64();  // asks for more than is there
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.ReadU32(), 0u);  // later reads are inert
  EXPECT_FALSE(in.Finish().ok());
}

TEST(SerializerTest, CorruptVectorLengthRejectedBeforeAllocation) {
  io::Serializer out;
  out.WriteU64(static_cast<uint64_t>(1) << 60);  // absurd element count
  io::Deserializer in(out.Take());
  EXPECT_TRUE(in.ReadDoubleVec().empty());
  EXPECT_FALSE(in.ok());
}

TEST(SerializerTest, RngStateContinuesIdentically) {
  Rng a(123);
  (void)a.Uniform();  // advance past the seed state
  io::Serializer out;
  out.WriteRng(a);
  Rng b(999);
  io::Deserializer in(out.Take());
  in.ReadRng(&b);
  ASSERT_TRUE(in.ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(BitEqual(a.Normal(), b.Normal()));
  }
}

TEST(SerializerTest, TableRoundTrip) {
  storage::Table t = SmallCensus();
  io::Serializer out;
  out.WriteTable(t);
  io::Deserializer in(out.Take());
  storage::Table restored = in.ReadTable();
  ASSERT_TRUE(in.Finish().ok());
  ASSERT_TRUE(restored.SchemaEquals(t));
  ASSERT_EQ(restored.num_rows(), t.num_rows());
  for (int c = 0; c < t.num_columns(); ++c) {
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_TRUE(BitEqual(restored.column(c).AsDouble(r),
                           t.column(c).AsDouble(r)));
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint container integrity
// ---------------------------------------------------------------------------

TEST(CheckpointContainerTest, SectionRoundTrip) {
  io::CheckpointWriter writer;
  writer.AddSection("alpha", "payload-a");
  writer.AddSection("beta", std::string("\x00\x01\x02", 3));
  std::string path = TempPath("container.ckpt");
  ASSERT_TRUE(writer.WriteToFile(path).ok());
  auto reader = io::CheckpointReader::FromFile(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.value().Has("alpha"));
  EXPECT_FALSE(reader.value().Has("gamma"));
  EXPECT_EQ(reader.value().Section("alpha").value(), "payload-a");
  EXPECT_EQ(reader.value().Section("beta").value().size(), 3u);
  std::remove(path.c_str());
}

TEST(CheckpointContainerTest, RejectsBadMagic) {
  io::CheckpointWriter writer;
  writer.AddSection("s", "x");
  std::string image = writer.Encode();
  image[0] ^= 0x5A;
  EXPECT_FALSE(io::CheckpointReader::FromBuffer(image).ok());
}

TEST(CheckpointContainerTest, RejectsUnknownFormatVersion) {
  io::CheckpointWriter writer;
  writer.AddSection("s", "x");
  std::string image = writer.Encode();
  image[8] = 99;  // format version is the u32 after the 8-byte magic
  EXPECT_FALSE(io::CheckpointReader::FromBuffer(image).ok());
}

TEST(CheckpointContainerTest, RejectsPayloadCorruption) {
  io::CheckpointWriter writer;
  writer.AddSection("s", "the payload bytes");
  std::string image = writer.Encode();
  image[image.size() - 3] ^= 0x01;  // flip one payload bit
  auto reader = io::CheckpointReader::FromBuffer(image);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("CRC"), std::string::npos);
}

TEST(CheckpointContainerTest, RejectsTruncation) {
  io::CheckpointWriter writer;
  writer.AddSection("s", "the payload bytes");
  std::string image = writer.Encode();
  for (size_t cut : {image.size() - 1, image.size() / 2, size_t{5}}) {
    EXPECT_FALSE(io::CheckpointReader::FromBuffer(image.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(CheckpointContainerTest, KindMismatchRejected) {
  std::string path = TempPath("kind.ckpt");
  ASSERT_TRUE(io::WriteSectionFile(path, "mdn", "payload").ok());
  EXPECT_FALSE(io::ReadSectionFile(path, "darn").ok());
  EXPECT_TRUE(io::ReadSectionFile(path, "mdn").ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Format version 2: per-section codecs, header tampering, rejection of the
// retired v1 layout and the mmap/buffered differential (DESIGN.md §16).
// ---------------------------------------------------------------------------

// v2 section header layout after the 16-byte container header:
//   u64 name length, name bytes, u8 codec id, u64 uncompressed length, ...
// The CRC covers only the STORED payload bytes, so these header offsets can
// be tampered without tripping the checksum — exactly what the tests below
// exploit to reach the decode-time validation paths.
size_t FirstCodecByteOffset(const std::string& section_name) {
  return 16 + 8 + section_name.size();
}

std::string CompressiblePayload() {
  std::string payload;
  for (int i = 0; i < 400; ++i) payload += "model weights shard ";
  return payload;
}

std::string IncompressiblePayload(size_t n) {
  Rng rng(1234);
  std::string payload(n, '\0');
  for (char& c : payload) c = static_cast<char>(rng.UniformInt(0, 255));
  return payload;
}

std::string ReadFileRaw(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string bytes;
  char buffer[4096];
  size_t n = 0;
  while (f != nullptr && (n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.append(buffer, n);
  }
  if (f != nullptr) std::fclose(f);
  return bytes;
}

void WriteFileRaw(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(CheckpointV2Test, CompressedSectionsRoundTripAndShrinkTheImage) {
  const std::string payload = CompressiblePayload();
  io::CheckpointWriter writer;  // default codec: compressed
  writer.AddSection("s", payload);
  const std::string image = writer.Encode();
  EXPECT_LT(image.size(), payload.size());

  auto reader = io::CheckpointReader::FromBuffer(image);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value().Section("s").value(), payload);
  auto info = reader.value().Info("s");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().codec, io::kCodecShuffle);
  EXPECT_EQ(info.value().uncompressed_bytes, payload.size());
  EXPECT_LT(info.value().stored_bytes, info.value().uncompressed_bytes);
}

TEST(CheckpointV2Test, UnknownCodecIdRejected) {
  io::CheckpointWriter writer;
  writer.AddSection("s", CompressiblePayload());
  const std::string image = writer.Encode();
  // 1 and 3 are the retired `lz` and `delta` ids.
  for (uint8_t id : {1, 3, 200}) {
    std::string tampered = image;
    tampered[FirstCodecByteOffset("s")] = static_cast<char>(id);
    auto reader = io::CheckpointReader::FromBuffer(tampered);
    ASSERT_FALSE(reader.ok()) << "codec id " << int{id};
    EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(reader.status().message().find("unknown checkpoint codec id"),
              std::string::npos)
        << reader.status().ToString();
  }
}

TEST(CheckpointV2Test, CorruptedCompressedPayloadFailsCrcBeforeDecode) {
  io::CheckpointWriter writer;
  writer.AddSection("s", CompressiblePayload());
  std::string image = writer.Encode();
  image[image.size() - 2] ^= 0x40;  // inside the stored (encoded) bytes

  // Eager path: the corruption is a parse error.
  auto eager = io::CheckpointReader::FromBuffer(image);
  ASSERT_FALSE(eager.ok());
  EXPECT_NE(eager.status().message().find("CRC"), std::string::npos);

  // Lazy mmap path: parsing succeeds (CRCs untouched), the first access
  // fails the checksum — before the decoder ever sees the hostile bytes.
  const std::string path = TempPath("corrupt_v2.ckpt");
  WriteFileRaw(path, image);
  auto lazy = io::CheckpointReader::FromFile(path);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  auto section = lazy.value().Section("s");
  ASSERT_FALSE(section.ok());
  EXPECT_NE(section.status().message().find("CRC"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointV2Test, DecompressedLengthMismatchRejected) {
  const std::string payload = CompressiblePayload();
  io::CheckpointWriter writer;
  writer.AddSection("s", payload);
  std::string image = writer.Encode();
  // Patch the uncompressed-length u64 (not covered by the payload CRC):
  // the stored bytes still decode cleanly, but to the wrong size.
  const uint64_t lie = payload.size() + 1;
  std::memcpy(image.data() + FirstCodecByteOffset("s") + 1, &lie, sizeof(lie));
  auto reader = io::CheckpointReader::FromBuffer(image);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto section = reader.value().Section("s");
  ASSERT_FALSE(section.ok());
  // The lie is caught either by the codec (decoded size != requested) or
  // by the reader's own post-decode length check — both surface as a
  // decode failure naming the section, never as silently-wrong bytes.
  EXPECT_NE(section.status().message().find("decode"), std::string::npos)
      << section.status().ToString();
  EXPECT_NE(section.status().message().find("s"), std::string::npos);
}

TEST(CheckpointV2Test, HandCraftedV1ContainerIsRejected) {
  // A format-version-1 container built byte by byte from the retired
  // layout: no codec byte, no uncompressed length, CRC over the payload
  // itself. Readers accept version 2 only.
  const std::string payload = IncompressiblePayload(257);
  io::Serializer v1;
  v1.WriteU64(io::kCheckpointMagic);
  v1.WriteU32(1);  // format version
  v1.WriteU32(1);  // section count
  v1.WriteString("blob");
  v1.WriteU64(payload.size());
  v1.WriteU32(io::Crc32(payload));
  v1.WriteRaw(payload);

  auto reader = io::CheckpointReader::FromBuffer(v1.Take());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = reader.status().message();
  EXPECT_NE(message.find("unsupported checkpoint format version 1"),
            std::string::npos)
      << message;
}

TEST(CheckpointV2Test, MmapAndBufferedReadersAgreeByteForByte) {
  // One compressible section (stored encoded) and one incompressible
  // section (the writer falls back to raw storage): the mmap reader and
  // the buffered reader must serve identical bytes for both, and the raw
  // section must be served zero-copy — a view into the mapped image.
  const std::string compressible = CompressiblePayload();
  const std::string incompressible = IncompressiblePayload(4096);
  io::CheckpointWriter writer;
  writer.AddSection("packed", compressible);
  writer.AddSection("raw", incompressible);
  const std::string path = TempPath("differential.ckpt");
  ASSERT_TRUE(writer.WriteToFile(path).ok());

  auto mapped = io::CheckpointReader::FromFile(path);
  auto buffered = io::CheckpointReader::FromFileBuffered(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  ASSERT_EQ(mapped.value().num_sections(), buffered.value().num_sections());
  for (const auto& info : mapped.value().Sections()) {
    EXPECT_EQ(mapped.value().Section(info.name).value(),
              buffered.value().Section(info.name).value())
        << info.name;
  }
  EXPECT_EQ(mapped.value().Section("packed").value(), compressible);
  EXPECT_EQ(mapped.value().Section("raw").value(), incompressible);

  // Zero-copy pin: the raw section's view aliases the container image.
  auto view = mapped.value().SectionView("raw");
  ASSERT_TRUE(view.ok());
  std::string_view image = mapped.value().image();
  EXPECT_GE(view.value().data(), image.data());
  EXPECT_LE(view.value().data() + view.value().size(),
            image.data() + image.size());
  std::remove(path.c_str());
}

TEST(CheckpointV2Test, WriteSectionFileCompressesByDefault) {
  const std::string payload = CompressiblePayload();
  const std::string path = TempPath("section_default.ckpt");
  ASSERT_TRUE(io::WriteSectionFile(path, "kind", payload).ok());
  EXPECT_LT(ReadFileRaw(path).size(), payload.size());
  EXPECT_EQ(io::ReadSectionFile(path, "kind").value(), payload);
  std::remove(path.c_str());
}

TEST(CheckpointV2Test, SectionFileCrcErrorIsNotMaskedAsKindMismatch) {
  const std::string path = TempPath("section_crc.ckpt");
  ASSERT_TRUE(io::WriteSectionFile(path, "kind", CompressiblePayload()).ok());
  std::string bytes = ReadFileRaw(path);
  bytes[bytes.size() - 2] ^= 0x08;
  WriteFileRaw(path, bytes);
  auto result = io::ReadSectionFile(path, "kind");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("CRC"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(result.status().message().find("kind mismatch"), std::string::npos);
  std::remove(path.c_str());
}

// A failed write must leave the last good checkpoint in place and no temp
// file behind. A directory where the writer expects a file makes the open
// (at <path>.tmp) or the rename (over <path>) fail, with no I/O seam.
TEST(CheckpointContainerTest, FailedOpenKeepsThePreviousCheckpoint) {
  const std::string path = TempPath("failed_open.ckpt");
  const std::string tmp = path + ".tmp";
  std::filesystem::remove_all(tmp);
  io::CheckpointWriter good;
  good.AddSection("s", CompressiblePayload());
  ASSERT_TRUE(good.WriteToFile(path).ok());
  const std::string before = ReadFileRaw(path);

  ASSERT_TRUE(std::filesystem::create_directory(tmp));
  io::CheckpointWriter next;
  next.AddSection("s", "a different payload");
  const Status status = next.WriteToFile(path);
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  EXPECT_TRUE(std::filesystem::is_empty(tmp)) << "stray temp file";
  EXPECT_EQ(ReadFileRaw(path), before);
  auto reader = io::CheckpointReader::FromFile(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value().Section("s").value(), CompressiblePayload());
  std::filesystem::remove_all(tmp);
  std::remove(path.c_str());
}

TEST(CheckpointContainerTest, FailedRenameLeavesNoTempFile) {
  const std::string path = TempPath("failed_rename.ckpt");
  std::filesystem::remove_all(path);
  ASSERT_TRUE(std::filesystem::create_directory(path));
  WriteFileRaw(path + "/occupant", "x");
  io::CheckpointWriter writer;
  writer.AddSection("s", CompressiblePayload());
  const Status status = writer.WriteToFile(path);
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << "stray temp file";
  EXPECT_TRUE(std::filesystem::is_directory(path));
  std::filesystem::remove_all(path);
}

// ---------------------------------------------------------------------------
// Model round trips: save → load must be bit-identical, and the restored
// RNG stream must continue exactly (so later updates reproduce cold runs).
// ---------------------------------------------------------------------------

TEST(ModelCheckpointTest, MdnRoundTripBitIdentical) {
  storage::Table base = SmallCensus();
  models::MdnConfig config;
  config.epochs = 3;
  models::Mdn model(base, "education", "hours_per_week", config);
  std::string path = TempPath("mdn.ckpt");
  ASSERT_TRUE(model.SaveToFile(path).ok());
  auto loaded = models::Mdn::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_TRUE(BitEqual(loaded.value()->AverageLoss(base),
                       model.AverageLoss(base)));
  for (int cat = 0; cat < 5; ++cat) {
    EXPECT_EQ(loaded.value()->frequency(cat), model.frequency(cat));
    for (double y : {5.0, 20.0, 40.0, 60.0}) {
      EXPECT_TRUE(BitEqual(loaded.value()->ConditionalDensity(cat, y),
                           model.ConditionalDensity(cat, y)));
    }
  }

  // The RNG stream continues identically: a post-load fine-tune reproduces
  // the live model's fine-tune bit for bit.
  model.FineTune(base, 1e-3, 1);
  loaded.value()->FineTune(base, 1e-3, 1);
  EXPECT_TRUE(BitEqual(loaded.value()->AverageLoss(base),
                       model.AverageLoss(base)));
  std::remove(path.c_str());
}

TEST(ModelCheckpointTest, DarnRoundTripBitIdentical) {
  storage::Table base = SmallCensus();
  models::DarnConfig config;
  config.epochs = 2;
  models::Darn model(base, config);
  std::string path = TempPath("darn.ckpt");
  ASSERT_TRUE(model.SaveToFile(path).ok());
  auto loaded = models::Darn::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded.value()->total_rows(), model.total_rows());
  EXPECT_TRUE(BitEqual(loaded.value()->AverageLoss(base),
                       model.AverageLoss(base)));
  Rng qrng(7);
  workload::NaruWorkloadConfig wconfig;
  wconfig.max_filters = 3;
  auto queries = workload::GenerateNonEmptyNaruQueries(base, wconfig, 10, qrng);
  for (const auto& q : queries) {
    // Progressive-sample streams are derived per query from (config seed,
    // query fingerprint), so a weight-identical reload answers identically
    // regardless of estimate call history on either model.
    EXPECT_TRUE(BitEqual(loaded.value()->EstimateCardinality(q),
                         model.EstimateCardinality(q)));
  }
  std::remove(path.c_str());
}

TEST(ModelCheckpointTest, TvaeRoundTripBitIdentical) {
  storage::Table base = SmallCensus();
  models::TvaeConfig config;
  config.epochs = 2;
  models::Tvae model(base, config);
  std::string path = TempPath("tvae.ckpt");
  ASSERT_TRUE(model.SaveToFile(path).ok());
  auto loaded = models::Tvae::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_TRUE(BitEqual(loaded.value()->Elbo(base), model.Elbo(base)));
  // Synthesis through an external RNG must match row for row.
  Rng ra(5), rb(5);
  storage::Table sa = model.Sample(50, ra);
  storage::Table sb = loaded.value()->Sample(50, rb);
  ASSERT_TRUE(sa.SchemaEquals(sb));
  for (int c = 0; c < sa.num_columns(); ++c) {
    for (int64_t r = 0; r < sa.num_rows(); ++r) {
      EXPECT_TRUE(BitEqual(sa.column(c).AsDouble(r), sb.column(c).AsDouble(r)));
    }
  }
  std::remove(path.c_str());
}

TEST(ModelCheckpointTest, SpnRoundTripBitIdentical) {
  storage::Table base = SmallCensus();
  models::Spn model(base, {});
  std::string path = TempPath("spn.ckpt");
  ASSERT_TRUE(model.SaveToFile(path).ok());
  auto loaded = models::Spn::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded.value()->NodeCount(), model.NodeCount());
  EXPECT_EQ(loaded.value()->total_rows(), model.total_rows());
  Rng qrng(9);
  workload::NaruWorkloadConfig wconfig;
  wconfig.max_filters = 3;
  auto queries = workload::GenerateNonEmptyNaruQueries(base, wconfig, 10, qrng);
  for (const auto& q : queries) {
    EXPECT_TRUE(BitEqual(loaded.value()->EstimateCardinality(q),
                         model.EstimateCardinality(q)));
  }
  // Incremental updates route identically through the restored structure.
  storage::Table more = datagen::CensusLike(100, 15);
  model.Update(more);
  loaded.value()->Update(more);
  EXPECT_EQ(loaded.value()->total_rows(), model.total_rows());
  for (const auto& q : queries) {
    EXPECT_TRUE(BitEqual(loaded.value()->EstimateCardinality(q),
                         model.EstimateCardinality(q)));
  }
  std::remove(path.c_str());
}

TEST(ModelCheckpointTest, GbdtRoundTripBitIdentical) {
  storage::Table base = SmallCensus();
  models::GbdtConfig config;
  config.num_rounds = 5;
  models::Gbdt model(config);
  model.Train(base, datagen::ClassColumnFor("census"));
  std::string path = TempPath("gbdt.ckpt");
  ASSERT_TRUE(model.SaveToFile(path).ok());
  auto loaded = models::Gbdt::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded.value()->num_classes(), model.num_classes());
  EXPECT_EQ(loaded.value()->Predict(base), model.Predict(base));
  EXPECT_TRUE(BitEqual(loaded.value()->MicroF1(base), model.MicroF1(base)));
  std::remove(path.c_str());
}

TEST(ModelCheckpointTest, WrongKindAndCorruptionRejected) {
  storage::Table base = SmallCensus();
  models::MdnConfig config;
  config.epochs = 1;
  models::Mdn model(base, "education", "hours_per_week", config);
  std::string path = TempPath("cross.ckpt");
  ASSERT_TRUE(model.SaveToFile(path).ok());

  // A DARN refuses an MDN checkpoint outright (kind tag mismatch).
  EXPECT_FALSE(models::Darn::LoadFromFile(path).ok());

  // A flipped payload byte is caught by the section CRC.
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -9, SEEK_END);
  int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0x10, f);
  std::fclose(f);
  auto corrupt = models::Mdn::LoadFromFile(path);
  EXPECT_FALSE(corrupt.ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Detector / controller snapshots
// ---------------------------------------------------------------------------

TEST(SnapshotResumeTest, DetectorResumesIdenticalDecisions) {
  storage::Table base = SmallCensus();
  models::MdnConfig mconfig;
  mconfig.epochs = 2;
  models::Mdn model(base, "education", "hours_per_week", mconfig);

  core::DetectorConfig dconfig;
  dconfig.bootstrap_iterations = 32;
  core::OodDetector detector(dconfig);
  detector.Fit(model, base);

  std::string path = TempPath("detector.ckpt");
  ASSERT_TRUE(detector.SaveToFile(path).ok());
  auto restored = core::OodDetector::LoadFromFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_TRUE(restored.value().fitted());
  EXPECT_TRUE(BitEqual(restored.value().bootstrap_mean(),
                       detector.bootstrap_mean()));
  EXPECT_TRUE(BitEqual(restored.value().bootstrap_std(),
                       detector.bootstrap_std()));

  // Test() samples through the detector RNG — a restored detector must issue
  // the same decision sequence as the live one.
  storage::Table batch = datagen::CensusLike(200, 21);
  for (int i = 0; i < 3; ++i) {
    auto a = detector.Test(model, batch);
    auto b = restored.value().Test(model, batch);
    EXPECT_TRUE(BitEqual(a.new_loss, b.new_loss));
    EXPECT_TRUE(BitEqual(a.statistic, b.statistic));
    EXPECT_EQ(a.is_ood, b.is_ood);
  }
  std::remove(path.c_str());
}

TEST(SnapshotResumeTest, ControllerResumesMidStream) {
  storage::Table base = SmallCensus();
  models::MdnConfig mconfig;
  mconfig.epochs = 2;
  // Two identical models via the checkpoint path itself.
  models::Mdn live(base, "education", "hours_per_week", mconfig);
  std::string model_path = TempPath("resume_model.ckpt");
  ASSERT_TRUE(live.SaveToFile(model_path).ok());
  auto twin = models::Mdn::LoadFromFile(model_path);
  ASSERT_TRUE(twin.ok());

  core::ControllerConfig cconfig;
  cconfig.detector.bootstrap_iterations = 16;
  cconfig.policy.distill.epochs = 1;
  cconfig.policy.finetune_epochs = 1;
  core::DdupController controller(&live, base, cconfig);

  std::string path = TempPath("controller.ckpt");
  ASSERT_TRUE(controller.SaveSnapshot(path).ok());
  auto resumed = core::DdupController::Resume(twin.value().get(), cconfig, path);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value()->data().num_rows(), base.num_rows());

  // The resumed loop handles the next insertion exactly like the live one:
  // same detector decision, same action, same post-update model state.
  storage::Table batch = datagen::CensusLike(150, 33);
  auto ra = controller.HandleInsertion(batch);
  auto rb = resumed.value()->HandleInsertion(batch);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_TRUE(BitEqual(ra.value().test.statistic, rb.value().test.statistic));
  EXPECT_EQ(ra.value().test.is_ood, rb.value().test.is_ood);
  EXPECT_EQ(ra.value().action, rb.value().action);
  EXPECT_TRUE(BitEqual(live.AverageLoss(base),
                       twin.value()->AverageLoss(base)));
  EXPECT_TRUE(BitEqual(controller.detector().bootstrap_mean(),
                       resumed.value()->detector().bootstrap_mean()));
  std::remove(model_path.c_str());
  std::remove(path.c_str());
}

TEST(SnapshotResumeTest, ResumeRejectsUnfittedSnapshot) {
  // A snapshot whose payload is valid container-wise but not resumable.
  core::OodDetector unfitted;
  io::Serializer state;
  state.WriteU32(2);  // controller state version
  state.WriteString("bootstrap");
  ASSERT_TRUE(unfitted.SaveState(&state).ok());
  Rng rng(1);
  state.WriteRng(rng);
  state.WriteTable(storage::Table("empty"));
  std::string path = TempPath("unfitted.ckpt");
  ASSERT_TRUE(io::WriteSectionFile(path, "controller", state.Take()).ok());

  storage::Table base = SmallCensus();
  models::MdnConfig mconfig;
  mconfig.epochs = 1;
  models::Mdn model(base, "education", "hours_per_week", mconfig);
  EXPECT_FALSE(core::DdupController::Resume(&model, {}, path).ok());
  std::remove(path.c_str());
}

TEST(SnapshotResumeTest, ResumeRejectsUnknownDetectorKind) {
  io::Serializer state;
  state.WriteU32(2);
  state.WriteString("not_a_detector");
  std::string path = TempPath("unknown_kind.ckpt");
  ASSERT_TRUE(io::WriteSectionFile(path, "controller", state.Take()).ok());

  storage::Table base = SmallCensus();
  models::MdnConfig mconfig;
  mconfig.epochs = 1;
  models::Mdn model(base, "education", "hours_per_week", mconfig);
  auto resumed = core::DdupController::Resume(&model, {}, path);
  ASSERT_FALSE(resumed.ok());
  EXPECT_NE(resumed.status().message().find("detector kind"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotResumeTest, SnapshotDetectorKindWinsOverResumeConfig) {
  // A controller built with a named zoo detector snapshots the kind (v2
  // format); Resume with a config that names a DIFFERENT kind must restore
  // the snapshot's detector — state bytes only make sense for the kind that
  // wrote them.
  storage::Table base = SmallCensus();
  models::MdnConfig mconfig;
  mconfig.epochs = 2;
  models::Mdn live(base, "education", "hours_per_week", mconfig);
  std::string model_path = TempPath("kind_model.ckpt");
  ASSERT_TRUE(live.SaveToFile(model_path).ok());
  auto twin = models::Mdn::LoadFromFile(model_path);
  ASSERT_TRUE(twin.ok());

  core::ControllerConfig cconfig;
  cconfig.detector.kind = "cusum";
  cconfig.detector.bootstrap_iterations = 16;
  cconfig.policy.distill.epochs = 1;
  cconfig.policy.finetune_epochs = 1;
  core::DdupController controller(&live, base, cconfig);
  EXPECT_STREQ(controller.detector().kind(), "cusum");

  std::string path = TempPath("kind_controller.ckpt");
  ASSERT_TRUE(controller.SaveSnapshot(path).ok());
  core::ControllerConfig other = cconfig;
  other.detector.kind = "bootstrap";
  auto resumed = core::DdupController::Resume(twin.value().get(), other, path);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_STREQ(resumed.value()->detector().kind(), "cusum");

  // And the restored CUSUM issues the same decision as the live one.
  storage::Table batch = datagen::CensusLike(150, 34);
  auto ra = controller.HandleInsertion(batch);
  auto rb = resumed.value()->HandleInsertion(batch);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_TRUE(BitEqual(ra.value().test.statistic, rb.value().test.statistic));
  EXPECT_EQ(ra.value().test.is_ood, rb.value().test.is_ood);
  EXPECT_EQ(ra.value().action, rb.value().action);
  std::remove(model_path.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ddup
