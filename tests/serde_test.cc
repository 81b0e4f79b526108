// base/serde is the tree's only byte-reinterpretation layer, so this suite
// is adversarial by design: every header field, every checksum, every
// truncation point must turn into Status::kInvalidArgument — never UB, never
// a silently wrong decode. The ASan/UBSan CI job runs these same tests over
// hostile inputs.

#include "base/serde.h"

#include <gtest/gtest.h>

#include <dirent.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/faults.h"

namespace xicc {
namespace {

constexpr char kMagic[serde::kMagicSize] = {'T', 'E', 'S', 'T',
                                            'F', 'M', 'T', '1'};
constexpr uint32_t kVersion = 3;
constexpr uint64_t kKey = 0xfeedfacecafebeefULL;

struct Record {
  int32_t a;
  int32_t b;
};

std::string BuildContainer() {
  serde::Writer w(kMagic, kVersion, kKey);
  w.BeginSection(1);
  w.U8(7);
  w.U32(0xdeadbeef);
  w.U64(1ULL << 40);
  w.I64(-5);
  w.F64(2.5);
  w.Bool(true);
  w.Str("hello, artifact");
  w.EndSection();
  w.BeginSection(2);
  const std::vector<Record> records = {{1, -2}, {3, -4}, {5, -6}};
  w.FlatArray(records.data(), records.size());
  w.EndSection();
  return std::move(w).Finish();
}

TEST(SerdeTest, RoundTripScalarsAndFlatArrays) {
  const std::string bytes = BuildContainer();
  auto reader = serde::Reader::Open(bytes, kMagic, kVersion);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->content_key(), kKey);
  EXPECT_TRUE(reader->HasSection(1));
  EXPECT_TRUE(reader->HasSection(2));
  EXPECT_FALSE(reader->HasSection(3));

  auto c1 = reader->Section(1, "scalars");
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(c1->U8(), 7);
  EXPECT_EQ(c1->U32(), 0xdeadbeefu);
  EXPECT_EQ(c1->U64(), 1ULL << 40);
  EXPECT_EQ(c1->I64(), -5);
  EXPECT_EQ(c1->F64(), 2.5);
  EXPECT_TRUE(c1->Bool());
  EXPECT_EQ(c1->Str(), "hello, artifact");
  EXPECT_TRUE(c1->Finish().ok()) << c1->Finish();

  auto c2 = reader->Section(2, "records");
  ASSERT_TRUE(c2.ok());
  size_t count = 0;
  const Record* records = c2->FlatArray<Record>(&count, 3);
  ASSERT_NE(records, nullptr) << c2->status();
  ASSERT_EQ(count, 3u);
  EXPECT_EQ(records[1].a, 3);
  EXPECT_EQ(records[2].b, -6);
  EXPECT_TRUE(c2->Finish().ok());
}

TEST(SerdeTest, FlatArrayCountMismatchFails) {
  const std::string bytes = BuildContainer();
  auto reader = serde::Reader::Open(bytes, kMagic, kVersion);
  ASSERT_TRUE(reader.ok());
  auto cursor = reader->Section(2, "records");
  ASSERT_TRUE(cursor.ok());
  size_t count = 0;
  EXPECT_EQ(cursor->FlatArray<Record>(&count, 4), nullptr);
  EXPECT_EQ(cursor->status().code(), StatusCode::kInvalidArgument);
}

TEST(SerdeTest, CursorIsStickyAndNeverReadsOutOfBounds) {
  serde::Cursor cursor(std::string_view("\x01\x02", 2), "tiny");
  EXPECT_EQ(cursor.U8(), 1);
  // This read overruns; it and everything after must return defaults.
  EXPECT_EQ(cursor.U32(), 0u);
  EXPECT_EQ(cursor.U64(), 0u);
  EXPECT_EQ(cursor.Str(), "");
  size_t count = 77;
  EXPECT_EQ(cursor.FlatArray<Record>(&count), nullptr);
  EXPECT_EQ(count, 0u);
  EXPECT_EQ(cursor.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(cursor.Finish().ok());
}

TEST(SerdeTest, FinishRejectsUnconsumedBytes) {
  const std::string bytes = BuildContainer();
  auto reader = serde::Reader::Open(bytes, kMagic, kVersion);
  ASSERT_TRUE(reader.ok());
  auto cursor = reader->Section(1, "scalars");
  ASSERT_TRUE(cursor.ok());
  cursor->U8();  // Leave the rest of the section unread.
  EXPECT_FALSE(cursor->Finish().ok());
}

TEST(SerdeTest, EveryTruncationIsRejected) {
  const std::string bytes = BuildContainer();
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto reader =
        serde::Reader::Open(std::string_view(bytes.data(), len), kMagic,
                            kVersion);
    ASSERT_FALSE(reader.ok()) << "prefix of " << len << " bytes accepted";
    EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SerdeTest, EveryBitFlipIsRejected) {
  const std::string bytes = BuildContainer();
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      auto reader = serde::Reader::Open(mutated, kMagic, kVersion);
      // Every byte of the container — header, table, payload, padding — is
      // covered by a checksum, so every flip must be caught at Open.
      ASSERT_FALSE(reader.ok())
          << "undetected flip at byte " << i << " bit " << bit;
      EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(SerdeTest, VersionMismatchIsSpecific) {
  const std::string bytes = BuildContainer();
  auto reader = serde::Reader::Open(bytes, kMagic, kVersion + 1);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("version"), std::string::npos)
      << reader.status();
}

TEST(SerdeTest, ForeignEndianHeaderIsSpecific) {
  std::string bytes = BuildContainer();
  // A foreign-endian writer would have laid the sentinel down byte-reversed.
  std::swap(bytes[8], bytes[11]);
  std::swap(bytes[9], bytes[10]);
  auto reader = serde::Reader::Open(bytes, kMagic, kVersion);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("foreign-endian"),
            std::string::npos)
      << reader.status();
}

TEST(SerdeTest, MagicMismatchIsRejected) {
  const std::string bytes = BuildContainer();
  constexpr char kOther[serde::kMagicSize] = {'O', 'T', 'H', 'E',
                                              'R', 'F', 'M', 'T'};
  auto reader = serde::Reader::Open(bytes, kOther, kVersion);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerdeTest, MissingSectionIsRejected) {
  const std::string bytes = BuildContainer();
  auto reader = serde::Reader::Open(bytes, kMagic, kVersion);
  ASSERT_TRUE(reader.ok());
  auto cursor = reader->Section(42, "ghost");
  ASSERT_FALSE(cursor.ok());
  EXPECT_EQ(cursor.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerdeTest, FileRoundTripAtomicAndMapped) {
  const std::string bytes = BuildContainer();
  const std::string path = testing::TempDir() + "serde_test_container.bin";
  ASSERT_TRUE(serde::WriteFileAtomic(path, bytes).ok());

  auto read_back = serde::ReadFileToString(path);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, bytes);

  auto mapped = serde::MappedFile::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(mapped->view(), std::string_view(bytes));
  auto reader = serde::Reader::Open(mapped->view(), kMagic, kVersion);
  EXPECT_TRUE(reader.ok()) << reader.status();

  // Overwrite through the atomic path while the old mapping is live; the
  // mapping must keep showing the old bytes (rename never tears).
  serde::Writer w(kMagic, kVersion, 1);
  w.BeginSection(9);
  w.U8(1);
  w.EndSection();
  ASSERT_TRUE(serde::WriteFileAtomic(path, std::move(w).Finish()).ok());
  EXPECT_EQ(mapped->view(), std::string_view(bytes));
}

TEST(SerdeTest, WriteFileAtomicUnwritableDestinationIsUnavailable) {
  // An unwritable destination is an environmental condition, not a bad
  // input: kUnavailable, so callers (the artifact cache) degrade to the
  // memory tier instead of treating the write as a caller bug.
  const Status status = serde::WriteFileAtomic(
      testing::TempDir() + "serde_no_such_dir/nested/artifact.bin", "abc");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

#if XICC_FAULTS_ENABLED

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  return names;
}

TEST(SerdeTest, WriteFileAtomicFaultCleansUpTempAndPreservesOldFile) {
  std::string pattern = testing::TempDir() + "serde_fault.XXXXXX";
  const char* made = ::mkdtemp(pattern.data());
  ASSERT_NE(made, nullptr);
  const std::string dir = pattern;
  const std::string path = dir + "/artifact.bin";

  // A good artifact lands first.
  ASSERT_TRUE(serde::WriteFileAtomic(path, "generation-1").ok());

  // Every probe fires: the next write hits the simulated ENOSPC.
  faults::FaultConfig config;
  config.file_write_error_every = 1;
  faults::SetConfig(config);
  const Status faulted = serde::WriteFileAtomic(path, "generation-2");
  faults::SetConfig(faults::FaultConfig{});

  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.code(), StatusCode::kUnavailable);
  // The failed write left no temp file behind and never touched the old
  // artifact — the whole point of the atomic protocol.
  const std::vector<std::string> names = ListDir(dir);
  ASSERT_EQ(names.size(), 1u) << "leftover temp file after faulted write";
  EXPECT_EQ(names[0], "artifact.bin");
  auto read_back = serde::ReadFileToString(path);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, "generation-1");

  // With the fault gone the same write goes through.
  ASSERT_TRUE(serde::WriteFileAtomic(path, "generation-2").ok());
  EXPECT_EQ(*serde::ReadFileToString(path), "generation-2");
}

#endif  // XICC_FAULTS_ENABLED

TEST(SerdeTest, MapMissingFileFails) {
  auto mapped = serde::MappedFile::Map(testing::TempDir() +
                                       "serde_test_does_not_exist.bin");
  EXPECT_FALSE(mapped.ok());
}

TEST(SerdeTest, Fnv1a64MatchesReferenceVectors) {
  // Reference values for the canonical FNV-1a 64 test strings.
  EXPECT_EQ(serde::Fnv1a64("", 0), serde::kFnvOffsetBasis);
  EXPECT_EQ(serde::Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(serde::Fnv1a64("foobar", 6), 0x85944171f73967e8ULL);
}

TEST(SerdeTest, SectionDigestDetectsEveryBitFlip) {
  // Sizes straddling the 64-byte block boundary and the tail path.
  for (size_t size : {0u, 1u, 63u, 64u, 65u, 200u}) {
    std::string bytes(size, '\0');
    for (size_t i = 0; i < size; ++i) bytes[i] = static_cast<char>(i * 37 + 5);
    const uint64_t base = serde::SectionDigest(bytes);
    EXPECT_EQ(serde::SectionDigest(bytes), base) << "nondeterministic";
    for (size_t i = 0; i < size; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = bytes;
        mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
        EXPECT_NE(serde::SectionDigest(mutated), base)
            << "undetected flip at byte " << i << " bit " << bit
            << " size " << size;
      }
    }
  }
}

TEST(SerdeTest, SectionDigestSeparatesLengthExtensions) {
  // Payloads differing only in trailing zeros must not collide: the length
  // is folded into the digest.
  const std::string a(64, '\0');
  const std::string b(65, '\0');
  const std::string c(128, '\0');
  EXPECT_NE(serde::SectionDigest(a), serde::SectionDigest(b));
  EXPECT_NE(serde::SectionDigest(a), serde::SectionDigest(c));
  EXPECT_NE(serde::SectionDigest(b), serde::SectionDigest(c));
  // Distinct domain from byte-wise FNV-1a.
  EXPECT_NE(serde::SectionDigest("foobar"), serde::Fnv1a64("foobar", 6));
}

}  // namespace
}  // namespace xicc
