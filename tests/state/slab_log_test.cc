// SlabLog: CRC-framed append/read round-trips, torn-tail recovery (the
// SIGKILL-mid-append case), corrupt-record rejection, and the
// meta..commit group scan the checkpoint layer builds on.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "state/slab_log.h"
#include "util/file_io.h"

namespace fedadmm {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<float> Ramp(int n, float base) {
  std::vector<float> v(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<size_t>(i)] = base + i;
  return v;
}

TEST(SlabLogTest, AppendReadRoundTrip) {
  const std::string path = TempPath("slab_roundtrip.log");
  auto log = SlabLog::Open(path, /*truncate=*/true).ValueOrDie();

  const std::vector<float> slab = Ramp(7, 0.5f);
  const int64_t offset =
      log->AppendFloats(SlabLog::RecordType::kSlab, 3, 1, slab)
          .ValueOrDie();

  SlabLog::Record record;
  ASSERT_TRUE(log->ReadAt(offset, &record).ok());
  EXPECT_EQ(record.type, SlabLog::RecordType::kSlab);
  EXPECT_EQ(record.client, 3);
  EXPECT_EQ(record.slot, 1);
  EXPECT_EQ(record.payload.size(), slab.size() * sizeof(float));

  std::vector<float> decoded(slab.size());
  ASSERT_TRUE(log->ReadFloatsAt(offset, decoded).ok());
  EXPECT_EQ(decoded, slab);
}

TEST(SlabLogTest, ScanVisitsRecordsInFileOrder) {
  const std::string path = TempPath("slab_scan.log");
  auto log = SlabLog::Open(path, /*truncate=*/true).ValueOrDie();
  ASSERT_TRUE(
      log->Append(SlabLog::RecordType::kMeta, 0, 0, 42, {}).ok());
  ASSERT_TRUE(
      log->AppendFloats(SlabLog::RecordType::kSlab, 1, 0, Ramp(3, 1.0f))
          .ok());
  ASSERT_TRUE(
      log->Append(SlabLog::RecordType::kCommit, 0, 0, 42, {}).ok());

  std::vector<SlabLog::RecordType> types;
  std::vector<int64_t> values;
  const int64_t end = log->Scan([&](const SlabLog::Record& r) {
                           types.push_back(r.type);
                           values.push_back(r.value);
                         })
                          .ValueOrDie();
  EXPECT_EQ(end, log->end_offset());
  ASSERT_EQ(types.size(), 3u);
  EXPECT_EQ(types[0], SlabLog::RecordType::kMeta);
  EXPECT_EQ(types[1], SlabLog::RecordType::kSlab);
  EXPECT_EQ(types[2], SlabLog::RecordType::kCommit);
  EXPECT_EQ(values[0], 42);
  EXPECT_EQ(values[2], 42);
}

TEST(SlabLogTest, TornTailIsCutOnReopen) {
  const std::string path = TempPath("slab_torn.log");
  int64_t intact_end = 0;
  {
    auto log = SlabLog::Open(path, /*truncate=*/true).ValueOrDie();
    ASSERT_TRUE(
        log->AppendFloats(SlabLog::RecordType::kSlab, 0, 0, Ramp(5, 2.0f))
            .ok());
    intact_end = log->end_offset();
    ASSERT_TRUE(log->Sync().ok());
  }
  // Simulate a SIGKILL mid-append: garbage half-record past the tail.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "SLBG\x01torn-half-record";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  auto reopened = SlabLog::Open(path, /*truncate=*/false).ValueOrDie();
  // The valid prefix survives; the torn tail is gone and appends resume.
  EXPECT_EQ(reopened->end_offset(), intact_end);
  int visited = 0;
  ASSERT_TRUE(reopened->Scan([&](const SlabLog::Record&) { ++visited; }).ok());
  EXPECT_EQ(visited, 1);
  ASSERT_TRUE(
      reopened->AppendFloats(SlabLog::RecordType::kSlab, 1, 0, Ramp(5, 3.0f))
          .ok());
  EXPECT_GT(reopened->end_offset(), intact_end);
}

TEST(SlabLogTest, CorruptPayloadStopsScanAndFailsReadAt) {
  const std::string path = TempPath("slab_corrupt.log");
  int64_t first_end = 0;
  int64_t second_offset = 0;
  {
    auto log = SlabLog::Open(path, /*truncate=*/true).ValueOrDie();
    ASSERT_TRUE(
        log->AppendFloats(SlabLog::RecordType::kSlab, 0, 0, Ramp(4, 1.0f))
            .ok());
    first_end = log->end_offset();
    second_offset =
        log->AppendFloats(SlabLog::RecordType::kSlab, 1, 0, Ramp(4, 9.0f))
            .ValueOrDie();
    ASSERT_TRUE(log->Sync().ok());
  }
  // Flip one payload byte of the second record (its last byte on disk).
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    const int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  auto log = SlabLog::Open(path, /*truncate=*/false).ValueOrDie();
  // Scan keeps the valid prefix only — the corrupt record is dropped, so
  // the reopened log resumes right after record one.
  EXPECT_EQ(log->end_offset(), first_end);
  std::vector<float> decoded(4);
  EXPECT_FALSE(log->ReadFloatsAt(second_offset, decoded).ok());
}

TEST(SlabLogTest, CorruptHeaderRejectsRecord) {
  const std::string path = TempPath("slab_header.log");
  int64_t offset = 0;
  {
    auto log = SlabLog::Open(path, /*truncate=*/true).ValueOrDie();
    offset =
        log->AppendFloats(SlabLog::RecordType::kSlab, 2, 0, Ramp(4, 1.0f))
            .ValueOrDie();
    ASSERT_TRUE(log->Sync().ok());
  }
  // Flip a client-id byte inside the header: the header CRC must catch it.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset) + 5, SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset) + 5, SEEK_SET), 0);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  auto log = SlabLog::Open(path, /*truncate=*/false).ValueOrDie();
  EXPECT_EQ(log->end_offset(), 0);
  SlabLog::Record record;
  EXPECT_FALSE(log->ReadAt(offset, &record).ok());
}

TEST(SlabLogTest, RecordHeaderBytesArePinned) {
  // The record header is an on-disk contract: a log (and so a checkpoint)
  // written by an older build must parse byte for byte. magic, type,
  // client, slot, value, payload length, payload CRC, header CRC — all
  // little-endian — then the payload itself.
  const std::string path = TempPath("slab_header_bytes.log");
  const std::vector<uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  {
    auto log = SlabLog::Open(path, /*truncate=*/true).ValueOrDie();
    ASSERT_EQ(log->Append(SlabLog::RecordType::kMeta, 0x01020304, 7,
                          /*value=*/-2, payload)
                  .ValueOrDie(),
              0);
  }
  std::vector<uint8_t> bytes(64);
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
    std::fclose(f);
  }
  const std::vector<uint8_t> expected = {
      0x53, 0x4C, 0x42, 0x47,                          // magic 'SLBG'
      0x02,                                            // type kMeta
      0x04, 0x03, 0x02, 0x01,                          // client
      0x07, 0x00, 0x00, 0x00,                          // slot
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // value -2
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload length
      0x52, 0xFB, 0xC7, 0x2E,                          // payload CRC-32
      0x92, 0xA5, 0x66, 0x1D,                          // header CRC-32
      0xDE, 0xAD, 0xBE, 0xEF, 0x01,                    // payload
  };
  EXPECT_EQ(bytes, expected);
  RemoveFileIfExists(path);
}

}  // namespace
}  // namespace fedadmm
