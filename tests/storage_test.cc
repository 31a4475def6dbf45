#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/random.h"
#include "storage/training_data.h"
#include "test_util.h"

namespace bellwether::storage {
namespace {

RegionTrainingSet MakeSet(int64_t region, int32_t n, int32_t p) {
  RegionTrainingSet set;
  set.region = region;
  set.num_features = p;
  for (int32_t i = 0; i < n; ++i) {
    set.items.push_back(i);
    set.targets.push_back(region * 100.0 + i);
    for (int32_t k = 0; k < p; ++k) {
      set.features.push_back(region + 0.25 * i + 0.01 * k);
    }
  }
  return set;
}

void ExpectSetsEqual(const RegionTrainingSet& a, const RegionTrainingSet& b) {
  EXPECT_EQ(a.region, b.region);
  EXPECT_EQ(a.num_features, b.num_features);
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.targets, b.targets);
  EXPECT_EQ(a.features, b.features);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

template <typename T>
void Patch(std::string* image, size_t at, T v) {
  std::memcpy(image->data() + at, &v, sizeof(v));
}

// Spill layout: the 8-byte magic, then records; a record header is region
// int64, num_features int32, count int64, has_weights uint8.
constexpr size_t kFirstRecordAt = 8;
constexpr size_t kRecordHeaderBytes = 21;

// Writes `sets` to a fresh spill file at `path` and returns its bytes.
std::string WriteSpill(const std::string& path,
                       const std::vector<RegionTrainingSet>& sets) {
  auto writer = SpillFileWriter::Create(path);
  EXPECT_TRUE(writer.ok());
  for (const auto& set : sets) EXPECT_TRUE((*writer)->Append(set).ok());
  EXPECT_TRUE((*writer)->Finish().ok());
  return ReadAll(path);
}

// Opens the spill file and reads every record; the first failure.
Status OpenAndReadAll(const std::string& path) {
  BW_ASSIGN_OR_RETURN(std::unique_ptr<SpilledTrainingData> src,
                      SpilledTrainingData::Open(path));
  for (size_t i = 0; i < src->num_region_sets(); ++i) {
    BW_RETURN_IF_ERROR(src->Read(i).status());
  }
  return Status::OK();
}

TEST(MemoryTrainingDataTest, ScanVisitsInOrderAndCountsIo) {
  std::vector<RegionTrainingSet> sets{MakeSet(3, 4, 2), MakeSet(7, 2, 2)};
  MemoryTrainingData src(sets);
  std::vector<int64_t> seen;
  ASSERT_TRUE(src.Scan([&](const RegionTrainingSet& s) {
                    seen.push_back(s.region);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(seen, (std::vector<int64_t>{3, 7}));
  EXPECT_EQ(src.io_stats().sequential_scans, 1);
  EXPECT_EQ(src.io_stats().region_reads, 2);
  EXPECT_GT(src.io_stats().bytes_read, 0);
}

TEST(MemoryTrainingDataTest, RandomReadAndBounds) {
  MemoryTrainingData src({MakeSet(1, 3, 2)});
  auto s = src.Read(0);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->region, 1);
  EXPECT_FALSE(src.Read(5).ok());
  EXPECT_EQ(src.RegionIds(), (std::vector<olap::RegionId>{1}));
}

TEST(SpillFileTest, WriteReadRoundTrip) {
  const std::string path = UniqueTempPath("spill_roundtrip.bin");
  std::vector<RegionTrainingSet> sets{MakeSet(0, 5, 3), MakeSet(2, 1, 3),
                                      MakeSet(9, 0, 3)};
  {
    auto writer = SpillFileWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    for (const auto& s : sets) ASSERT_TRUE((*writer)->Append(s).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto src = SpilledTrainingData::Open(path);
  ASSERT_TRUE(src.ok());
  EXPECT_EQ((*src)->num_region_sets(), 3u);
  EXPECT_EQ((*src)->RegionIds(), (std::vector<olap::RegionId>{0, 2, 9}));

  // Random reads.
  for (size_t i = 0; i < sets.size(); ++i) {
    auto s = (*src)->Read(i);
    ASSERT_TRUE(s.ok());
    ExpectSetsEqual(*s, sets[i]);
  }
  // Sequential scan.
  size_t idx = 0;
  ASSERT_TRUE((*src)
                  ->Scan([&](const RegionTrainingSet& s) {
                    ExpectSetsEqual(s, sets[idx++]);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(idx, 3u);
  EXPECT_EQ((*src)->io_stats().sequential_scans, 1);
  // 3 random reads + 3 scan reads.
  EXPECT_EQ((*src)->io_stats().region_reads, 6);
  std::remove(path.c_str());
}

TEST(SpillFileTest, EveryReadHitsTheFile) {
  // The paper's Fig. 11(a) setting: "each time they need the training data
  // from a region, they always read the data from disk" — repeated Read()
  // calls must not be cached.
  const std::string path = UniqueTempPath("spill_reread.bin");
  {
    auto writer = SpillFileWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeSet(1, 10, 2)).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto src = SpilledTrainingData::Open(path);
  ASSERT_TRUE(src.ok());
  const int64_t first_bytes = [&] {
    auto s = (*src)->Read(0);
    EXPECT_TRUE(s.ok());
    return (*src)->io_stats().bytes_read;
  }();
  auto again = (*src)->Read(0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*src)->io_stats().bytes_read, 2 * first_bytes);
  EXPECT_EQ((*src)->io_stats().region_reads, 2);
  std::remove(path.c_str());
}

TEST(SpillFileTest, OpenRejectsCorruptFile) {
  const std::string path = UniqueTempPath("spill_bad.bin");
  FILE* f = fopen(path.c_str(), "wb");
  fputs("not a spill file at all", f);
  fclose(f);
  EXPECT_FALSE(SpilledTrainingData::Open(path).ok());
  std::remove(path.c_str());
}

TEST(SpillFileTest, OpenRejectsMissingFile) {
  EXPECT_FALSE(SpilledTrainingData::Open("/nonexistent/x.bin").ok());
}

TEST(SpillFileTest, SimulatedLatencySlowsReads) {
  const std::string path = UniqueTempPath("spill_latency.bin");
  {
    auto writer = SpillFileWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeSet(1, 1, 1)).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto src = SpilledTrainingData::Open(path);
  ASSERT_TRUE(src.ok());
  (*src)->set_simulated_read_latency_micros(2000);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE((*src)->Read(0).ok());
  const auto elapsed = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_GE(elapsed, 1.5);
  std::remove(path.c_str());
}

TEST(SpillFileTest, NonPositiveWeightIsIoError) {
  const std::string path = UniqueTempPath("spill_weight.bin");
  RegionTrainingSet set = MakeSet(4, 3, 2);
  set.weights.assign(3, 1.5);
  const std::string content = WriteSpill(path, {set});
  ASSERT_TRUE(OpenAndReadAll(path).ok());
  const size_t first_weight =
      kFirstRecordAt + set.ByteSize() - 3 * sizeof(double);
  for (double bad : {0.0, -2.0, std::nan("")}) {
    SCOPED_TRACE("weight " + std::to_string(bad));
    std::string edited = content;
    Patch(&edited, first_weight, bad);
    WriteAll(path, edited);
    const Status st = OpenAndReadAll(path);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIoError);
  }
  std::remove(path.c_str());
}

TEST(SpillFileTest, OverflowingRecordHeaderIsIoError) {
  // An empty set's record is the bare header. 2^62 rows of arity 1 make
  // every array length a multiple of 2^64, so a length check computed in
  // wrapping 64-bit arithmetic would pass and the decode would size its
  // arrays from the count.
  const std::string path = UniqueTempPath("spill_overflow.bin");
  const std::string content = WriteSpill(path, {MakeSet(1, 0, 1)});
  std::string edited = content;
  Patch(&edited, kFirstRecordAt + 12, int64_t{1} << 62);
  WriteAll(path, edited);
  const Status st = OpenAndReadAll(path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(SpillFileTest, FooterCountBeyondTheFileIsIoError) {
  const std::string path = UniqueTempPath("spill_footer.bin");
  const std::string content =
      WriteSpill(path, {MakeSet(0, 2, 2), MakeSet(5, 3, 2)});
  for (int64_t count : {int64_t{1} << 40, int64_t{3}, int64_t{-1}}) {
    SCOPED_TRACE("count " + std::to_string(count));
    std::string edited = content;
    Patch(&edited, edited.size() - sizeof(int64_t), count);
    WriteAll(path, edited);
    auto src = SpilledTrainingData::Open(path);
    ASSERT_FALSE(src.ok());
    EXPECT_EQ(src.status().code(), StatusCode::kIoError);
  }
  std::remove(path.c_str());
}

TEST(SpillFileTest, IndexOffsetOutsideTheRecordsIsIoError) {
  const std::string path = UniqueTempPath("spill_index.bin");
  const std::string content =
      WriteSpill(path, {MakeSet(0, 2, 2), MakeSet(5, 3, 2)});
  int64_t index_offset = 0;
  std::memcpy(&index_offset, content.data() + content.size() - 16,
              sizeof(index_offset));
  // The second record's offset: far past the file, or before the first.
  for (int64_t offset : {int64_t{1} << 60, int64_t{-(int64_t{1} << 60)},
                         int64_t{4}}) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    std::string edited = content;
    Patch(&edited, static_cast<size_t>(index_offset) + sizeof(int64_t),
          offset);
    WriteAll(path, edited);
    auto src = SpilledTrainingData::Open(path);
    ASSERT_FALSE(src.ok());
    EXPECT_EQ(src.status().code(), StatusCode::kIoError);
  }
  std::remove(path.c_str());
}

TEST(SpillFileTest, FooterRegionIdMismatchIsIoError) {
  // RegionIds() answers from the footer, Scan from the records: a record
  // must carry the id the footer lists for it.
  const std::string path = UniqueTempPath("spill_ids.bin");
  std::string content = WriteSpill(path, {MakeSet(0, 2, 2), MakeSet(5, 3, 2)});
  Patch(&content, content.size() - 3 * sizeof(int64_t), int64_t{6});
  WriteAll(path, content);
  auto src = SpilledTrainingData::Open(path);
  ASSERT_TRUE(src.ok());
  EXPECT_EQ((*src)->RegionIds(), (std::vector<olap::RegionId>{0, 6}));
  EXPECT_TRUE((*src)->Read(0).ok());
  auto second = (*src)->Read(1);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

// Seeded mutation loop over a spill file. The case builds its own inputs:
// weighted and unweighted records of two arities, one empty. Every
// mutation must open and scan cleanly or fail with a status, never crash or
// over-allocate (the asan and ubsan presets give it teeth), and whatever
// decodes must be a well-formed set.
TEST(SpillMutationFuzzTest, EveryMutationScansOrFailsCleanly) {
  std::vector<RegionTrainingSet> sets{MakeSet(0, 6, 3), MakeSet(2, 0, 3),
                                      MakeSet(3, 4, 3), MakeSet(9, 5, 1)};
  sets[2].weights.assign(4, 0.75);
  const std::string path = UniqueTempPath("spill_fuzz.bin");
  const std::string base = WriteSpill(path, sets);
  Rng rng(77);
  int scanned = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    WriteAll(path, MutateBytes(base, rng));
    auto src = SpilledTrainingData::Open(path);
    if (!src.ok()) continue;
    const Status st = (*src)->Scan([](const RegionTrainingSet& set) {
      EXPECT_GE(set.num_features, 0);
      EXPECT_EQ(set.targets.size(), set.num_examples());
      EXPECT_EQ(set.features.size(),
                set.num_examples() * static_cast<size_t>(set.num_features));
      for (double w : set.weights) {
        EXPECT_TRUE(w > 0.0 && std::isfinite(w)) << w;
      }
      return Status::OK();
    });
    if (st.ok()) ++scanned;
  }
  EXPECT_GT(scanned, 0);
  std::remove(path.c_str());
}

TEST(RegionTrainingSetTest, ByteSizeTracksContent) {
  const RegionTrainingSet small = MakeSet(0, 1, 1);
  const RegionTrainingSet big = MakeSet(0, 100, 4);
  EXPECT_GT(big.ByteSize(), small.ByteSize());
}

}  // namespace
}  // namespace bellwether::storage
