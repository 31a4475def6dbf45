#include "storage/training_data.h"

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"

namespace bellwether::storage {

namespace {

static_assert(std::endian::native == std::endian::little,
              "spill and state files hold raw little-endian values");

constexpr uint64_t kMagic = 0x42574C5350494C31ULL;  // "BWLSPIL1"

// Spill footer: index_offset and count, both int64.
constexpr int64_t kFooterBytes = 2 * sizeof(int64_t);

// Registry counters mirrored alongside the per-source IoStats; resolved
// once and cached (registry pointers are stable).
struct StorageMetrics {
  obs::Counter* scans;
  obs::Counter* reads;
  obs::Counter* rows;
  obs::Counter* bytes;
};

const StorageMetrics& Metrics() {
  static const StorageMetrics m{
      obs::DefaultMetrics().GetCounter(obs::kMStorageScans),
      obs::DefaultMetrics().GetCounter(obs::kMStorageRegionReads),
      obs::DefaultMetrics().GetCounter(obs::kMStorageRowsScanned),
      obs::DefaultMetrics().GetCounter(obs::kMStorageBytesRead)};
  return m;
}

// Empty arrays may have a null data(), which fwrite/fread must not see.
Status WriteRaw(std::FILE* f, const void* data, size_t bytes) {
  if (bytes > 0 && std::fwrite(data, 1, bytes, f) != bytes) {
    return Status::IoError(std::string("spill write failed: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status ReadRaw(std::FILE* f, void* data, size_t bytes) {
  if (bytes > 0 && std::fread(data, 1, bytes, f) != bytes) {
    return Status::IoError("spill read failed (truncated file?)");
  }
  return Status::OK();
}

class FileSink final : public ByteSink {
 public:
  explicit FileSink(std::FILE* f) : f_(f) {}
  Status Write(const void* data, size_t bytes) override {
    return WriteRaw(f_, data, bytes);
  }

 private:
  std::FILE* f_;
};

class MemorySource final : public ByteSource {
 public:
  MemorySource(const unsigned char* data, size_t size)
      : p_(data), end_(data + size) {}
  Status Read(void* data, size_t bytes) override {
    if (bytes > static_cast<size_t>(end_ - p_)) {
      return Status::IoError("truncated region record");
    }
    if (bytes > 0) std::memcpy(data, p_, bytes);
    p_ += bytes;
    return Status::OK();
  }
  uint64_t remaining() const override { return end_ - p_; }

 private:
  const unsigned char* p_;
  const unsigned char* end_;
};

template <typename T>
Status ReadPod(std::FILE* f, T* v) {
  return ReadRaw(f, v, sizeof(T));
}

// Models the device wait as blocked time, not CPU time: a real disk read
// parks the thread off-CPU, so a spin loop here would both distort CPU
// profiles (ITIMER_PROF samples the spin, not the kernels) and steal cores
// from compute threads in the parallel-scaling benchmarks. Absolute
// deadline so EINTR retries do not accumulate drift.
void SimulatedDeviceWaitMicros(int64_t micros) {
  if (micros <= 0) return;
  timespec deadline;
  clock_gettime(CLOCK_MONOTONIC, &deadline);
  deadline.tv_sec += micros / 1000000;
  deadline.tv_nsec += (micros % 1000000) * 1000;
  if (deadline.tv_nsec >= 1000000000L) {
    deadline.tv_nsec -= 1000000000L;
    ++deadline.tv_sec;
  }
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &deadline,
                         nullptr) == EINTR) {
  }
}

}  // namespace

size_t RegionTrainingSet::ByteSize() const {
  // Exactly the serialized region-record size (header: region int64,
  // num_features int32, count int64, has_weights uint8 — then the items,
  // features, targets, and optional weights arrays). BudgetedSink's memory
  // budget and the IoStats byte counters both rely on this matching what
  // WriteRegionRecord actually writes.
  constexpr size_t kHeaderBytes =
      sizeof(int64_t) + sizeof(int32_t) + sizeof(int64_t) + sizeof(uint8_t);
  return kHeaderBytes + items.size() * sizeof(int32_t) +
         features.size() * sizeof(double) + targets.size() * sizeof(double) +
         weights.size() * sizeof(double);
}

Status WriteRegionRecord(const RegionTrainingSet& set, ByteSink* out) {
  BW_CHECK(set.targets.size() == set.items.size());
  BW_CHECK(set.features.size() ==
           set.items.size() * static_cast<size_t>(set.num_features));
  BW_CHECK(set.weights.empty() || set.weights.size() == set.items.size());
  BW_RETURN_IF_ERROR(out->Put(static_cast<int64_t>(set.region)));
  BW_RETURN_IF_ERROR(out->Put(set.num_features));
  BW_RETURN_IF_ERROR(out->Put(static_cast<int64_t>(set.items.size())));
  BW_RETURN_IF_ERROR(out->Put(static_cast<uint8_t>(set.weighted())));
  BW_RETURN_IF_ERROR(
      out->Write(set.items.data(), set.items.size() * sizeof(int32_t)));
  BW_RETURN_IF_ERROR(
      out->Write(set.features.data(), set.features.size() * sizeof(double)));
  BW_RETURN_IF_ERROR(
      out->Write(set.targets.data(), set.targets.size() * sizeof(double)));
  return out->Write(set.weights.data(), set.weights.size() * sizeof(double));
}

Status ReadRegionRecord(ByteSource* in, RegionTrainingSet* out) {
  int64_t n = 0;
  uint8_t has_weights = 0;
  BW_RETURN_IF_ERROR(in->Get(&out->region));
  BW_RETURN_IF_ERROR(in->Get(&out->num_features));
  BW_RETURN_IF_ERROR(in->Get(&n));
  BW_RETURN_IF_ERROR(in->Get(&has_weights));
  if (n < 0 || out->num_features < 0 || has_weights > 1) {
    return Status::IoError("corrupt region record header");
  }
  // Each field is bounded before any product: a row is at most
  // 4 + 8 * (2^31 + 1) bytes, so neither this nor the division overflows.
  const uint64_t row_bytes =
      sizeof(int32_t) + (static_cast<uint64_t>(out->num_features) + 1 +
                         has_weights) * sizeof(double);
  if (static_cast<uint64_t>(n) > in->remaining() / row_bytes) {
    return Status::IoError("region record longer than its file");
  }
  const size_t rows = static_cast<size_t>(n);
  out->items.resize(rows);
  out->features.resize(rows * static_cast<size_t>(out->num_features));
  out->targets.resize(rows);
  out->weights.resize(has_weights ? rows : 0);
  BW_RETURN_IF_ERROR(
      in->Read(out->items.data(), out->items.size() * sizeof(int32_t)));
  BW_RETURN_IF_ERROR(
      in->Read(out->features.data(), out->features.size() * sizeof(double)));
  BW_RETURN_IF_ERROR(
      in->Read(out->targets.data(), out->targets.size() * sizeof(double)));
  BW_RETURN_IF_ERROR(
      in->Read(out->weights.data(), out->weights.size() * sizeof(double)));
  for (double w : out->weights) {
    if (!ValidRowWeight(w)) {
      return Status::IoError(
          "region record row weight not positive and finite");
    }
  }
  return Status::OK();
}

MemoryTrainingData::MemoryTrainingData(std::vector<RegionTrainingSet> sets)
    : sets_(std::move(sets)) {}

Status MemoryTrainingData::Scan(
    const std::function<Status(const RegionTrainingSet&)>& fn) {
  obs::TraceSpan span("MemoryTrainingData::Scan", "storage");
  ++io_stats_.sequential_scans;
  Metrics().scans->Increment();
  for (const auto& s : sets_) {
    BW_RETURN_IF_ERROR(robust::MaybeInjectIo(robust::kFaultStorageScan));
    ++io_stats_.region_reads;
    io_stats_.bytes_read += static_cast<int64_t>(s.ByteSize());
    Metrics().reads->Increment();
    Metrics().rows->Increment(static_cast<int64_t>(s.num_examples()));
    Metrics().bytes->Increment(static_cast<int64_t>(s.ByteSize()));
    BW_RETURN_IF_ERROR(fn(s));
  }
  return Status::OK();
}

Result<RegionTrainingSet> MemoryTrainingData::Read(size_t index) {
  if (index >= sets_.size()) {
    return Status::OutOfRange("region set index out of range");
  }
  // The copy below is intentional: Read() models the paper's "read the
  // training data of one region from storage" random access, so callers own
  // (and may mutate) the returned set while sets_ stays canonical. In-place
  // iteration goes through Scan().
  BW_RETURN_IF_ERROR(robust::MaybeInjectIo(robust::kFaultStorageRead));
  ++io_stats_.region_reads;
  io_stats_.bytes_read += static_cast<int64_t>(sets_[index].ByteSize());
  Metrics().reads->Increment();
  Metrics().rows->Increment(
      static_cast<int64_t>(sets_[index].num_examples()));
  Metrics().bytes->Increment(static_cast<int64_t>(sets_[index].ByteSize()));
  return sets_[index];
}

std::vector<olap::RegionId> MemoryTrainingData::RegionIds() {
  std::vector<olap::RegionId> out;
  out.reserve(sets_.size());
  for (const auto& s : sets_) out.push_back(s.region);
  return out;
}

Result<std::unique_ptr<SpillFileWriter>> SpillFileWriter::Create(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create spill file " + path + ": " +
                           std::strerror(errno));
  }
  auto writer = std::unique_ptr<SpillFileWriter>(
      new SpillFileWriter(path, f));
  BW_RETURN_IF_ERROR(FileSink(f).Put(kMagic));
  return writer;
}

SpillFileWriter::~SpillFileWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SpillFileWriter::Append(const RegionTrainingSet& set) {
  // Injected write failure, before any bytes land: sinks must release the
  // set's buffers to the arena on this path like on the success path.
  BW_RETURN_IF_ERROR(robust::MaybeInjectIo(robust::kFaultStorageSpill));
  BW_CHECK(!finished_);
  offsets_.push_back(std::ftell(file_));
  region_ids_.push_back(set.region);
  FileSink sink(file_);
  return WriteRegionRecord(set, &sink);
}

Status SpillFileWriter::Finish() {
  BW_CHECK(!finished_);
  finished_ = true;
  const int64_t index_offset = std::ftell(file_);
  const int64_t count = static_cast<int64_t>(offsets_.size());
  BW_RETURN_IF_ERROR(WriteRaw(file_, offsets_.data(),
                              offsets_.size() * sizeof(int64_t)));
  BW_RETURN_IF_ERROR(WriteRaw(file_, region_ids_.data(),
                              region_ids_.size() * sizeof(int64_t)));
  FileSink sink(file_);
  BW_RETURN_IF_ERROR(sink.Put(index_offset));
  BW_RETURN_IF_ERROR(sink.Put(count));
  if (std::fflush(file_) != 0) return Status::IoError("spill flush failed");
  std::fclose(file_);
  file_ = nullptr;
  return Status::OK();
}

Result<std::unique_ptr<SpilledTrainingData>> SpilledTrainingData::Open(
    const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  std::FILE* f = file.get();
  if (f == nullptr) {
    return Status::IoError("cannot open spill file " + path + ": " +
                           std::strerror(errno));
  }
  uint64_t magic = 0;
  if (!ReadPod(f, &magic).ok() || magic != kMagic) {
    return Status::IoError("bad spill file magic: " + path);
  }
  // Footer: [offsets][region_ids][index_offset][count].
  int64_t file_size = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) file_size = std::ftell(f);
  int64_t index_offset = 0;
  int64_t count = 0;
  if (file_size < static_cast<int64_t>(sizeof(kMagic)) + kFooterBytes ||
      std::fseek(f, file_size - kFooterBytes, SEEK_SET) != 0 ||
      !ReadPod(f, &index_offset).ok() || !ReadPod(f, &count).ok()) {
    return Status::IoError("cannot read spill footer: " + path);
  }
  // The index (an offset and a region id per record) must fill the file up
  // to the footer. Each field is bounded first, so the sum cannot overflow.
  if (count < 0 || count > file_size / 16 ||
      index_offset < static_cast<int64_t>(sizeof(kMagic)) ||
      index_offset > file_size ||
      index_offset + 16 * count + kFooterBytes != file_size) {
    return Status::IoError("corrupt spill footer: " + path);
  }
  std::vector<int64_t> offsets(count);
  std::vector<int64_t> region_ids(count);
  if (std::fseek(f, static_cast<long>(index_offset), SEEK_SET) != 0 ||
      !ReadRaw(f, offsets.data(), offsets.size() * sizeof(int64_t)).ok() ||
      !ReadRaw(f, region_ids.data(), region_ids.size() * sizeof(int64_t))
           .ok()) {
    return Status::IoError("cannot read spill index: " + path);
  }
  // Offsets ascend between the magic and the index, so no record length
  // RecordEnd(i) - offsets[i] is negative or longer than the file.
  int64_t prev = static_cast<int64_t>(sizeof(kMagic));
  for (int64_t offset : offsets) {
    if (offset < prev || offset > index_offset) {
      return Status::IoError("corrupt spill index: " + path);
    }
    prev = offset;
  }
  return std::unique_ptr<SpilledTrainingData>(
      new SpilledTrainingData(path, file.release(), std::move(offsets),
                              std::move(region_ids), index_offset));
}

SpilledTrainingData::~SpilledTrainingData() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SpilledTrainingData::ReadRecord(size_t index, RegionTrainingSet* out) {
  // One seek + one read for the whole record (the footer index gives its
  // extent), parsed from the reusable buffer — instead of seven small freads
  // per record, which dominated the spill-scan profile.
  const int64_t offset = offsets_[index];
  const size_t length = static_cast<size_t>(RecordEnd(index) - offset);
  if (read_buffer_.size() < length) read_buffer_.resize(length);
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return Status::IoError("seek failed in spill file");
  }
  BW_RETURN_IF_ERROR(ReadRaw(file_, read_buffer_.data(), length));
  MemorySource record(read_buffer_.data(), length);
  BW_RETURN_IF_ERROR(ReadRegionRecord(&record, out));
  if (out->ByteSize() != length || out->region != region_ids_[index]) {
    return Status::IoError("corrupt spill record");
  }
  SimulatedDeviceWaitMicros(simulated_latency_micros_);
  ++io_stats_.region_reads;
  io_stats_.bytes_read += static_cast<int64_t>(out->ByteSize());
  Metrics().reads->Increment();
  Metrics().rows->Increment(static_cast<int64_t>(out->num_examples()));
  Metrics().bytes->Increment(static_cast<int64_t>(out->ByteSize()));
  return Status::OK();
}

Status SpilledTrainingData::Scan(
    const std::function<Status(const RegionTrainingSet&)>& fn) {
  obs::TraceSpan span("SpilledTrainingData::Scan", "storage");
  ++io_stats_.sequential_scans;
  Metrics().scans->Increment();
  RegionTrainingSet set;
  for (size_t i = 0; i < offsets_.size(); ++i) {
    BW_RETURN_IF_ERROR(robust::MaybeInjectIo(robust::kFaultStorageScan));
    BW_RETURN_IF_ERROR(ReadRecord(i, &set));
    BW_RETURN_IF_ERROR(fn(set));
  }
  return Status::OK();
}

Result<RegionTrainingSet> SpilledTrainingData::Read(size_t index) {
  if (index >= offsets_.size()) {
    return Status::OutOfRange("region set index out of range");
  }
  BW_RETURN_IF_ERROR(robust::MaybeInjectIo(robust::kFaultStorageRead));
  RegionTrainingSet set;
  BW_RETURN_IF_ERROR(ReadRecord(index, &set));
  return set;
}

std::vector<olap::RegionId> SpilledTrainingData::RegionIds() {
  return std::vector<olap::RegionId>(region_ids_.begin(), region_ids_.end());
}

}  // namespace bellwether::storage
