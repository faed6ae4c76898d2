#include "mr/map_output_buffer.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace antimr {
namespace {

using testing::DigitPartitioner;

// Partitions by the key's leading digit; keys below carry the partition
// they are meant for as that digit.
void PartitionAndSort(MapOutputBuffer* buffer) {
  ASSERT_TRUE(buffer->AssignPartitions(DigitPartitioner()).ok());
  buffer->Sort();
}

TEST(MapOutputBuffer, EmptyBuffer) {
  MapOutputBuffer buffer(3, BytewiseCompare);
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.record_count(), 0u);
  PartitionAndSort(&buffer);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(buffer.PartitionRecords(p), 0u);
    EXPECT_FALSE(buffer.PartitionStream(p)->Valid());
  }
}

TEST(MapOutputBuffer, SortsWithinPartition) {
  MapOutputBuffer buffer(2, BytewiseCompare);
  buffer.Add("0c", "3");
  buffer.Add("1z", "z1");
  buffer.Add("0a", "1");
  buffer.Add("0b", "2");
  buffer.Add("1y", "y1");
  PartitionAndSort(&buffer);
  auto s0 = buffer.PartitionStream(0);
  std::string keys;
  while (s0->Valid()) {
    keys += s0->key().ToString();
    ASSERT_TRUE(s0->Next().ok());
  }
  EXPECT_EQ(keys, "0a0b0c");
  EXPECT_EQ(buffer.PartitionRecords(0), 3u);
  EXPECT_EQ(buffer.PartitionRecords(1), 2u);
}

TEST(MapOutputBuffer, StableForEqualKeys) {
  MapOutputBuffer buffer(1, BytewiseCompare);
  buffer.Add("k", "first");
  buffer.Add("k", "second");
  buffer.Add("k", "third");
  PartitionAndSort(&buffer);
  auto stream = buffer.PartitionStream(0);
  EXPECT_EQ(stream->value().ToString(), "first");
  ASSERT_TRUE(stream->Next().ok());
  EXPECT_EQ(stream->value().ToString(), "second");
  ASSERT_TRUE(stream->Next().ok());
  EXPECT_EQ(stream->value().ToString(), "third");
}

TEST(MapOutputBuffer, MemoryUsageGrowsAndClears) {
  MapOutputBuffer buffer(1, BytewiseCompare);
  EXPECT_EQ(buffer.memory_usage(), 0u);
  buffer.Add("0123456789", "0123456789");
  EXPECT_GE(buffer.memory_usage(), 20u);
  buffer.Clear();
  EXPECT_EQ(buffer.memory_usage(), 0u);
  EXPECT_TRUE(buffer.empty());
}

TEST(MapOutputBuffer, ReusableAfterClear) {
  MapOutputBuffer buffer(2, BytewiseCompare);
  buffer.Add("0a", "1");
  PartitionAndSort(&buffer);
  buffer.Clear();
  buffer.Add("1b", "2");
  PartitionAndSort(&buffer);
  EXPECT_EQ(buffer.PartitionRecords(0), 0u);
  EXPECT_EQ(buffer.PartitionRecords(1), 1u);
  auto stream = buffer.PartitionStream(1);
  EXPECT_EQ(stream->key().ToString(), "1b");
}

TEST(MapOutputBuffer, CustomComparator) {
  auto reverse = [](const Slice& a, const Slice& b) { return b.compare(a); };
  MapOutputBuffer buffer(1, reverse);
  buffer.Add("a", "");
  buffer.Add("c", "");
  buffer.Add("b", "");
  PartitionAndSort(&buffer);
  auto stream = buffer.PartitionStream(0);
  std::string keys;
  while (stream->Valid()) {
    keys += stream->key().ToString();
    ASSERT_TRUE(stream->Next().ok());
  }
  EXPECT_EQ(keys, "cba");
}

TEST(MapOutputBuffer, SparsePartitions) {
  MapOutputBuffer buffer(10, BytewiseCompare);
  buffer.Add("7k", "v");
  buffer.Add("2k", "v");
  PartitionAndSort(&buffer);
  for (int p = 0; p < 10; ++p) {
    EXPECT_EQ(buffer.PartitionRecords(p), (p == 2 || p == 7) ? 1u : 0u);
  }
}

// AddBatch must be byte-equivalent to record-wise Add: same partition
// contents, same sort, same stability for equal keys (batch order = Add
// order). The batch references caller storage; the buffer must intern.
TEST(MapOutputBuffer, AddBatchMatchesRecordWiseAdd) {
  const std::vector<std::pair<std::string, std::string>> records = {
      {"0c", "3"}, {"1a", "1"}, {"0a", "1"}, {"0a", "1b"}, {"1b", "2"},
      {"0z", "26"}};

  MapOutputBuffer record_wise(2, BytewiseCompare);
  for (const auto& [k, v] : records) record_wise.Add(k, v);
  PartitionAndSort(&record_wise);

  MapOutputBuffer batched(2, BytewiseCompare);
  {
    // Batch storage is scoped: after AddBatch returns, the buffer must not
    // reference it.
    std::vector<std::pair<std::string, std::string>> storage = records;
    RecordBatch batch;
    for (const auto& [k, v] : storage) batch.emplace_back(Slice(k), Slice(v));
    batched.AddBatch(batch);
    for (auto& [k, v] : storage) {
      k.assign(k.size(), '?');
      v.assign(v.size(), '?');
    }
    PartitionAndSort(&batched);
  }

  EXPECT_EQ(batched.record_count(), record_wise.record_count());
  for (int p = 0; p < 2; ++p) {
    ASSERT_EQ(batched.PartitionRecords(p), record_wise.PartitionRecords(p));
    auto want = record_wise.PartitionStream(p);
    auto got = batched.PartitionStream(p);
    while (want->Valid()) {
      ASSERT_TRUE(got->Valid());
      EXPECT_EQ(got->key().ToString(), want->key().ToString());
      EXPECT_EQ(got->value().ToString(), want->value().ToString());
      ASSERT_TRUE(want->Next().ok());
      ASSERT_TRUE(got->Next().ok());
    }
    EXPECT_FALSE(got->Valid());
  }
}

// The partition streams a sorted buffer serves support eager batches; the
// batched view must equal the record-wise walk.
TEST(MapOutputBuffer, PartitionStreamBatchesMatch) {
  MapOutputBuffer buffer(1, BytewiseCompare);
  for (int i = 0; i < 100; ++i) {
    buffer.Add("k" + std::to_string(i % 10), "v" + std::to_string(i));
  }
  PartitionAndSort(&buffer);

  std::vector<std::pair<std::string, std::string>> want;
  auto record_stream = buffer.PartitionStream(0);
  while (record_stream->Valid()) {
    want.emplace_back(record_stream->key().ToString(),
                      record_stream->value().ToString());
    ASSERT_TRUE(record_stream->Next().ok());
  }

  auto batch_stream = buffer.PartitionStream(0);
  ASSERT_TRUE(batch_stream->SupportsEagerBatches());
  std::vector<std::pair<std::string, std::string>> got;
  RecordBatch batch;
  BatchOptions opts;
  opts.max_records = 17;
  while (true) {
    ASSERT_TRUE(batch_stream->NextBatch(&batch, opts).ok());
    if (batch.empty()) break;
    for (const RecordRef& r : batch) {
      got.emplace_back(r.key.ToString(), r.value.ToString());
    }
  }
  EXPECT_EQ(got, want);
}

TEST(MapOutputBuffer, BinarySafePayloads) {
  MapOutputBuffer buffer(1, BytewiseCompare);
  const std::string key("\x00\xff\x00", 3);
  const std::string value(1000, '\0');
  buffer.Add(key, value);
  PartitionAndSort(&buffer);
  auto stream = buffer.PartitionStream(0);
  EXPECT_EQ(stream->key().ToString(), key);
  EXPECT_EQ(stream->value().ToString(), value);
}

// A partition outside [0, num_partitions) must fail the pass, naming the
// value and the count, instead of Sort dropping or misrouting the record.
class FixedPartitioner : public Partitioner {
 public:
  explicit FixedPartitioner(int partition) : partition_(partition) {}
  int Partition(const Slice&, int) const override { return partition_; }

 private:
  int partition_;
};

TEST(MapOutputBuffer, AssignPartitionsRejectsOutOfRange) {
  for (const int bad : {-1, 3}) {
    MapOutputBuffer buffer(3, BytewiseCompare);
    buffer.Add("k", "v");
    const Status st = buffer.AssignPartitions(FixedPartitioner(bad));
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.ToString().find("partition " + std::to_string(bad)),
              std::string::npos)
        << st.ToString();
    EXPECT_NE(st.ToString().find("3 reduce tasks"), std::string::npos)
        << st.ToString();
  }
}

}  // namespace
}  // namespace antimr
