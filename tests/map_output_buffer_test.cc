#include "mr/map_output_buffer.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
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

// --- differential test against a std::stable_sort reference -----------------

// Orders keys by their bytes folded to lower case, then by length: "Ab" and
// "aB" compare equal but differ in bytes, so only arrival order may settle
// them.
int CaseFoldCompare(const Slice& a, const Slice& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int ca = std::tolower(static_cast<unsigned char>(a[i]));
    const int cb = std::tolower(static_cast<unsigned char>(b[i]));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  return a.size() < b.size() ? -1 : (a.size() > b.size() ? 1 : 0);
}

// Key shapes that exercise each step of Sort: byte digits that differ or
// agree, prefix ties that must (or need not) be broken by the full key, and
// comparator-equal keys that must keep arrival order.
std::string RandomKey(Random* rng) {
  static const std::vector<std::string> kTieSet = {
      "",         std::string(1, '\0'), "ab",        std::string("ab\0", 3),
      std::string("a\0b", 3), "abcdefgh",   "abcdefgh\0", "abcdefghi",
      "abcdefghij", "Ab",       "aB",        "AB"};
  switch (rng->Uniform(5)) {
    case 0:  // heavy duplicates, trailing and embedded NULs, empty keys
      return kTieSet[rng->Uniform(kTieSet.size())];
    case 1: {  // qsuggest-like: long shared prefix, then a short suffix
      std::string k = "how to make a ";
      k.resize(8 + rng->Uniform(8));
      for (uint64_t i = 0, n = rng->Uniform(3); i < n; ++i) {
        k.push_back(static_cast<char>('a' + rng->Uniform(3)));
      }
      return k;
    }
    case 2: {  // short keys over a small alphabet: many equal-length ties
      std::string k(rng->Uniform(9), 'x');
      for (char& c : k) c = "aAbB\0"[rng->Uniform(5)];
      return k;
    }
    default: {  // random bytes of any value, lengths 0..20
      std::string k(rng->Uniform(21), '\0');
      for (char& c : k) c = static_cast<char>(rng->Uniform(256));
      return k;
    }
  }
}

struct RefRecord {
  int partition;
  std::string key;
  std::string value;
};

void CheckSortMatchesStableSort(int num_partitions, const KeyComparator& cmp,
                                size_t records, uint64_t seed) {
  SCOPED_TRACE("partitions=" + std::to_string(num_partitions) +
               " records=" + std::to_string(records) +
               " seed=" + std::to_string(seed));
  Random rng(seed);
  HashPartitioner partitioner;
  MapOutputBuffer buffer(num_partitions, cmp);
  std::vector<RefRecord> want;
  for (size_t i = 0; i < records; ++i) {
    std::string key = RandomKey(&rng);
    // The value names the arrival, so any reordering of equal keys shows.
    std::string value = std::to_string(i);
    buffer.Add(key, value);
    want.push_back({partitioner.Partition(key, num_partitions),
                    std::move(key), std::move(value)});
  }
  std::stable_sort(want.begin(), want.end(),
                   [&](const RefRecord& a, const RefRecord& b) {
                     if (a.partition != b.partition) {
                       return a.partition < b.partition;
                     }
                     return cmp(a.key, b.key) < 0;
                   });

  ASSERT_TRUE(buffer.AssignPartitions(partitioner).ok());
  const size_t usage = buffer.memory_usage();
  buffer.Sort();
  EXPECT_EQ(buffer.memory_usage(), usage);

  std::vector<RefRecord> got;
  for (int p = 0; p < num_partitions; ++p) {
    auto stream = buffer.PartitionStream(p);
    uint64_t count = 0;
    while (stream->Valid()) {
      got.push_back({p, stream->key().ToString(), stream->value().ToString()});
      ++count;
      ASSERT_TRUE(stream->Next().ok());
    }
    EXPECT_EQ(buffer.PartitionRecords(p), count);
  }
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].partition, want[i].partition) << "position " << i;
    ASSERT_EQ(got[i].key, want[i].key) << "position " << i;
    ASSERT_EQ(got[i].value, want[i].value) << "position " << i;
  }
}

// 1, 8 and 300 partitions (300 leaves most partitions with a handful of
// records), from empty buffers to 30000 records.
TEST(MapOutputBuffer, SortMatchesStableSortBytewise) {
  uint64_t seed = 1600;
  for (const int partitions : {1, 8, 300}) {
    for (const size_t records : {0, 1, 40, 700, 6000, 30000}) {
      CheckSortMatchesStableSort(partitions, BytewiseCompare, records, ++seed);
    }
  }
}

// A closure that orders bytewise is not recognised as BytewiseCompare, so
// it takes the general path; the order must not change.
TEST(MapOutputBuffer, SortMatchesStableSortBytewiseClosure) {
  const KeyComparator closure = [](const Slice& a, const Slice& b) {
    return a.compare(b);
  };
  EXPECT_FALSE(IsBytewise(closure));
  EXPECT_TRUE(IsBytewise(BytewiseCompare));
  uint64_t seed = 1700;
  for (const int partitions : {1, 8}) {
    CheckSortMatchesStableSort(partitions, closure, 3000, ++seed);
  }
}

TEST(MapOutputBuffer, SortMatchesStableSortCaseFolding) {
  uint64_t seed = 1800;
  for (const int partitions : {1, 8, 300}) {
    for (const size_t records : {40, 700, 30000}) {
      CheckSortMatchesStableSort(partitions, CaseFoldCompare, records, ++seed);
    }
  }
}

// Every record agrees on each prefix byte but the one under test, on which
// a single record differs: that byte's radix pass must still run. The other
// records tie on the prefix with keys of one length (9) that arrive in
// descending order, so their run must still be sorted by the full key.
TEST(MapOutputBuffer, SortRunsAPassOnWhichOneRecordDiffers) {
  HashPartitioner partitioner;
  for (size_t byte = 0; byte < 8; ++byte) {
    for (const char odd_byte : {'a', 'z'}) {
      for (const size_t odd : {0, 4, 9}) {
        MapOutputBuffer buffer(1, BytewiseCompare);
        std::vector<std::string> want;
        for (size_t i = 0; i < 10; ++i) {
          std::string key = "mmmmmmmm" + std::to_string(9 - i);
          if (i == odd) key[byte] = odd_byte;
          buffer.Add(key, "");
          want.push_back(key);
        }
        std::sort(want.begin(), want.end());
        ASSERT_TRUE(buffer.AssignPartitions(partitioner).ok());
        buffer.Sort();
        std::vector<std::string> got;
        for (auto s = buffer.PartitionStream(0); s->Valid();) {
          got.push_back(s->key().ToString());
          ASSERT_TRUE(s->Next().ok());
        }
        EXPECT_EQ(got, want) << "byte " << byte << ", record " << odd
                             << " set to '" << odd_byte << "'";
      }
    }
  }
}

// Sort reuses its scratch across Clear: a second, smaller buffer must not
// see the first one's order.
TEST(MapOutputBuffer, SortAfterClearMatchesStableSort) {
  MapOutputBuffer buffer(4, BytewiseCompare);
  HashPartitioner partitioner;
  for (int round = 0; round < 3; ++round) {
    Random rng(1900 + round);
    const size_t records = round == 1 ? 50 : 2000;
    std::vector<std::pair<std::string, std::string>> want;
    for (size_t i = 0; i < records; ++i) {
      std::string key = RandomKey(&rng);
      buffer.Add(key, std::to_string(i));
      if (partitioner.Partition(key, 4) == 2) {
        want.emplace_back(std::move(key), std::to_string(i));
      }
    }
    std::stable_sort(want.begin(), want.end(),
                     [](const auto& a, const auto& b) {
                       return Slice(a.first).compare(Slice(b.first)) < 0;
                     });
    ASSERT_TRUE(buffer.AssignPartitions(partitioner).ok());
    buffer.Sort();
    std::vector<std::pair<std::string, std::string>> got;
    auto stream = buffer.PartitionStream(2);
    while (stream->Valid()) {
      got.emplace_back(stream->key().ToString(), stream->value().ToString());
      ASSERT_TRUE(stream->Next().ok());
    }
    EXPECT_EQ(got, want) << "round " << round;
    buffer.Clear();
  }
}

}  // namespace
}  // namespace antimr
