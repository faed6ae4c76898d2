// Unit tests of AntiCombiner: decoding encoded records in the map-side
// combine pass, applying the original Combiner, and re-encoding with
// cross-key EagerSH value groups.
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "anticombine/anti_reducer.h"
#include "anticombine/encoding.h"
#include "mr/metrics.h"
#include "mr/reduce_task.h"
#include "test_util.h"

namespace antimr {
namespace anticombine {
namespace {

class SumCombiner : public Reducer {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    long total = 0;
    Slice v;
    while (values->Next(&v)) total += std::stol(v.ToString());
    ctx->Emit(key, std::to_string(total));
  }
};

// Emits "n=<count>" and then the sum: two records per key, as
// Query-Suggestion's Combiner emits one record per distinct query.
class CountAndSumCombiner : public Reducer {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    long total = 0, count = 0;
    Slice v;
    while (values->Next(&v)) {
      total += std::stol(v.ToString());
      ++count;
    }
    ctx->Emit(key, "n=" + std::to_string(count));
    ctx->Emit(key, std::to_string(total));
  }
};

// Joins a key's values with ',' in the order the Combiner receives them.
class ConcatCombiner : public Reducer {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    std::string joined;
    Slice v;
    while (values->Next(&v)) {
      if (!joined.empty()) joined += ',';
      joined += v.ToString();
    }
    ctx->Emit(key, joined);
  }
};

// Sums per key, and from Cleanup emits ("c", number of keys seen).
class TallyCombiner : public SumCombiner {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    ++keys_;
    SumCombiner::Reduce(key, values, ctx);
  }
  void Cleanup(ReduceContext* ctx) override {
    ctx->Emit("c", std::to_string(keys_));
  }

 private:
  int keys_ = 0;
};

class NopMapper : public Mapper {
 public:
  void Map(const Slice&, const Slice&, MapContext*) override {}
};

// Emits (word, "1") for each space-separated word of the input value.
class WordsMapper : public Mapper {
 public:
  void Map(const Slice&, const Slice& value, MapContext* ctx) override {
    size_t start = 0;
    for (size_t i = 0; i <= value.size(); ++i) {
      if (i == value.size() || value[i] == ' ') {
        ctx->Emit(Slice(value.data() + start, i - start), "1");
        start = i + 1;
      }
    }
  }
};

// WordsMapper that emits into the context it got at Setup and ignores the
// one Map passes, as mr/skew.cc's hot-key SaltingMapper does. It also emits
// one record from Setup, which must be discarded.
class SetupBoundWordsMapper : public Mapper {
 public:
  void Setup(const TaskInfo&, MapContext* ctx) override {
    ctx_ = ctx;
    ctx->Emit("1setup", "1");
  }
  void Map(const Slice& key, const Slice& value, MapContext*) override {
    words_.Map(key, value, ctx_);
  }

 private:
  WordsMapper words_;
  MapContext* ctx_ = nullptr;
};

using testing::DigitPartitioner;

int CompareFirstByte(const Slice& a, const Slice& b) {
  return BytewiseCompare(Slice(a.data(), a.empty() ? 0 : 1),
                         Slice(b.data(), b.empty() ? 0 : 1));
}

// Iterates a borrowed group of (record key, payload) pairs.
class KeyedPayloadIterator : public ValueIterator {
 public:
  explicit KeyedPayloadIterator(const std::vector<KV>* items)
      : items_(items) {}
  bool Next(Slice* value) override {
    if (pos_ >= items_->size()) return false;
    *value = (*items_)[pos_].value;
    ++pos_;
    return true;
  }
  Slice key() const override { return (*items_)[pos_ - 1].key; }

 private:
  const std::vector<KV>* items_;
  size_t pos_ = 0;
};

// Counts emissions without allocating.
class CountingContext : public ReduceContext {
 public:
  void Emit(const Slice&, const Slice&) override { ++records; }
  size_t records = 0;
};

std::string Eager(const std::vector<std::string>& other_keys,
                  const std::string& value) {
  std::vector<Slice> keys(other_keys.begin(), other_keys.end());
  std::string payload;
  EncodeEagerPayload(keys, value, &payload);
  return payload;
}

std::string Lazy(const std::string& input_key,
                 const std::string& input_value) {
  std::string payload;
  EncodeLazyPayload(input_key, input_value, &payload);
  return payload;
}

struct DecodedOut {
  std::vector<std::string> keys;  // rep + others, rep first
  std::string value;
};

DecodedOut DecodeOut(const KV& record) {
  DecodedOut out;
  Encoding encoding;
  Slice rest;
  EXPECT_TRUE(GetEncoding(record.value, &encoding, &rest).ok());
  EXPECT_EQ(encoding, Encoding::kEager) << "AntiCombiner re-encodes eagerly";
  std::vector<Slice> others;
  Slice value;
  EXPECT_TRUE(DecodeEagerPayload(rest, &others, &value).ok());
  out.keys.push_back(record.key);
  for (const Slice& k : others) out.keys.push_back(k.ToString());
  out.value = value.ToString();
  return out;
}

// Every decoded (key, value) of an output, as key -> value.
std::map<std::string, std::string> ValuesByKey(const std::vector<KV>& out) {
  std::map<std::string, std::string> values;
  for (const KV& kv : out) {
    DecodedOut d = DecodeOut(kv);
    for (const std::string& key : d.keys) values[key] = d.value;
  }
  return values;
}

class AntiCombinerTest : public ::testing::Test {
 protected:
  AntiCombinerTest() {
    info_.num_reduce_tasks = 1;
    info_.shuffle_partition = 0;
    info_.partitioner = &partitioner_;
    info_.key_cmp = BytewiseCompare;
    info_.grouping_cmp = BytewiseCompare;
    info_.metrics = &metrics_;
  }

  // One combine pass: each inner vector is one Reduce group.
  void RunInto(const std::vector<std::vector<KV>>& groups,
               ReduceContext* ctx) {
    AntiCombiner combiner(combiner_, mapper_);
    combiner.Setup(info_, ctx);
    for (const auto& group : groups) {
      KeyedPayloadIterator it(&group);
      combiner.Reduce(group.front().key, &it, ctx);
    }
    combiner.Cleanup(ctx);
  }

  std::vector<KV> Run(const std::vector<std::vector<KV>>& groups) {
    std::vector<KV> out;
    CollectingContext ctx(&out);
    RunInto(groups, &ctx);
    return out;
  }

  ReducerFactory combiner_ = []() { return std::make_unique<SumCombiner>(); };
  MapperFactory mapper_ = []() { return std::make_unique<NopMapper>(); };
  HashPartitioner partitioner_;
  TaskInfo info_;
  JobMetrics metrics_;
};

TEST_F(AntiCombinerTest, CombinesDecodedValuesPerKey) {
  auto out = Run({{{"a", Eager({}, "1")}, {"a", Eager({}, "2")}},
                  {{"b", Eager({}, "5")}}});
  ASSERT_EQ(out.size(), 2u);
  std::map<std::string, std::string> values;
  for (const KV& kv : out) values[kv.key] = DecodeOut(kv).value;
  EXPECT_EQ(values["a"], "3");
  EXPECT_EQ(values["b"], "5");
}

TEST_F(AntiCombinerTest, EncodedKeysAreExpandedBeforeCombining) {
  // (a, ({b, c}, 2)) stands for a=2, b=2, c=2; combining each key alone.
  auto out = Run({{{"a", Eager({"b", "c"}, "2")}}});
  // All three keys combine to "2" — identical values — so the re-encoder
  // collapses them back into ONE eager record spanning the keys.
  ASSERT_EQ(out.size(), 1u);
  DecodedOut d = DecodeOut(out[0]);
  EXPECT_EQ(d.value, "2");
  EXPECT_EQ(d.keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(AntiCombinerTest, CrossKeyValueGroupingAfterCombine) {
  // WordCount shape: x=1+1, y=2, z=1+1 -> combined x=2, y=2, z=2: one
  // record for all three keys.
  auto out = Run({{{"x", Eager({}, "1")}, {"x", Eager({}, "1")}},
                  {{"y", Eager({}, "2")}},
                  {{"z", Eager({}, "1")}, {"z", Eager({}, "1")}}});
  ASSERT_EQ(out.size(), 1u);
  DecodedOut d = DecodeOut(out[0]);
  EXPECT_EQ(d.value, "2");
  EXPECT_EQ(d.keys, (std::vector<std::string>{"x", "y", "z"}));
}

TEST_F(AntiCombinerTest, OutputIsKeySorted) {
  auto out = Run({{{"d", Eager({}, "4")}},
                  {{"m", Eager({}, "13")}},
                  {{"z", Eager({}, "26")}}});
  ASSERT_EQ(out.size(), 3u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].key, out[i].key)
        << "segments must stay merge-compatible";
  }
}

TEST_F(AntiCombinerTest, EmptyPassEmitsNothing) {
  EXPECT_TRUE(Run({}).empty());
}

TEST_F(AntiCombinerTest, LazyRecordIsRemappedIntoOwnPartitionOnly) {
  // Partition 1 of 2 combines. The Lazy record stands for the Map call
  // over "0a 1b 1c 0d"; only 1b and 1c belong here.
  static DigitPartitioner digits;
  info_.partitioner = &digits;
  info_.num_reduce_tasks = 2;
  info_.shuffle_partition = 1;
  mapper_ = []() { return std::make_unique<WordsMapper>(); };
  auto out =
      Run({{{"1b", Lazy("in", "0a 1b 1c 0d")}, {"1b", Eager({}, "4")}}});
  EXPECT_EQ(metrics_.remap_calls, 1u);
  EXPECT_EQ(ValuesByKey(out),
            (std::map<std::string, std::string>{{"1b", "5"}, {"1c", "1"}}));
}

TEST_F(AntiCombinerTest, LazyRemapReachesMapperBoundToItsSetupContext) {
  static DigitPartitioner digits;
  info_.partitioner = &digits;
  info_.num_reduce_tasks = 2;
  info_.shuffle_partition = 1;
  mapper_ = []() { return std::make_unique<SetupBoundWordsMapper>(); };
  auto out =
      Run({{{"1b", Lazy("in", "0a 1b 1c 0d")}, {"1b", Eager({}, "4")}}});
  EXPECT_EQ(metrics_.remap_calls, 1u);
  EXPECT_EQ(ValuesByKey(out),
            (std::map<std::string, std::string>{{"1b", "5"}, {"1c", "1"}}));
}

TEST_F(AntiCombinerTest, GroupsSharingARepresentativeComeOutInValueOrder) {
  // a and b both combine to n=2 and 2: two value groups, both keyed by a.
  combiner_ = []() { return std::make_unique<CountAndSumCombiner>(); };
  auto out = Run({{{"a", Eager({"b"}, "1")}, {"a", Eager({"b"}, "1")}}});
  ASSERT_EQ(out.size(), 2u);
  DecodedOut first = DecodeOut(out[0]);
  DecodedOut second = DecodeOut(out[1]);
  EXPECT_EQ(first.keys, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(first.value, "2");
  EXPECT_EQ(second.keys, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(second.value, "n=2");
}

TEST_F(AntiCombinerTest, GroupingComparatorKeepsEachRecordsOwnKey) {
  // a1 and a2 arrive in one Reduce group, but are combined apart.
  info_.grouping_cmp = CompareFirstByte;
  auto out = Run({{{"a1", Eager({}, "1")}, {"a2", Eager({}, "5")}}});
  EXPECT_EQ(ValuesByKey(out),
            (std::map<std::string, std::string>{{"a1", "1"}, {"a2", "5"}}));
}

TEST_F(AntiCombinerTest, ValuesReachCombinerInArrivalOrder) {
  combiner_ = []() { return std::make_unique<ConcatCombiner>(); };
  auto out = Run({{{"a", Eager({"c"}, "x")}, {"a", Eager({}, "y")}},
                  {{"b", Eager({"c"}, "z")}},
                  {{"c", Eager({}, "w")}}});
  EXPECT_EQ(ValuesByKey(out),
            (std::map<std::string, std::string>{
                {"a", "x,y"}, {"b", "z"}, {"c", "x,z,w"}}));
}

TEST_F(AntiCombinerTest, CleanupEmissionsAreReEncoded) {
  // The Combiner's Cleanup emits c=2, which shares its value with a.
  combiner_ = []() { return std::make_unique<TallyCombiner>(); };
  auto out = Run({{{"a", Eager({}, "2")}}, {{"b", Eager({}, "5")}}});
  ASSERT_EQ(out.size(), 2u);
  DecodedOut first = DecodeOut(out[0]);
  EXPECT_EQ(first.keys, (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(first.value, "2");
  EXPECT_EQ(DecodeOut(out[1]).keys, std::vector<std::string>{"b"});
}

TEST_F(AntiCombinerTest, AllocationsDoNotGrowPerDecodedRecord) {
  // The same 64 keys, with `per_key` Eager records each: every record also
  // carries the next two keys. Doubling the records may add vector-growth
  // steps, but not an allocation per record.
  auto make_groups = [](int per_key) {
    std::vector<std::vector<KV>> groups;
    for (int k = 0; k < 64; ++k) {
      auto key = [](int i) { return "key" + std::to_string(100 + i); };
      std::vector<KV> group;
      for (int r = 0; r < per_key; ++r) {
        group.push_back({key(k), Eager({key(k + 1), key(k + 2)}, "1")});
      }
      groups.push_back(std::move(group));
    }
    return groups;
  };
  auto allocations = [this](const std::vector<std::vector<KV>>& groups) {
    CountingContext ctx;
    const uint64_t before = test_alloc::AllocationCount();
    RunInto(groups, &ctx);
    EXPECT_GT(ctx.records, 0u);
    return test_alloc::AllocationCount() - before;
  };
  const auto small = make_groups(50);
  const auto large = make_groups(100);
  allocations(small);  // warm-up: first-use allocations of the runtime
  const uint64_t small_allocs = allocations(small);
  const uint64_t large_allocs = allocations(large);
  EXPECT_LE(large_allocs, small_allocs + 16)
      << "3200 more decoded records cost " << large_allocs - small_allocs
      << " more allocations";
}

}  // namespace
}  // namespace anticombine
}  // namespace antimr
