// Unit-level tests of AntiReducer's decode/drain machinery (Algorithms 2
// and 4): driving Reduce calls directly with hand-built encoded payloads and
// recording the order and contents of the original Reduce invocations.
#include "anticombine/anti_reducer.h"

#include <algorithm>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "anticombine/encoding.h"
#include "common/stopwatch.h"
#include "mr/metrics.h"
#include "mr/reduce_task.h"
#include "test_util.h"

namespace antimr {
namespace anticombine {
namespace {

// ValueIterator over (record key, payload) pairs, exposing per-record keys
// like the framework's group iterator does.
class PayloadIterator : public ValueIterator {
 public:
  explicit PayloadIterator(std::vector<KV> items)
      : items_(std::move(items)) {}

  bool Next(Slice* value) override {
    if (pos_ >= items_.size()) return false;
    *value = items_[pos_].value;
    ++pos_;
    return true;
  }

  Slice key() const override { return items_[pos_ - 1].key; }

 private:
  std::vector<KV> items_;
  size_t pos_ = 0;
};

// Records every (key, values) group the original Reduce receives.
class RecordingReducer : public Reducer {
 public:
  struct Call {
    std::string key;
    std::vector<std::string> values;
    std::vector<std::string> record_keys;  // values->key() after each Next
  };

  explicit RecordingReducer(std::vector<Call>* log) : log_(log) {}

  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext*) override {
    Call call;
    call.key = key.ToString();
    Slice v;
    while (values->Next(&v)) {
      call.values.push_back(v.ToString());
      call.record_keys.push_back(values->key().ToString());
    }
    log_->push_back(std::move(call));
  }

 private:
  std::vector<Call>* log_;
};

// Counts the values the original Reduce receives, allocating nothing.
class CountingReducer : public Reducer {
 public:
  explicit CountingReducer(uint64_t* values) : values_(values) {}

  void Reduce(const Slice&, ValueIterator* values, ReduceContext*) override {
    Slice v;
    while (values->Next(&v)) ++*values_;
  }

 private:
  uint64_t* values_;
};

// Scripted mapper for Lazy re-execution: input value "a:v1 b:v2 ..." emits
// (a, v1), (b, v2), ... as views of the input, allocating nothing.
class RemapMapper : public Mapper {
 public:
  void Map(const Slice&, const Slice& value, MapContext* ctx) override {
    std::string_view text = value.view();
    while (!text.empty()) {
      const std::string_view token = text.substr(0, text.find(' '));
      const size_t colon = token.find(':');
      if (colon != std::string_view::npos) {
        ctx->Emit(token.substr(0, colon), token.substr(colon + 1));
      }
      text.remove_prefix(std::min(token.size() + 1, text.size()));
    }
  }
};

// RemapMapper that emits into the context it got at Setup and ignores the
// one Map passes, as mr/skew.cc's hot-key SaltingMapper does. It also emits
// from Setup and Cleanup, which must be discarded.
class SetupBoundRemapMapper : public Mapper {
 public:
  void Setup(const TaskInfo&, MapContext* ctx) override {
    ctx_ = ctx;
    ctx->Emit("1setup", "s");
  }
  void Map(const Slice& key, const Slice& value, MapContext*) override {
    remap_.Map(key, value, ctx_);
  }
  void Cleanup(MapContext* ctx) override { ctx->Emit("1cleanup", "c"); }

 private:
  RemapMapper remap_;
  MapContext* ctx_ = nullptr;
};

using testing::DigitPartitioner;

std::string EagerValue(const std::vector<std::string>& other_keys,
                       const std::string& value) {
  std::vector<Slice> keys(other_keys.begin(), other_keys.end());
  std::string payload;
  EncodeEagerPayload(keys, value, &payload);
  return payload;
}

std::string LazyValue(const std::string& input_key,
                      const std::string& input_value) {
  std::string payload;
  EncodeLazyPayload(input_key, input_value, &payload);
  return payload;
}

class AntiReducerTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = NewMemEnv(); }

  /// The original Reduce defaults to a RecordingReducer into log_.
  std::unique_ptr<AntiReducer> MakeReducer(
      const AntiCombineOptions& options = AntiCombineOptions(),
      ReducerFactory combiner = nullptr, ReducerFactory original = nullptr) {
    if (!original) {
      original = [this]() { return std::make_unique<RecordingReducer>(&log_); };
    }
    auto reducer = std::make_unique<AntiReducer>(std::move(original), mapper_,
                                                 combiner, options);
    info_.task_id = 1;
    info_.shuffle_partition = 1;
    info_.num_reduce_tasks = 4;
    info_.partitioner = &partitioner_;
    info_.key_cmp = BytewiseCompare;
    info_.grouping_cmp = BytewiseCompare;
    info_.env = env_.get();
    info_.metrics = &metrics_;
    reducer->Setup(info_, &ctx_);
    return reducer;
  }

  // One framework-style Reduce call: all records share a group key.
  void Call(AntiReducer* reducer, std::vector<KV> items) {
    PayloadIterator it(items);
    reducer->Reduce(items.front().key, &it, &ctx_);
  }

  MapperFactory mapper_ = []() { return std::make_unique<RemapMapper>(); };
  std::unique_ptr<Env> env_;
  DigitPartitioner partitioner_;
  JobMetrics metrics_;
  TaskInfo info_;
  std::vector<RecordingReducer::Call> log_;
  CollectingContext ctx_{&sink_};
  std::vector<KV> sink_;
};

TEST_F(AntiReducerTest, PlainRecordsPassStraightThrough) {
  auto reducer = MakeReducer();
  Call(reducer.get(), {{"1a", EagerValue({}, "v1")},
                       {"1a", EagerValue({}, "v2")}});
  Call(reducer.get(), {{"1b", EagerValue({}, "w")}});
  reducer->Cleanup(&ctx_);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].key, "1a");
  EXPECT_EQ(log_[0].values, (std::vector<std::string>{"v1", "v2"}));
  EXPECT_EQ(log_[1].key, "1b");
}

TEST_F(AntiReducerTest, EagerKeysDecodeBeforeTheirReduceCall) {
  auto reducer = MakeReducer();
  // "1a" carries "1c" and "1e"; the regular input stream then delivers
  // "1d": the Shared key "1c" must be reduced before "1d" (repeat-until
  // loop), "1e" after (cleanup).
  Call(reducer.get(), {{"1a", EagerValue({"1c", "1e"}, "shared")}});
  Call(reducer.get(), {{"1d", EagerValue({}, "direct")}});
  reducer->Cleanup(&ctx_);
  ASSERT_EQ(log_.size(), 4u);
  EXPECT_EQ(log_[0].key, "1a");
  EXPECT_EQ(log_[0].values, std::vector<std::string>{"shared"});
  EXPECT_EQ(log_[1].key, "1c");
  EXPECT_EQ(log_[1].values, std::vector<std::string>{"shared"});
  EXPECT_EQ(log_[2].key, "1d");
  EXPECT_EQ(log_[3].key, "1e");
}

TEST_F(AntiReducerTest, SharedAndDirectValuesMergeForSameKey) {
  auto reducer = MakeReducer();
  // "1a" parks a value for "1c"; later the stream also has records for
  // "1c": the Reduce call for "1c" must see both.
  Call(reducer.get(), {{"1a", EagerValue({"1c"}, "from-shared")}});
  Call(reducer.get(), {{"1c", EagerValue({}, "from-stream")}});
  reducer->Cleanup(&ctx_);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[1].key, "1c");
  ASSERT_EQ(log_[1].values.size(), 2u);
  // Both values present regardless of order.
  EXPECT_NE(std::find(log_[1].values.begin(), log_[1].values.end(),
                      "from-shared"),
            log_[1].values.end());
  EXPECT_NE(std::find(log_[1].values.begin(), log_[1].values.end(),
                      "from-stream"),
            log_[1].values.end());
}

TEST_F(AntiReducerTest, OriginalReduceSeesNoRecordKeyOnEitherPath) {
  auto reducer = MakeReducer();
  // "1a" takes the plain path; "1c" merges a Shared value with a stream
  // value. Neither hands the original Reduce per-record keys.
  Call(reducer.get(), {{"1a", EagerValue({}, "plain")}});
  Call(reducer.get(), {{"1b", EagerValue({"1c"}, "from-shared")}});
  Call(reducer.get(), {{"1c", EagerValue({}, "from-stream")}});
  reducer->Cleanup(&ctx_);
  ASSERT_EQ(log_.size(), 3u);
  EXPECT_EQ(log_[0].key, "1a");
  EXPECT_EQ(log_[0].record_keys, std::vector<std::string>{""});
  EXPECT_EQ(log_[2].key, "1c");
  EXPECT_EQ(log_[2].record_keys, (std::vector<std::string>{"", ""}));
}

TEST_F(AntiReducerTest, LazyRemapKeepsOnlyThisPartition) {
  auto reducer = MakeReducer();
  // Re-executed Map emits to partitions 1 (keys starting '1') and 2 (keys
  // starting '2'); this reduce task is partition 1.
  Call(reducer.get(),
       {{"1a", LazyValue("ik", "1a:x 2b:y 1c:z")}});
  reducer->Cleanup(&ctx_);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].key, "1a");
  EXPECT_EQ(log_[0].values, std::vector<std::string>{"x"});
  EXPECT_EQ(log_[1].key, "1c");
  EXPECT_EQ(log_[1].values, std::vector<std::string>{"z"});
  EXPECT_EQ(metrics_.remap_calls, 1u);
}

TEST_F(AntiReducerTest, LazyRemapReachesMapperBoundToItsSetupContext) {
  mapper_ = []() { return std::make_unique<SetupBoundRemapMapper>(); };
  auto reducer = MakeReducer();
  Call(reducer.get(),
       {{"1a", LazyValue("ik", "1a:x 2b:y 1c:z")}});
  reducer->Cleanup(&ctx_);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].key, "1a");
  EXPECT_EQ(log_[0].values, std::vector<std::string>{"x"});
  EXPECT_EQ(log_[1].key, "1c");
  EXPECT_EQ(log_[1].values, std::vector<std::string>{"z"});
}

TEST_F(AntiReducerTest, MixedEncodingsInOneGroup) {
  auto reducer = MakeReducer();
  Call(reducer.get(), {{"1a", EagerValue({}, "plain")},
                       {"1a", EagerValue({"1b"}, "eager")},
                       {"1a", LazyValue("ik", "1a:lazy 1b:lazy2")}});
  reducer->Cleanup(&ctx_);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].key, "1a");
  // 1a's values: plain + eager + lazy (order within group unspecified).
  EXPECT_EQ(log_[0].values.size(), 3u);
  EXPECT_EQ(log_[1].key, "1b");
  EXPECT_EQ(log_[1].values.size(), 2u);
}

TEST_F(AntiReducerTest, CombinerCollapsesSharedValues) {
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
  auto reducer = MakeReducer(
      AntiCombineOptions(),
      []() { return std::make_unique<SumCombiner>(); });
  Call(reducer.get(), {{"1a", EagerValue({"1b", "1b", "1b"}, "1")}});
  reducer->Cleanup(&ctx_);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[1].key, "1b");
  EXPECT_EQ(log_[1].values, std::vector<std::string>{"3"});
  EXPECT_GT(metrics_.combine_input_records, 0u);
}

TEST_F(AntiReducerTest, SharedSpillsDoNotChangeResults) {
  AntiCombineOptions options;
  options.shared_memory_bytes = 128;
  auto reducer = MakeReducer(options);
  std::vector<std::string> other_keys;
  for (int i = 10; i < 60; ++i) other_keys.push_back("1k" + std::to_string(i));
  Call(reducer.get(),
       {{"1a", EagerValue(other_keys, std::string(30, 'v'))}});
  reducer->Cleanup(&ctx_);
  EXPECT_EQ(log_.size(), 51u);  // 1a + 50 decoded keys
  EXPECT_GT(metrics_.shared_spills, 0u);
  // Keys must still come out in order despite spills.
  for (size_t i = 1; i < log_.size(); ++i) {
    EXPECT_LT(log_[i - 1].key, log_[i].key);
  }
}

// Remap inserts into Shared as Map emits, so its window contains the
// combines those inserts trigger. cpu.remap must exclude them, or the
// decode window, which subtracts remap and combine both, would subtract
// them twice.
TEST_F(AntiReducerTest, RemapWindowExcludesSharedCombines) {
  constexpr uint64_t kBurnNanos = 2'000'000;
  class BurningSumCombiner : public Reducer {
   public:
    void Reduce(const Slice& key, ValueIterator* values,
                ReduceContext* ctx) override {
      const uint64_t start = NowNanos();
      while (NowNanos() - start < kBurnNanos) {
      }
      long total = 0;
      Slice v;
      while (values->Next(&v)) total += std::stol(v.ToString());
      ctx->Emit(key, std::to_string(total));
    }
  };
  auto reducer = MakeReducer(
      AntiCombineOptions(),
      []() { return std::make_unique<BurningSumCombiner>(); });
  // The remap emits "1a" twice: the second insert fires a combine.
  Call(reducer.get(), {{"1a", LazyValue("ik", "1a:1 1a:2")}});
  reducer->Cleanup(&ctx_);
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].values, std::vector<std::string>{"3"});
  EXPECT_EQ(metrics_.remap_calls, 1u);
  EXPECT_GE(metrics_.cpu.combine, kBurnNanos);
  EXPECT_LT(metrics_.cpu.remap, metrics_.cpu.combine);
}

// LazySH remaps emit straight into Shared and Shared appends to one run per
// key, so remapping onto keys already resident allocates nothing per call:
// only the runs' geometric growth (and the group key's new table entry)
// allocates. Values are 32 bytes, beyond small-string optimization, so a
// per-record copy would show up in the counter (the capture-then-filter
// path with one std::string per Shared value made over 3000 here).
TEST_F(AntiReducerTest, LazyRemapsOntoResidentKeysAllocateOnlyRunGrowth) {
  uint64_t reduced = 0;
  auto reducer = MakeReducer(AntiCombineOptions(), nullptr, [&reduced]() {
    return std::make_unique<CountingReducer>(&reduced);
  });
  const std::string v(32, 'v');
  // Partition 1 owns 1a (the group key), 1b and 1c; 2d is dropped.
  const std::string payload =
      LazyValue("ik", "1a:" + v + " 2d:" + v + " 1b:" + v + " 1c:" + v);
  constexpr int kRemaps = 1000;
  const std::vector<KV> items(kRemaps, KV("1a", payload));

  // Warm-up: 1b and 1c become resident and stay so (they sort after 1a).
  {
    PayloadIterator it(items);
    reducer->Reduce("1a", &it, &ctx_);
  }
  PayloadIterator it(items);
  const uint64_t before = test_alloc::AllocationCount();
  reducer->Reduce("1a", &it, &ctx_);
  const uint64_t allocs = test_alloc::AllocationCount() - before;
  EXPECT_LE(allocs, 32u);

  reducer->Cleanup(&ctx_);
  EXPECT_EQ(metrics_.remap_calls, 2u * kRemaps);
  EXPECT_EQ(reduced, 3u * 2 * kRemaps);
}

TEST_F(AntiReducerTest, EmptyTaskCleanupIsSafe) {
  auto reducer = MakeReducer();
  reducer->Cleanup(&ctx_);
  EXPECT_TRUE(log_.empty());
}

}  // namespace
}  // namespace anticombine
}  // namespace antimr
