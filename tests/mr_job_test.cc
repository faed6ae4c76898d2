// End-to-end tests of the MapReduce framework: map/shuffle/reduce semantics,
// spilling, combiners, codecs, comparators, and metrics plumbing.
#include <atomic>
#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "datagen/random_text.h"
#include "test_util.h"
#include "workloads/sort.h"
#include "workloads/wordcount.h"

namespace antimr {
namespace {

using testing::Canonicalize;
using testing::MustRun;

class EchoMapper : public Mapper {
 public:
  void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
    ctx->Emit(key, value);
  }
};

class ConcatReducer : public Reducer {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    std::string joined;
    Slice v;
    while (values->Next(&v)) {
      if (!joined.empty()) joined.push_back('|');
      joined.append(v.data(), v.size());
    }
    ctx->Emit(key, joined);
  }
};

JobSpec EchoConcatJob(int reduce_tasks = 3) {
  JobSpec spec;
  spec.name = "echo_concat";
  spec.mapper_factory = []() { return std::make_unique<EchoMapper>(); };
  spec.reducer_factory = []() { return std::make_unique<ConcatReducer>(); };
  spec.num_reduce_tasks = reduce_tasks;
  return spec;
}

TEST(JobRunner, EmptyInput) {
  JobResult result;
  ASSERT_TRUE(RunJob(EchoConcatJob(), {MakeSplit({})}, &result).ok());
  EXPECT_TRUE(result.FlatOutput().empty());
  EXPECT_EQ(result.metrics.input_records, 0u);
}

TEST(JobRunner, SingleRecord) {
  auto out = MustRun(EchoConcatJob(), {MakeSplit({{"k", "v"}})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, "k");
  EXPECT_EQ(out[0].value, "v");
}

TEST(JobRunner, GroupsValuesByKey) {
  std::vector<KV> input = {{"a", "1"}, {"b", "2"}, {"a", "3"}, {"b", "4"},
                           {"a", "5"}};
  auto out = Canonicalize(MustRun(EchoConcatJob(1), MakeSplits(input, 2)));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, "a");
  // Values arrive in (map task, emission) order through the stable merge.
  EXPECT_EQ(out[0].value, "1|3|5");
  EXPECT_EQ(out[1].key, "b");
  EXPECT_EQ(out[1].value, "2|4");
}

TEST(JobRunner, ReduceCallsHappenInKeyOrder) {
  class OrderCheckingReducer : public Reducer {
   public:
    void Setup(const TaskInfo& info, ReduceContext*) override {
      cmp_ = info.key_cmp;
    }
    void Reduce(const Slice& key, ValueIterator* values,
                ReduceContext* ctx) override {
      if (!last_.empty()) {
        EXPECT_LT(cmp_(last_, key), 0) << "keys out of order";
      }
      last_ = key.ToString();
      Slice v;
      while (values->Next(&v)) {
      }
      ctx->Emit(key, "");
    }
    KeyComparator cmp_;
    std::string last_;
  };
  JobSpec spec = EchoConcatJob(2);
  spec.reducer_factory = []() {
    return std::make_unique<OrderCheckingReducer>();
  };
  std::vector<KV> input;
  for (int i = 99; i >= 0; --i) {
    input.push_back({"key" + std::to_string(i), "v"});
  }
  auto out = MustRun(spec, MakeSplits(input, 4));
  EXPECT_EQ(out.size(), 100u);
}

TEST(JobRunner, PartitioningSendsEachKeyToOneTask) {
  std::vector<KV> input;
  for (int i = 0; i < 500; ++i) {
    input.push_back({"k" + std::to_string(i % 50), std::to_string(i)});
  }
  JobResult result;
  ASSERT_TRUE(RunJob(EchoConcatJob(7), MakeSplits(input, 3), &result).ok());
  // Each key must appear in exactly one reduce task's output.
  std::map<std::string, int> task_of_key;
  for (size_t t = 0; t < result.outputs.size(); ++t) {
    for (const KV& kv : result.outputs[t]) {
      auto [it, inserted] = task_of_key.emplace(kv.key, static_cast<int>(t));
      EXPECT_TRUE(inserted) << "key " << kv.key << " in two tasks";
    }
  }
  EXPECT_EQ(task_of_key.size(), 50u);
}

TEST(JobRunner, SpillingPreservesResults) {
  std::vector<KV> input;
  for (int i = 0; i < 2000; ++i) {
    input.push_back({"k" + std::to_string(i % 100),
                     "value_" + std::to_string(i)});
  }
  JobSpec spec = EchoConcatJob(4);
  auto no_spill = Canonicalize(MustRun(spec, MakeSplits(input, 2)));

  spec.map_buffer_bytes = 4096;  // force many spills
  JobMetrics metrics;
  auto with_spill =
      Canonicalize(MustRun(spec, MakeSplits(input, 2), &metrics));
  EXPECT_GT(metrics.map_spills, 2u);
  EXPECT_EQ(no_spill.size(), with_spill.size());
  for (size_t i = 0; i < no_spill.size(); ++i) {
    EXPECT_EQ(no_spill[i].key, with_spill[i].key);
    EXPECT_EQ(no_spill[i].value, with_spill[i].value);
  }
}

TEST(JobRunner, CombinerReducesShuffledRecords) {
  RandomTextConfig cfg;
  cfg.num_lines = 500;
  cfg.vocabulary_words = 50;
  RandomTextGenerator gen(cfg);

  workloads::WordCountConfig wc;
  wc.with_combiner = false;
  JobMetrics no_combiner;
  auto out1 = Canonicalize(
      MustRun(workloads::MakeWordCountJob(wc), gen.MakeSplits(4),
              &no_combiner));

  wc.with_combiner = true;
  JobMetrics with_combiner;
  auto out2 = Canonicalize(
      MustRun(workloads::MakeWordCountJob(wc), gen.MakeSplits(4),
              &with_combiner));

  EXPECT_EQ(out1, out2);
  EXPECT_LT(with_combiner.shuffle_bytes, no_combiner.shuffle_bytes / 2);
  EXPECT_GT(with_combiner.combine_input_records, 0u);
}

TEST(JobRunner, MapOutputCompressionRoundTrips) {
  std::vector<KV> input;
  for (int i = 0; i < 300; ++i) {
    input.push_back({"key" + std::to_string(i % 20),
                     "the quick brown fox " + std::to_string(i)});
  }
  JobSpec plain = EchoConcatJob(3);
  auto expected = Canonicalize(MustRun(plain, MakeSplits(input, 2)));
  for (CodecType codec :
       {CodecType::kSnappyLike, CodecType::kDeflateLike, CodecType::kGzip,
        CodecType::kBzip2Like}) {
    JobSpec spec = EchoConcatJob(3);
    spec.map_output_codec = codec;
    JobMetrics metrics;
    auto actual = Canonicalize(MustRun(spec, MakeSplits(input, 2), &metrics));
    EXPECT_EQ(expected, actual) << CodecTypeName(codec);
    EXPECT_LT(metrics.shuffle_bytes, metrics.emitted_bytes)
        << CodecTypeName(codec) << " should compress this redundant input";
  }
}

TEST(JobRunner, GroupingComparatorEnablesSecondarySort) {
  // Keys are "primary#secondary"; sort by full key, group by primary only:
  // each Reduce call sees its group's values ordered by secondary key.
  auto primary = [](const Slice& k) {
    size_t i = 0;
    while (i < k.size() && k[i] != '#') ++i;
    return Slice(k.data(), i);
  };
  JobSpec spec = EchoConcatJob(2);
  spec.grouping_cmp = [primary](const Slice& a, const Slice& b) {
    return primary(a).compare(primary(b));
  };
  // Secondary sort requires partitioning on the primary key, as in Hadoop.
  class PrimaryPartitioner : public Partitioner {
   public:
    int Partition(const Slice& key, int num_partitions) const override {
      size_t i = 0;
      while (i < key.size() && key[i] != '#') ++i;
      return static_cast<int>(Hash64(key.data(), i) %
                              static_cast<uint64_t>(num_partitions));
    }
  };
  spec.partitioner = std::make_shared<PrimaryPartitioner>();
  std::vector<KV> input = {{"a#3", "x3"}, {"a#1", "x1"}, {"b#2", "y2"},
                           {"a#2", "x2"}, {"b#1", "y1"}};
  auto out = Canonicalize(MustRun(spec, {MakeSplit(input)}));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, "a#1");  // group key = first key of group
  EXPECT_EQ(out[0].value, "x1|x2|x3");
  EXPECT_EQ(out[1].key, "b#1");
  EXPECT_EQ(out[1].value, "y1|y2");
}

TEST(JobRunner, MetricsAccounting) {
  std::vector<KV> input;
  for (int i = 0; i < 100; ++i) input.push_back({"k" + std::to_string(i), "v"});
  JobMetrics m;
  MustRun(EchoConcatJob(4), MakeSplits(input, 2), &m);
  EXPECT_EQ(m.input_records, 100u);
  EXPECT_EQ(m.map_output_records, 100u);
  EXPECT_EQ(m.emitted_records, 100u);
  EXPECT_EQ(m.reduce_input_records, 100u);
  EXPECT_EQ(m.reduce_groups, 100u);
  EXPECT_EQ(m.output_records, 100u);
  EXPECT_GT(m.shuffle_bytes, 0u);
  EXPECT_GT(m.disk_bytes_written, 0u);
  EXPECT_GT(m.disk_bytes_read, 0u);
  EXPECT_GT(m.total_cpu_nanos, 0u);
  EXPECT_GT(m.wall_nanos, 0u);
}

// Hash partitioning that counts its calls; map tasks run concurrently.
class CountingPartitioner : public Partitioner {
 public:
  int Partition(const Slice& key, int num_partitions) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    return HashPartitioner().Partition(key, num_partitions);
  }
  mutable std::atomic<uint64_t> calls{0};
};

// The map task partitions each emitted record exactly once, in the pass
// before each spill's sort or in the single final sort when nothing
// spilled, and times that pass.
TEST(JobRunner, PartitionsEachEmittedRecordOnce) {
  std::vector<KV> input;
  for (int i = 0; i < 2000; ++i) {
    input.push_back({"k" + std::to_string(i % 97), std::to_string(i)});
  }
  for (const size_t buffer_bytes : {size_t{4} << 20, size_t{4096}}) {
    SCOPED_TRACE("map_buffer_bytes=" + std::to_string(buffer_bytes));
    auto partitioner = std::make_shared<CountingPartitioner>();
    JobSpec spec = EchoConcatJob(4);
    spec.partitioner = partitioner;
    spec.map_buffer_bytes = buffer_bytes;
    JobMetrics m;
    const std::vector<KV> out = MustRun(spec, MakeSplits(input, 3), &m);
    EXPECT_EQ(out.size(), 97u);
    EXPECT_EQ(m.emitted_records, input.size());
    EXPECT_EQ(partitioner->calls.load(), m.emitted_records);
    EXPECT_GT(m.cpu.partition_fn, 0u);
    if (buffer_bytes == 4096) {
      EXPECT_GT(m.map_spills, 10u);
    } else {
      EXPECT_EQ(m.map_spills, 0u);
    }
  }
}

// A partition outside [0, num_reduce_tasks) fails the job with a permanent
// InvalidArgument naming the value and the task count, rather than losing
// the record (negative) or folding it into the last reduce task (too big).
TEST(JobRunner, OutOfRangePartitionFailsTheJob) {
  class BadPartitioner : public Partitioner {
   public:
    int Partition(const Slice& key, int num_partitions) const override {
      if (key == Slice("neg")) return -1;
      if (key == Slice("big")) return num_partitions;
      return 0;
    }
  };
  for (const std::string bad : {"neg", "big"}) {
    SCOPED_TRACE(bad);
    JobSpec spec = EchoConcatJob(3);
    spec.partitioner = std::make_shared<BadPartitioner>();
    JobResult result;
    const Status st = RunJob(
        spec, {MakeSplit({{"a", "1"}, {bad, "2"}, {"b", "3"}})}, &result);
    ASSERT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_FALSE(st.IsTransient());
    const std::string want =
        bad == "neg" ? "partition -1 " : "partition 3 ";
    EXPECT_NE(st.ToString().find(want), std::string::npos) << st.ToString();
    EXPECT_NE(st.ToString().find("3 reduce tasks"), std::string::npos)
        << st.ToString();
  }
}

TEST(JobRunner, ValidatesSpec) {
  JobSpec spec;  // no mapper/reducer
  JobResult result;
  EXPECT_TRUE(RunJob(spec, {MakeSplit({})}, &result)
                  .IsInvalidArgument());
  spec = EchoConcatJob();
  spec.num_reduce_tasks = 0;
  EXPECT_TRUE(RunJob(spec, {MakeSplit({})}, &result).IsInvalidArgument());
}

TEST(JobRunner, ManyMapTasksManyReducers) {
  std::vector<KV> input;
  for (int i = 0; i < 1000; ++i) {
    input.push_back({"k" + std::to_string(i % 37), std::to_string(i)});
  }
  auto expected = Canonicalize(MustRun(EchoConcatJob(1), {MakeSplit(input)}));
  auto actual =
      Canonicalize(MustRun(EchoConcatJob(16), MakeSplits(input, 11)));
  // Group contents identical regardless of parallelism.
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].key, actual[i].key);
    EXPECT_EQ(expected[i].value, actual[i].value);
  }
}

TEST(JobRunner, SortWorkloadOrdersOutputWithinTask) {
  RandomTextConfig cfg;
  cfg.num_lines = 200;
  RandomTextGenerator gen(cfg);
  workloads::SortConfig sc;
  sc.num_reduce_tasks = 3;
  JobResult result;
  ASSERT_TRUE(RunJob(workloads::MakeSortJob(sc), gen.MakeSplits(3), &result)
                  .ok());
  for (const auto& task_output : result.outputs) {
    for (size_t i = 1; i < task_output.size(); ++i) {
      EXPECT_LE(task_output[i - 1].key, task_output[i].key);
    }
  }
}

}  // namespace
}  // namespace antimr
