// Tests of the Shared structure: ordering, grouping, spilling, spill
// merging, and reduce-phase combining.
#include "anticombine/shared.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "mr/metrics.h"

namespace antimr {
namespace anticombine {
namespace {

/// Pop the minimal group and copy its key and values out of the views,
/// appending the values to *values.
bool PopGroup(Shared* shared, std::string* key,
              std::vector<std::string>* values) {
  Slice group_key;
  ValueIterator* it = nullptr;
  if (!shared->PopMinGroup(&group_key, &it)) return false;
  key->assign(group_key.data(), group_key.size());
  Slice value;
  while (it->Next(&value)) values->push_back(value.ToString());
  return true;
}

class SharedTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = NewMemEnv(); }

  Shared::Options BaseOptions() {
    Shared::Options o;
    o.key_cmp = BytewiseCompare;
    o.grouping_cmp = BytewiseCompare;
    o.env = env_.get();
    o.file_prefix = "t";
    o.metrics = &metrics_;
    return o;
  }

  /// Drain into a map key -> values (in pop order).
  std::map<std::string, std::vector<std::string>> DrainAll(Shared* shared) {
    std::map<std::string, std::vector<std::string>> out;
    std::string last_key;
    bool first = true;
    std::string key;
    std::vector<std::string> values;
    while (shared->PeekMinKey(&key)) {
      values.clear();
      std::string group_key;
      EXPECT_TRUE(PopGroup(shared, &group_key, &values));
      if (!first) {
        EXPECT_GT(group_key, last_key) << "groups must pop in key order";
      }
      first = false;
      last_key = group_key;
      out[group_key] = values;
    }
    EXPECT_TRUE(shared->Empty());
    return out;
  }

  std::unique_ptr<Env> env_;
  JobMetrics metrics_;
};

TEST_F(SharedTest, EmptyInitially) {
  Shared shared(BaseOptions());
  EXPECT_TRUE(shared.Empty());
  std::string key;
  EXPECT_FALSE(shared.PeekMinKey(&key));
  std::vector<std::string> values;
  EXPECT_FALSE(PopGroup(&shared, &key, &values));
}

TEST_F(SharedTest, SingleRecord) {
  Shared shared(BaseOptions());
  shared.Add("k", "v");
  std::string key;
  ASSERT_TRUE(shared.PeekMinKey(&key));
  EXPECT_EQ(key, "k");
  auto all = DrainAll(&shared);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all["k"], std::vector<std::string>{"v"});
}

TEST_F(SharedTest, PopsInKeyOrder) {
  Shared shared(BaseOptions());
  shared.Add("delta", "4");
  shared.Add("alpha", "1");
  shared.Add("charlie", "3");
  shared.Add("bravo", "2");
  auto all = DrainAll(&shared);  // DrainAll asserts ordering
  EXPECT_EQ(all.size(), 4u);
}

TEST_F(SharedTest, MultipleValuesPerKey) {
  Shared shared(BaseOptions());
  shared.Add("k", "1");
  shared.Add("k", "2");
  shared.Add("k", "3");
  auto all = DrainAll(&shared);
  EXPECT_EQ(all["k"], (std::vector<std::string>{"1", "2", "3"}));
}

TEST_F(SharedTest, SpillsWhenOverBudget) {
  Shared::Options options = BaseOptions();
  options.memory_limit_bytes = 256;
  Shared shared(options);
  std::map<std::string, std::vector<std::string>> expected;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key" + std::to_string(i % 37);
    const std::string value = "value_" + std::to_string(i);
    shared.Add(key, value);
    expected[key].push_back(value);
  }
  EXPECT_GT(metrics_.shared_spills, 0u);
  auto all = DrainAll(&shared);
  ASSERT_EQ(all.size(), expected.size());
  for (auto& [key, values] : expected) {
    // Pop order across memory + spills must be stable per key; compare as
    // multisets since spill boundaries interleave.
    std::vector<std::string> got = all[key];
    std::sort(got.begin(), got.end());
    std::sort(values.begin(), values.end());
    EXPECT_EQ(got, values) << key;
  }
}

TEST_F(SharedTest, SpillMergeKeepsData) {
  Shared::Options options = BaseOptions();
  options.memory_limit_bytes = 128;
  options.spill_merge_threshold = 3;
  Shared shared(options);
  size_t total = 0;
  for (int i = 0; i < 400; ++i) {
    shared.Add("k" + std::to_string(i % 50), std::string(20, 'x'));
    ++total;
  }
  EXPECT_GT(metrics_.shared_spill_merges, 0u);
  auto all = DrainAll(&shared);
  size_t drained = 0;
  for (const auto& [key, values] : all) drained += values.size();
  EXPECT_EQ(drained, total);
}

TEST_F(SharedTest, InterleavedAddAndPop) {
  Shared shared(BaseOptions());
  shared.Add("b", "b1");
  shared.Add("d", "d1");
  std::string key;
  std::vector<std::string> values;
  ASSERT_TRUE(PopGroup(&shared, &key, &values));
  EXPECT_EQ(key, "b");
  // Add keys after popping; they must surface in order.
  shared.Add("c", "c1");
  shared.Add("e", "e1");
  values.clear();
  ASSERT_TRUE(PopGroup(&shared, &key, &values));
  EXPECT_EQ(key, "c");
  values.clear();
  ASSERT_TRUE(PopGroup(&shared, &key, &values));
  EXPECT_EQ(key, "d");
  values.clear();
  ASSERT_TRUE(PopGroup(&shared, &key, &values));
  EXPECT_EQ(key, "e");
  EXPECT_TRUE(shared.Empty());
}

TEST_F(SharedTest, ReAddingPoppedKeyWorks) {
  Shared shared(BaseOptions());
  shared.Add("k", "1");
  std::string key;
  std::vector<std::string> values;
  ASSERT_TRUE(PopGroup(&shared, &key, &values));
  shared.Add("k", "2");
  values.clear();
  ASSERT_TRUE(PopGroup(&shared, &key, &values));
  EXPECT_EQ(values, std::vector<std::string>{"2"});
}

TEST_F(SharedTest, GroupingComparatorMergesKeys) {
  Shared::Options options = BaseOptions();
  // Group on the first character only.
  options.grouping_cmp = [](const Slice& a, const Slice& b) {
    const char ca = a.empty() ? 0 : a[0];
    const char cb = b.empty() ? 0 : b[0];
    return (ca < cb) ? -1 : (ca > cb ? 1 : 0);
  };
  Shared shared(options);
  shared.Add("a2", "second");
  shared.Add("a1", "first");
  shared.Add("b1", "other");
  std::string key;
  std::vector<std::string> values;
  ASSERT_TRUE(PopGroup(&shared, &key, &values));
  EXPECT_EQ(key, "a1");
  // Values of a1 and a2, in key order.
  EXPECT_EQ(values, (std::vector<std::string>{"first", "second"}));
  values.clear();
  ASSERT_TRUE(PopGroup(&shared, &key, &values));
  EXPECT_EQ(key, "b1");
}

TEST_F(SharedTest, GroupSpansMemoryAndSpills) {
  Shared::Options options = BaseOptions();
  options.memory_limit_bytes = 64;
  Shared shared(options);
  // First adds spill; later adds for the same key stay in memory.
  shared.Add("k", std::string(100, 'a'));  // spills immediately
  shared.Add("k", "b");
  std::string key;
  std::vector<std::string> values;
  ASSERT_TRUE(PopGroup(&shared, &key, &values));
  EXPECT_EQ(key, "k");
  ASSERT_EQ(values.size(), 2u);
}

// A summing combiner over decimal-string values.
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

TEST_F(SharedTest, CombinerCollapsesValues) {
  SumCombiner combiner;
  Shared::Options options = BaseOptions();
  options.combiner = &combiner;
  Shared shared(options);
  for (int i = 0; i < 100; ++i) shared.Add("k", "1");
  // Reduce-phase combining keeps one value per key.
  EXPECT_LT(shared.memory_usage(), 64u);
  auto all = DrainAll(&shared);
  EXPECT_EQ(all["k"], std::vector<std::string>{"100"});
  EXPECT_GT(metrics_.combine_input_records, 0u);
}

TEST_F(SharedTest, CombinerPreventsSpills) {
  SumCombiner combiner;
  Shared::Options options = BaseOptions();
  options.combiner = &combiner;
  options.memory_limit_bytes = 2048;
  Shared shared(options);
  // 20 keys x 1000 values: without combining this would spill many times.
  for (int i = 0; i < 20000; ++i) {
    shared.Add("key" + std::to_string(i % 20), "1");
  }
  EXPECT_EQ(metrics_.shared_spills, 0u);
  auto all = DrainAll(&shared);
  EXPECT_EQ(all.size(), 20u);
  for (const auto& [key, values] : all) {
    EXPECT_EQ(values, std::vector<std::string>{"1000"});
  }
}

TEST_F(SharedTest, SpillFilesRemovedOnDestruction) {
  Shared::Options options = BaseOptions();
  options.memory_limit_bytes = 64;
  {
    Shared shared(options);
    for (int i = 0; i < 50; ++i) {
      shared.Add("k" + std::to_string(i), std::string(40, 'z'));
    }
    EXPECT_GT(metrics_.shared_spills, 0u);
  }
  std::vector<std::string> files;
  ASSERT_TRUE(env_->ListFiles(&files).ok());
  EXPECT_TRUE(files.empty());
}

TEST_F(SharedTest, BinarySafeKeysAndValues) {
  Shared shared(BaseOptions());
  const std::string key("\x00\x01", 2);
  const std::string value("\xff\x00\xfe", 3);
  shared.Add(key, value);
  std::string popped;
  std::vector<std::string> values;
  ASSERT_TRUE(PopGroup(&shared, &popped, &values));
  EXPECT_EQ(popped, key);
  EXPECT_EQ(values, std::vector<std::string>{value});
}

TEST_F(SharedTest, PeekMinKeySliceOverloadViewsInternedKey) {
  Shared shared(BaseOptions());
  shared.Add(Slice("banana"), Slice("v1"));
  shared.Add(Slice("apple"), Slice("v2"));
  Slice min;
  ASSERT_TRUE(shared.PeekMinKey(&min));
  EXPECT_EQ(min.ToString(), "apple");
  // Peek again: same interned bytes, not a fresh copy.
  Slice again;
  ASSERT_TRUE(shared.PeekMinKey(&again));
  EXPECT_EQ(again.data(), min.data());
  // The string overload agrees.
  std::string min_str;
  ASSERT_TRUE(shared.PeekMinKey(&min_str));
  EXPECT_EQ(min_str, "apple");
}

// Allocation-count regression guard for the interned-key, one-run-per-key
// layout. Adding values to a resident key must neither copy the key (the
// old table probe built a std::string per Add) nor allocate per value (the
// old value list owned one std::string per value): the key's run grows
// geometrically, so 1000 Adds cost a handful of reallocations. Keys and
// values are 32 chars, beyond small-string optimization, so any per-Add
// copy would show up in the counter.
TEST_F(SharedTest, AddToExistingKeyDoesNotCopyKey) {
  Shared shared(BaseOptions());
  const std::string key(32, 'k');
  const std::string value(32, 'v');
  // Warm up: intern the key, size the containers.
  for (int i = 0; i < 8; ++i) shared.Add(key, value);

  const uint64_t before = test_alloc::AllocationCount();
  constexpr int kAdds = 1000;
  for (int i = 0; i < kAdds; ++i) shared.Add(key, value);
  const uint64_t allocs = test_alloc::AllocationCount() - before;

  // Only the run's geometric growth allocates.
  EXPECT_LE(allocs, 32u)
      << "per-Add allocations have crept back into Shared::AddInternal";
}

// The views a pop hands out stay intact until the next Add or pop, for a
// group whose values merge memory with several spills.
TEST_F(SharedTest, PoppedViewsOfGroupSpanningSpillsReadBackIntact) {
  Shared::Options options = BaseOptions();
  options.memory_limit_bytes = 64;
  Shared shared(options);
  std::vector<std::string> expected;
  for (int i = 0; i < 5; ++i) {
    // Each 80-byte value spills; the short ones stay in memory between.
    expected.push_back(std::string(80, static_cast<char>('a' + i)));
    expected.push_back("short" + std::to_string(i));
    shared.Add("k", expected[expected.size() - 2]);
    shared.Add("k", expected.back());
  }
  shared.Add("z", "after");
  EXPECT_GT(metrics_.shared_spills, 1u);

  Slice key;
  ValueIterator* it = nullptr;
  ASSERT_TRUE(shared.PopMinGroup(&key, &it));
  std::vector<Slice> views;
  Slice value;
  while (it->Next(&value)) views.push_back(value);
  // Read back only after the iterator is exhausted: every view must still
  // hold its bytes.
  EXPECT_EQ(key.ToString(), "k");
  std::vector<std::string> got;
  for (const Slice& v : views) got.push_back(v.ToString());
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);

  auto rest = DrainAll(&shared);
  EXPECT_EQ(rest["z"], std::vector<std::string>{"after"});
}

// A grouping-comparator group pops several keys' runs at once; the views
// into all of them stay intact together, in key order.
TEST_F(SharedTest, PoppedViewsOfMultiKeyGroupReadBackIntact) {
  Shared::Options options = BaseOptions();
  options.grouping_cmp = [](const Slice& a, const Slice& b) {
    const char ca = a.empty() ? 0 : a[0];
    const char cb = b.empty() ? 0 : b[0];
    return (ca < cb) ? -1 : (ca > cb ? 1 : 0);
  };
  Shared shared(options);
  const std::vector<std::string> keys = {"a3", "a1", "a2"};
  for (int round = 0; round < 4; ++round) {
    for (const std::string& key : keys) {
      shared.Add(key, key + std::string(40, 'x') + std::to_string(round));
    }
  }
  shared.Add("b1", "other");

  Slice key;
  ValueIterator* it = nullptr;
  ASSERT_TRUE(shared.PopMinGroup(&key, &it));
  std::vector<Slice> views;
  Slice value;
  while (it->Next(&value)) views.push_back(value);
  EXPECT_EQ(key.ToString(), "a1");
  std::vector<std::string> expected;
  for (const char* k : {"a1", "a2", "a3"}) {
    for (int round = 0; round < 4; ++round) {
      expected.push_back(k + std::string(40, 'x') + std::to_string(round));
    }
  }
  std::vector<std::string> got;
  for (const Slice& v : views) got.push_back(v.ToString());
  EXPECT_EQ(got, expected);

  std::string next;
  std::vector<std::string> values;
  ASSERT_TRUE(PopGroup(&shared, &next, &values));
  EXPECT_EQ(next, "b1");
  EXPECT_EQ(values, std::vector<std::string>{"other"});
}

// Keeps the two largest values of a key, largest first.
class Top2Combiner : public Reducer {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    std::vector<long> all;
    Slice v;
    while (values->Next(&v)) all.push_back(std::stol(v.ToString()));
    std::sort(all.rbegin(), all.rend());
    for (size_t i = 0; i < all.size() && i < 2; ++i) {
      ctx->Emit(key, std::to_string(all[i]));
    }
  }
};

// A combine rewrites the key's run from the Combiner's output. With
// combines at 2 values and then whenever the run reaches twice its
// post-combine size, adding 1..10 combines 2 + 4 + 4 + 4 + 4 = 18 values
// into 2 each time, and memory_usage counts key and value bytes only.
TEST_F(SharedTest, CombinerOutputRewritesRun) {
  Top2Combiner combiner;
  Shared::Options options = BaseOptions();
  options.combiner = &combiner;
  Shared shared(options);
  for (int i = 1; i <= 10; ++i) shared.Add("k", std::to_string(i));
  EXPECT_EQ(metrics_.combine_input_records, 18u);
  EXPECT_EQ(metrics_.combine_output_records, 10u);
  EXPECT_EQ(shared.memory_usage(), 4u);  // "k" + "10" + "9"
  auto all = DrainAll(&shared);
  EXPECT_EQ(all["k"], (std::vector<std::string>{"10", "9"}));
}

// Sums a key's values and also emits one marker record under another key.
class SumAndMarkCombiner : public Reducer {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    long total = 0;
    Slice v;
    while (values->Next(&v)) total += std::stol(v.ToString());
    ctx->Emit(key, std::to_string(total));
    ctx->Emit("other", "m");
  }
};

// Combiner output under a different key lands in that key's run, which is
// not combined again; the combined key's run keeps only its own output.
TEST_F(SharedTest, CombinerOutputUnderOtherKeyIsKept) {
  SumAndMarkCombiner combiner;
  Shared::Options options = BaseOptions();
  options.combiner = &combiner;
  Shared shared(options);
  for (int i = 0; i < 4; ++i) shared.Add("k", "1");
  // Combines fire at the 2nd, 3rd and 4th Add (each leaves one value).
  EXPECT_EQ(metrics_.combine_input_records, 6u);
  EXPECT_EQ(metrics_.combine_output_records, 6u);
  EXPECT_EQ(shared.memory_usage(), 10u);  // "k" + "4" + "other" + 3 x "m"
  auto all = DrainAll(&shared);
  EXPECT_EQ(all["k"], std::vector<std::string>{"4"});
  EXPECT_EQ(all["other"], (std::vector<std::string>{"m", "m", "m"}));
}

}  // namespace
}  // namespace anticombine
}  // namespace antimr
