// Shared helpers for the test suite.
#ifndef ANTIMR_TESTS_TEST_UTIL_H_
#define ANTIMR_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "antimr.h"

namespace antimr {
namespace testing {

/// Partition = the key's leading digit, modulo the partition count (an
/// empty key goes to partition 0).
class DigitPartitioner : public Partitioner {
 public:
  int Partition(const Slice& key, int num_partitions) const override {
    return (key.empty() ? 0 : key[0] - '0') % num_partitions;
  }
};

/// Sort records by (key, value) so multiset comparisons are order-free.
inline std::vector<KV> Canonicalize(std::vector<KV> records) {
  std::sort(records.begin(), records.end(), [](const KV& a, const KV& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.value < b.value;
  });
  return records;
}

/// Run a job and return its flattened output; fails the test on error.
inline std::vector<KV> MustRun(const JobSpec& spec,
                               const std::vector<InputSplit>& splits,
                               JobMetrics* metrics = nullptr) {
  JobResult result;
  Status st = RunJob(spec, splits, &result);
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (metrics != nullptr) *metrics = result.metrics;
  return result.FlatOutput();
}

/// Assert that the Anti-Combining-transformed job produces exactly the same
/// output multiset as the original program — the paper's core correctness
/// claim for the syntactic transformation.
inline void ExpectEquivalent(const JobSpec& original,
                             const std::vector<InputSplit>& splits,
                             const anticombine::AntiCombineOptions& options,
                             JobMetrics* original_metrics = nullptr,
                             JobMetrics* anti_metrics = nullptr) {
  const std::vector<KV> expected =
      Canonicalize(MustRun(original, splits, original_metrics));
  const JobSpec transformed =
      anticombine::EnableAntiCombining(original, options);
  const std::vector<KV> actual =
      Canonicalize(MustRun(transformed, splits, anti_metrics));
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].key, actual[i].key) << "at record " << i;
    ASSERT_EQ(expected[i].value, actual[i].value)
        << "at record " << i << " key=" << expected[i].key;
  }
}

}  // namespace testing
}  // namespace antimr

#endif  // ANTIMR_TESTS_TEST_UTIL_H_
