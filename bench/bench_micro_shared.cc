// Micro-benchmarks (google-benchmark) for the Shared structure: add/pop
// throughput in memory, under spilling, and with reduce-phase combining —
// the ablation of Section 5's design knobs.
#include <benchmark/benchmark.h>

#include "anticombine/shared.h"
#include "common/random.h"
#include "mr/metrics.h"

namespace antimr {
namespace anticombine {
namespace {

class SumCombiner : public Reducer {
 public:
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    uint64_t total = 0;
    Slice v;
    while (values->Next(&v)) {
      total += static_cast<uint64_t>(std::strtoull(v.ToString().c_str(),
                                                   nullptr, 10));
    }
    ctx->Emit(key, std::to_string(total));
  }
};

Shared::Options MakeOptions(Env* env, JobMetrics* metrics,
                            size_t memory_limit, Reducer* combiner) {
  Shared::Options o;
  o.key_cmp = BytewiseCompare;
  o.grouping_cmp = BytewiseCompare;
  o.env = env;
  o.file_prefix = "bm";
  o.memory_limit_bytes = memory_limit;
  o.combiner = combiner;
  o.metrics = metrics;
  return o;
}

void RunAddPop(benchmark::State& state, size_t memory_limit, bool combine) {
  auto env = NewMemEnv();
  const int num_keys = static_cast<int>(state.range(0));
  SumCombiner combiner;
  Random rng(7);
  std::vector<std::string> keys;
  for (int i = 0; i < num_keys; ++i) {
    keys.push_back("key" + std::to_string(i));
  }
  uint64_t records = 0;
  for (auto _ : state) {
    JobMetrics metrics;
    Shared shared(MakeOptions(env.get(), &metrics, memory_limit,
                              combine ? &combiner : nullptr));
    for (int i = 0; i < 20000; ++i) {
      shared.Add(keys[rng.Uniform(static_cast<uint64_t>(num_keys))], "1");
      ++records;
    }
    Slice key;
    ValueIterator* values = nullptr;
    while (shared.PopMinGroup(&key, &values)) {
      Slice value;
      while (values->Next(&value)) benchmark::DoNotOptimize(value);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(records));
}

void BM_SharedInMemory(benchmark::State& state) {
  RunAddPop(state, /*memory_limit=*/1 << 30, /*combine=*/false);
}

void BM_SharedSpilling(benchmark::State& state) {
  RunAddPop(state, /*memory_limit=*/32 * 1024, /*combine=*/false);
}

void BM_SharedWithCombine(benchmark::State& state) {
  RunAddPop(state, /*memory_limit=*/32 * 1024, /*combine=*/true);
}

BENCHMARK(BM_SharedInMemory)->Arg(100)->Arg(10000);
BENCHMARK(BM_SharedSpilling)->Arg(100)->Arg(10000);
BENCHMARK(BM_SharedWithCombine)->Arg(100)->Arg(10000);

}  // namespace
}  // namespace anticombine
}  // namespace antimr
