// Micro-benchmarks (google-benchmark) for the map task's spill-path sort:
// MapOutputBuffer::AssignPartitions + Sort + a drain of every partition,
// over one spill's worth of records (the wordcount_spill shape: ~8.5k
// records, 8 reduce partitions; ZipfWords also runs with 256 partitions of
// ~33 records each). Four key shapes:
//   ZipfWords     — WordCount's Zipf-distributed 3–10 letter words;
//   SharedPrefix  — Query-Suggestion-like keys sharing a 14-byte prefix,
//                   the worst case for the tie pass after the prefix sort;
//   Distinct      — all-distinct decimal keys;
//   CustomCmp     — the Zipf words under a reverse byte order, which
//                   takes the comparator path.
// Filling the buffer is excluded from the timing.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "mr/map_output_buffer.h"

namespace antimr {
namespace {

constexpr size_t kRecords = 8500;

std::string RandomWord(Random* rng) {
  std::string word(3 + rng->Uniform(8), 'a');
  for (char& c : word) c = static_cast<char>('a' + rng->Uniform(26));
  return word;
}

std::vector<std::string> ZipfWordKeys() {
  Random rng(11);
  std::vector<std::string> vocabulary;
  for (int i = 0; i < 3000; ++i) vocabulary.push_back(RandomWord(&rng));
  ZipfSampler sampler(vocabulary.size(), 1.0);
  std::vector<std::string> keys;
  for (size_t i = 0; i < kRecords; ++i) {
    keys.push_back(vocabulary[sampler.Sample(&rng)]);
  }
  return keys;
}

std::vector<std::string> SharedPrefixKeys() {
  Random rng(12);
  std::vector<std::string> keys;
  for (size_t i = 0; i < kRecords; ++i) {
    keys.push_back("how to make a " + RandomWord(&rng));
  }
  return keys;
}

std::vector<std::string> DistinctKeys() {
  Random rng(13);
  std::vector<std::string> keys;
  for (size_t i = 0; i < kRecords; ++i) {
    keys.push_back(std::to_string(rng.Next()) + "/" + std::to_string(i));
  }
  return keys;
}

int ReverseCompare(const Slice& a, const Slice& b) { return b.compare(a); }

void RunSortDrain(benchmark::State& state, const std::vector<std::string>& keys,
                  const KeyComparator& cmp) {
  const int partitions = static_cast<int>(state.range(0));
  MapOutputBuffer buffer(partitions, cmp);
  HashPartitioner partitioner;
  RecordBatch batch;
  BatchOptions opts;
  for (auto _ : state) {
    state.PauseTiming();
    buffer.Clear();
    for (const std::string& key : keys) buffer.Add(key, "1");
    state.ResumeTiming();
    if (!buffer.AssignPartitions(partitioner).ok()) {
      state.SkipWithError("AssignPartitions failed");
      break;
    }
    buffer.Sort();
    for (int p = 0; p < partitions; ++p) {
      auto stream = buffer.PartitionStream(p);
      while (stream->NextBatch(&batch, opts).ok() && !batch.empty()) {
        benchmark::DoNotOptimize(batch.back());
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(keys.size()));
}

void BM_MapBufferZipfWords(benchmark::State& state) {
  RunSortDrain(state, ZipfWordKeys(), BytewiseCompare);
}

void BM_MapBufferSharedPrefix(benchmark::State& state) {
  RunSortDrain(state, SharedPrefixKeys(), BytewiseCompare);
}

void BM_MapBufferDistinct(benchmark::State& state) {
  RunSortDrain(state, DistinctKeys(), BytewiseCompare);
}

void BM_MapBufferCustomCmp(benchmark::State& state) {
  RunSortDrain(state, ZipfWordKeys(), ReverseCompare);
}

BENCHMARK(BM_MapBufferZipfWords)->Arg(8)->Arg(256);
BENCHMARK(BM_MapBufferSharedPrefix)->Arg(8);
BENCHMARK(BM_MapBufferDistinct)->Arg(8);
BENCHMARK(BM_MapBufferCustomCmp)->Arg(8);

}  // namespace
}  // namespace antimr
