// E3 (infrastructure) — cost of the record path itself, not a paper figure.
// Compares the zero-copy record path (arena-interned RecordRefs in the map
// output buffer, slice views on the run-file read path, view-based
// grouping) against a faithful re-creation of the pre-refactor string
// path (owning std::string copies at emit, at decode, and per grouped
// value) on the two shuffle-heavy workload shapes: WordCount's many tiny
// records and the theta-join's wide cloud reports.
//
// Both paths push the same records through the same partitioner, the same
// sort order, and the same run-file encode/decode machinery; they differ
// only in how records are owned in between. Two costs are charged:
//   bytes_copied — payload bytes materialized into owned storage (counted
//                  at every copy site each design performs, including the
//                  shared encode step both pay)
//   heap_allocs  — real operator-new calls, measured by a replacement
//                  global allocator
// The refactor's acceptance bar is a >=25% per-record reduction in both.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "datagen/cloud.h"
#include "datagen/random_text.h"
#include "io/run_file.h"
#include "mr/map_output_buffer.h"

// ---------------------------------------------------------------------------
// Counting allocator: every heap allocation in the process bumps the
// counter; per-path costs are deltas around the measured region.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace antimr;         // NOLINT
using namespace antimr::bench;  // NOLINT

namespace {

constexpr int kPartitions = 8;

int PartitionOf(const Slice& key) {
  return static_cast<int>(Hash64(key) % kPartitions);
}

/// The emitted (pre-shuffle) record stream of one workload, owned once and
/// fed identically to both paths.
struct Workload {
  std::string name;
  std::vector<std::pair<std::string, std::string>> records;
};

Workload WordCountEmits() {
  RandomTextConfig rc;
  rc.num_lines = 6000;
  rc.words_per_line = 40;
  rc.vocabulary_words = 3000;
  RandomTextGenerator gen(rc);
  Workload w;
  w.name = "wordcount";
  for (const KV& line : gen.Generate()) {
    size_t pos = 0;
    const std::string& text = line.value;
    while (pos < text.size()) {
      size_t space = text.find(' ', pos);
      if (space == std::string::npos) space = text.size();
      if (space > pos) w.records.emplace_back(text.substr(pos, space - pos), "1");
      pos = space + 1;
    }
  }
  return w;
}

Workload ThetaJoinEmits() {
  CloudConfig cc;
  cc.num_records = 40000;
  CloudGenerator gen(cc);
  Workload w;
  w.name = "theta_join";
  // The 1-Bucket-Theta shuffle keys each wide report by its target region
  // row; the payload is the full 28-attribute record.
  for (const KV& kv : gen.Generate()) {
    CloudReport report;
    CloudGenerator::ParseReport(kv.value, &report);
    w.records.emplace_back("row" + std::to_string(report.date % 16), kv.value);
  }
  return w;
}

struct PathStats {
  uint64_t records = 0;
  uint64_t payload_bytes = 0;
  uint64_t bytes_copied = 0;
  uint64_t heap_allocs = 0;
  uint64_t wall_nanos = 0;
  uint64_t checksum = 0;  // consumption proof; must match across paths
};

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void WritePartitionRun(Env* env, const std::string& fname, KVStream* stream,
                       uint64_t* bytes_copied) {
  std::unique_ptr<WritableFile> file;
  ANTIMR_CHECK_OK(env->NewWritableFile(fname, &file));
  RunWriter writer(std::move(file));
  while (stream->Valid()) {
    // Encoding into the run buffer copies the payload; both paths pay it.
    *bytes_copied += stream->key().size() + stream->value().size();
    ANTIMR_CHECK_OK(writer.Add(stream->key(), stream->value()));
    ANTIMR_CHECK_OK(stream->Next());
  }
  ANTIMR_CHECK_OK(writer.Close());
}

// ---------------------------------------------------------------------------
// Zero-copy path: MapOutputBuffer (arena-interned RecordRefs) -> run files
// -> RunReader slice views -> view-based grouping (the group key is
// materialized once per group, values are consumed as views).
// ---------------------------------------------------------------------------
PathStats RunZeroCopyPath(const Workload& w) {
  PathStats stats;
  std::unique_ptr<Env> env = NewMemEnv();
  const uint64_t alloc_start = g_allocs.load(std::memory_order_relaxed);
  const uint64_t t0 = NowNanos();

  MapOutputBuffer buffer(kPartitions, BytewiseCompare);
  for (const auto& [k, v] : w.records) {
    buffer.Add(k, v);
    stats.payload_bytes += k.size() + v.size();
    ++stats.records;
  }
  // Interning is the path's one materialization: key+value into the arena.
  stats.bytes_copied += buffer.arena_bytes_used();
  ANTIMR_CHECK_OK(buffer.AssignPartitions(HashPartitioner()));
  buffer.Sort();
  for (int p = 0; p < kPartitions; ++p) {
    auto stream = buffer.PartitionStream(p);
    WritePartitionRun(env.get(), "zc" + std::to_string(p), stream.get(),
                      &stats.bytes_copied);
  }
  buffer.Clear();

  // Reduce-side consumption: stream each sorted partition, detect group
  // boundaries on the key view, copy only the group key.
  std::string group_key;
  for (int p = 0; p < kPartitions; ++p) {
    std::unique_ptr<KVStream> stream;
    ANTIMR_CHECK_OK(OpenRun(env.get(), "zc" + std::to_string(p), &stream));
    bool in_group = false;
    while (stream->Valid()) {
      const Slice key = stream->key();
      const Slice value = stream->value();
      if (!in_group || Slice(group_key) != key) {
        group_key.assign(key.data(), key.size());
        stats.bytes_copied += key.size();
        in_group = true;
      }
      stats.checksum += Hash64(key) ^ Hash64(value);
      ANTIMR_CHECK_OK(stream->Next());
    }
  }

  stats.wall_nanos = NowNanos() - t0;
  stats.heap_allocs = g_allocs.load(std::memory_order_relaxed) - alloc_start;
  return stats;
}

// ---------------------------------------------------------------------------
// String baseline: the pre-refactor ownership model. Emit copies key and
// value into owning strings; the read path materializes every record into
// strings (the old RunReader kept std::string key_/value_) and grouping
// copies each value into a vector<std::string> (the old Shared/reduce
// accumulation).
// ---------------------------------------------------------------------------
PathStats RunStringBaselinePath(const Workload& w) {
  PathStats stats;
  std::unique_ptr<Env> env = NewMemEnv();
  const uint64_t alloc_start = g_allocs.load(std::memory_order_relaxed);
  const uint64_t t0 = NowNanos();

  std::vector<std::vector<std::pair<std::string, std::string>>> parts(
      kPartitions);
  for (const auto& [k, v] : w.records) {
    parts[PartitionOf(k)].emplace_back(k, v);  // owning copies at emit
    stats.bytes_copied += k.size() + v.size();
    stats.payload_bytes += k.size() + v.size();
    ++stats.records;
  }
  for (auto& part : parts) {
    std::stable_sort(part.begin(), part.end(),
                     [](const auto& a, const auto& b) {
                       return BytewiseCompare(a.first, b.first) < 0;
                     });
  }
  for (int p = 0; p < kPartitions; ++p) {
    VectorStream stream(&parts[p]);
    WritePartitionRun(env.get(), "sb" + std::to_string(p), &stream,
                      &stats.bytes_copied);
    parts[p].clear();
    parts[p].shrink_to_fit();
  }

  std::string key_buf;
  std::string value_buf;
  for (int p = 0; p < kPartitions; ++p) {
    std::unique_ptr<KVStream> stream;
    ANTIMR_CHECK_OK(OpenRun(env.get(), "sb" + std::to_string(p), &stream));
    std::string group_key;
    std::vector<std::string> group_values;
    bool in_group = false;
    auto consume_group = [&] {
      for (const std::string& v : group_values) {
        stats.checksum += Hash64(group_key) ^ Hash64(v);
      }
      group_values.clear();
    };
    while (stream->Valid()) {
      // Old reader semantics: every record decoded into owning strings.
      key_buf.assign(stream->key().data(), stream->key().size());
      value_buf.assign(stream->value().data(), stream->value().size());
      stats.bytes_copied += key_buf.size() + value_buf.size();
      if (!in_group || group_key != key_buf) {
        consume_group();
        group_key = key_buf;
        stats.bytes_copied += group_key.size();
        in_group = true;
      }
      group_values.push_back(value_buf);  // owned per-value accumulation
      stats.bytes_copied += value_buf.size();
      ANTIMR_CHECK_OK(stream->Next());
    }
    consume_group();
  }

  stats.wall_nanos = NowNanos() - t0;
  stats.heap_allocs = g_allocs.load(std::memory_order_relaxed) - alloc_start;
  return stats;
}

double PerRecord(uint64_t total, uint64_t records) {
  return records == 0 ? 0.0
                      : static_cast<double>(total) /
                            static_cast<double>(records);
}

double ReductionPct(double base, double now) {
  return base == 0 ? 0.0 : 100.0 * (base - now) / base;
}

}  // namespace

int main() {
  Header("E3 (infra): zero-copy record path vs string baseline",
         "refactor acceptance, not a paper figure",
         "arena-interned views vs owning-string shuffle path");

  const Workload workloads[] = {WordCountEmits(), ThetaJoinEmits()};

  JsonSection section;
  section.name = "rows";
  bool all_pass = true;
  for (const Workload& w : workloads) {
    const PathStats base = RunStringBaselinePath(w);
    const PathStats zc = RunZeroCopyPath(w);
    if (base.checksum != zc.checksum) {
      std::fprintf(stderr, "%s: checksum mismatch (%llu vs %llu)\n",
                   w.name.c_str(),
                   static_cast<unsigned long long>(base.checksum),
                   static_cast<unsigned long long>(zc.checksum));
      return 1;
    }

    const double base_bpr = PerRecord(base.bytes_copied, base.records);
    const double zc_bpr = PerRecord(zc.bytes_copied, zc.records);
    const double base_apr = PerRecord(base.heap_allocs, base.records);
    const double zc_apr = PerRecord(zc.heap_allocs, zc.records);
    const double bytes_cut = ReductionPct(base_bpr, zc_bpr);
    const double allocs_cut = ReductionPct(base_apr, zc_apr);
    all_pass = all_pass && bytes_cut >= 25.0 && allocs_cut >= 25.0;

    std::printf("\n%s: %llu records, %s payload\n", w.name.c_str(),
                static_cast<unsigned long long>(zc.records),
                FormatBytes(zc.payload_bytes).c_str());
    std::printf("  %-24s %14s %14s %12s\n", "metric (per record)", "string",
                "zero-copy", "reduction");
    std::printf("  %-24s %14.1f %14.1f %+11.1f%%\n", "bytes copied", base_bpr,
                zc_bpr, -bytes_cut);
    std::printf("  %-24s %14.3f %14.3f %+11.1f%%\n", "heap allocations",
                base_apr, zc_apr, -allocs_cut);
    std::printf("  %-24s %14s %14s %12s\n", "path wall time",
                FormatNanos(base.wall_nanos).c_str(),
                FormatNanos(zc.wall_nanos).c_str(),
                Ratio(base.wall_nanos, zc.wall_nanos).c_str());

    char row[1024];
    std::snprintf(
        row, sizeof(row),
        "{\"name\": \"%s\", \"records\": %llu, \"payload_bytes\": %llu, "
        "\"baseline_bytes_copied\": %llu, \"zero_copy_bytes_copied\": %llu, "
        "\"baseline_heap_allocs\": %llu, \"zero_copy_heap_allocs\": %llu, "
        "\"baseline_wall_nanos\": %llu, \"zero_copy_wall_nanos\": %llu, "
        "\"bytes_copied_reduction_pct\": %.2f, "
        "\"heap_allocs_reduction_pct\": %.2f}",
        w.name.c_str(), static_cast<unsigned long long>(zc.records),
        static_cast<unsigned long long>(zc.payload_bytes),
        static_cast<unsigned long long>(base.bytes_copied),
        static_cast<unsigned long long>(zc.bytes_copied),
        static_cast<unsigned long long>(base.heap_allocs),
        static_cast<unsigned long long>(zc.heap_allocs),
        static_cast<unsigned long long>(base.wall_nanos),
        static_cast<unsigned long long>(zc.wall_nanos), bytes_cut, allocs_cut);
    section.rows.push_back(row);
  }
  std::printf("\n");
  WriteJsonSections("BENCH_e3.json", "bench_e3_record_path",
                    {std::move(section)});

  std::printf("\nacceptance (>=25%% cut in both metrics, both workloads): "
              "%s\n", all_pass ? "PASS" : "FAIL");
  return all_pass ? 0 : 1;
}
