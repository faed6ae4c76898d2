// E1 — Section 7.1, "Anti-Combining Overhead Analysis".
// Sort on RandomText emits one Map output record per input record, so
// Anti-Combining cannot share anything: AdaptiveSH must degenerate to
// flagged-plain records, and every cost must stay within a few percent of
// the Original program (the paper measured +0.2% disk, +0.15% transfer,
// +7.8% CPU, +1.7% runtime).
#include "bench_util.h"
#include "datagen/random_text.h"
#include "workloads/sort.h"

using namespace antimr;         // NOLINT
using namespace antimr::bench;  // NOLINT

int main() {
  Header("E1: Anti-Combining overhead on Sort", "paper Section 7.1",
         "AdaptiveSH vs Original when no sharing opportunities exist");

  RandomTextConfig rc;
  rc.num_lines = 60000;
  RandomTextGenerator gen(rc);
  const auto splits = gen.MakeSplits(8);

  workloads::SortConfig sc;
  sc.num_reduce_tasks = 8;
  const JobSpec spec = workloads::MakeSortJob(sc);

  const JobMetrics orig = RunStrategy(spec, Strategy::kOriginal, splits, {},
                                      PaperHardware());
  const JobMetrics anti = RunStrategy(spec, Strategy::kAdaptiveSH, splits, {},
                                      PaperHardware());

  std::printf("%-24s %14s %14s %10s\n", "metric", "Original", "AdaptiveSH",
              "delta");
  auto row = [](const char* name, uint64_t a, uint64_t b) {
    std::printf("%-24s %14llu %14llu %10s\n", name,
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b), Percent(a, b).c_str());
  };
  row("disk read (B)", orig.disk_bytes_read, anti.disk_bytes_read);
  row("disk write (B)", orig.disk_bytes_written, anti.disk_bytes_written);
  row("data transfer (B)", orig.shuffle_bytes, anti.shuffle_bytes);
  row("map output (B)", orig.emitted_bytes, anti.emitted_bytes);
  row("total CPU (ns)", orig.total_cpu_nanos, anti.total_cpu_nanos);
  row("runtime (ns)", orig.wall_nanos, anti.wall_nanos);

  std::printf("\nencoding mix under AdaptiveSH: plain=%llu eager=%llu "
              "lazy=%llu (all records must be flagged-plain)\n",
              static_cast<unsigned long long>(anti.plain_records),
              static_cast<unsigned long long>(anti.eager_records),
              static_cast<unsigned long long>(anti.lazy_records));
  PaperNote("AdaptiveSH cost deltas on Sort/RandomText: +0.2% disk R/W, "
            "+0.15% transfer, +7.8% CPU, +1.7% runtime — i.e., only the "
            "per-record flag bytes and the search for sharing opportunities");

  // ---- Shuffle pipeline A/B ----------------------------------------------
  // Four map waves (32 splits on 8 workers) under simulated hardware: the
  // pipelined scheduler fetches each wave's segments while later waves are
  // still mapping, so only the last wave's shuffle is exposed and runtime
  // drops well below the barrier model's. The 16 fetch threads are Hadoop's
  // "parallel copies": each reducer's segments transfer over many streams at
  // once, where the barrier model pulls them serially through its merge.
  std::printf("\n--- shuffle pipeline: pipelined vs barrier (32 splits, "
              "8 workers, 8 reducers, simulated hardware) ---\n");
  const auto pipeline_splits = gen.MakeSplits(32);
  ClusterConfig barrier_cluster;
  barrier_cluster.shuffle_mode = ShuffleMode::kBarrier;
  barrier_cluster.num_workers = 8;
  ClusterConfig pipelined_cluster;
  pipelined_cluster.shuffle_mode = ShuffleMode::kPipelined;
  pipelined_cluster.num_workers = 8;
  pipelined_cluster.fetch_threads = 16;

  const JobMetrics barrier =
      RunStrategy(spec, Strategy::kOriginal, pipeline_splits, {},
                  PaperHardware(), barrier_cluster);
  const JobMetrics pipelined =
      RunStrategy(spec, Strategy::kOriginal, pipeline_splits, {},
                  PaperHardware(), pipelined_cluster);

  std::printf("%-24s %14s %14s %10s\n", "metric", "Barrier", "Pipelined",
              "delta");
  row("runtime (ns)", barrier.wall_nanos, pipelined.wall_nanos);
  row("total CPU (ns)", barrier.total_cpu_nanos, pipelined.total_cpu_nanos);
  row("data transfer (B)", barrier.shuffle_bytes, pipelined.shuffle_bytes);
  row("fetch wait (ns)", barrier.shuffle_fetch_wait_nanos,
      pipelined.shuffle_fetch_wait_nanos);
  row("decode (ns)", barrier.shuffle_decode_nanos,
      pipelined.shuffle_decode_nanos);
  row("merge (ns)", barrier.shuffle_merge_nanos,
      pipelined.shuffle_merge_nanos);
  row("peak buffered (B)", barrier.shuffle_peak_buffered_bytes,
      pipelined.shuffle_peak_buffered_bytes);
  std::printf("overlapped fetches: %llu of %llu segment copies\n",
              static_cast<unsigned long long>(
                  pipelined.shuffle_overlapped_fetches),
              static_cast<unsigned long long>(32 * 8));
  const double improvement =
      barrier.wall_nanos > 0
          ? 100.0 *
                (static_cast<double>(barrier.wall_nanos) -
                 static_cast<double>(pipelined.wall_nanos)) /
                static_cast<double>(barrier.wall_nanos)
          : 0.0;
  std::printf("pipelined runtime improvement over barrier: %.1f%%\n",
              improvement);

  WriteJsonReport("BENCH_e1.json", "bench_e1_overhead",
                  {{"original", orig, ""},
                   {"adaptive_sh", anti, ""},
                   {"barrier", barrier, ""},
                   {"pipelined", pipelined, ""}});
  return 0;
}
