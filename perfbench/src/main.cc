// The repository benchmark: one client submits one job at a time (a closed
// loop) for --seconds seconds and reports end-to-end metrics, or, with
// --trace 1, per-layer metrics from the wrappers in layers.h. Every job's
// output multiset hash must equal that of the Original program run once,
// single-threaded, on the same inputs.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--drop-one-record]
//
// The last stdout line is one JSON object with the keys correct, attempted,
// failed and metrics. The line before it is {"detail": {...}} with every
// metric this run computed, the seed, and the job counts.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/stopwatch.h"
#include "datagen/cloud.h"
#include "datagen/format.h"
#include "datagen/qlog.h"
#include "datagen/random_text.h"
#include "engine/coordinator.h"
#include "engine/job_registry.h"
#include "engine/job_service.h"
#include "engine/worker.h"
#include "layers.h"
#include "mr/job_runner.h"
#include "net/frame.h"
#include "workloads/query_suggestion.h"
#include "workloads/registry.h"
#include "workloads/theta_join.h"
#include "workloads/wordcount.h"

namespace perfbench {
namespace {

using antimr::Env;
using antimr::InputSplit;
using antimr::JobMetrics;
using antimr::JobSpec;
using antimr::KV;
using antimr::Status;
using antimr::anticombine::AntiCombineOptions;
namespace engine = antimr::engine;
namespace net = antimr::net;

constexpr int kNumMaps = 8;
constexpr int kNumReduces = 8;
constexpr int kLocalThreads = 4;
constexpr int kWorkers = 2;
constexpr int kSlotsPerWorker = 2;
/// Stop starting jobs after this long, so a run always exits in time.
constexpr double kRunCapSeconds = 150;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  bool drop_one_record = false;
};

uint64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t Scaled(uint64_t n, double scale) {
  return std::max<uint64_t>(1, static_cast<uint64_t>(n * scale));
}

std::vector<std::vector<KV>> Chunk(const std::vector<KV>& records, int n) {
  std::vector<std::vector<KV>> chunks(static_cast<size_t>(n));
  for (size_t i = 0; i < records.size(); ++i) {
    chunks[i * static_cast<size_t>(n) / records.size()].push_back(records[i]);
  }
  return chunks;
}

/// What one job returned, as the workload sees it.
struct JobOutcome {
  /// Reduce output per partition, moved out of the job's result so that
  /// hashing and freeing it happen after the job is timed.
  std::vector<std::vector<KV>> outputs;
  JobMetrics metrics;
  uint64_t disk_bytes = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate the inputs and build the job; start any service it runs on.
  /// Called once, before the first job.
  virtual Status Setup(const Config& config) = 0;
  virtual void Teardown() {}
  /// The Original program, single-threaded, on the same inputs.
  virtual Status Reference(uint64_t* hash) = 0;
  virtual Status Run(bool traced, JobOutcome* out) = 0;
  virtual int slots() const { return kLocalThreads; }
};

/// engine::OutputMultisetHash is a sum over records, so it adds up per
/// partition without flattening the output into one copy.
uint64_t OutputHash(const std::vector<std::vector<KV>>& outputs) {
  uint64_t hash = 0;
  for (const auto& part : outputs) hash += engine::OutputMultisetHash(part);
  return hash;
}

uint64_t IoBytes(const Env& env) {
  const antimr::IoStats s = env.stats();
  return s.bytes_read + s.bytes_written;
}

/// A job run in process through RunJob on 4 threads over an in-memory Env.
class LocalWorkload : public Workload {
 public:
  Status Setup(const Config& config) override {
    // The splits hold tight copies; the generated records, whose strings
    // grew by appends, are freed here and trimmed away in Main.
    const std::vector<KV> records = Generate(config);
    splits_ = antimr::MakeSplits(records, kNumMaps);
    original_ = BuildOriginal();
    InstrumentOptions options;
    options.anti = anti();
    options.drop_one_record = config.drop_one_record;
    plain_ = Instrument(original_, options);
    options.trace = true;
    traced_ = Instrument(original_, options);
    env_ = antimr::NewMemEnv();
    tracing_env_ = NewTracingEnv(env_.get());
    return Status::OK();
  }

  Status Reference(uint64_t* hash) override {
    antimr::RunOptions run;
    run.num_workers = 1;
    antimr::JobResult result;
    ANTIMR_RETURN_NOT_OK(antimr::RunJob(original_, splits_, run, &result));
    *hash = OutputHash(result.outputs);
    return Status::OK();
  }

  Status Run(bool traced, JobOutcome* out) override {
    antimr::RunOptions run;
    run.num_workers = kLocalThreads;
    run.env = traced ? tracing_env_.get() : env_.get();
    const uint64_t io_before = IoBytes(*env_);
    antimr::JobResult result;
    ANTIMR_RETURN_NOT_OK(
        antimr::RunJob(traced ? traced_ : plain_, splits_, run, &result));
    out->outputs = std::move(result.outputs);
    out->metrics = result.metrics;
    out->disk_bytes = IoBytes(*env_) - io_before;
    return Status::OK();
  }

 protected:
  virtual std::vector<KV> Generate(const Config& config) const = 0;
  virtual JobSpec BuildOriginal() const = 0;
  virtual std::optional<AntiCombineOptions> anti() const = 0;

 private:
  std::vector<InputSplit> splits_;
  JobSpec original_, plain_, traced_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<Env> tracing_env_;
};

/// A query log of `n` records drawn with `seed` from one fixed query
/// universe: QLog's default vocabulary and 20000 distinct queries, built
/// from QLog's default seed. The universe is held fixed because its head
/// decides most of the job's bytes: with the universe seeded too, logical
/// map output varies by 16.5% (interquartile range over median, 20 seeds);
/// with it fixed, by 0.16%. Records have QLogGenerator's format.
std::vector<KV> QueryLog(uint64_t n, uint64_t seed) {
  const antimr::QLogConfig qc;
  const antimr::QLogGenerator universe(qc);
  const std::vector<std::string>& queries = universe.distinct_queries();
  const antimr::ZipfSampler sampler(queries.size(), qc.popularity_skew);
  antimr::Random rng(seed);
  std::vector<KV> records;
  records.reserve(n);
  std::string user;
  for (uint64_t i = 0; i < n; ++i) {
    const std::string& query = queries[sampler.Sample(&rng)];
    user.assign("u");
    antimr::AppendDecimal(&user, uint64_t{rng.Uniform(100000)});
    records.emplace_back(user, query);
  }
  return records;
}

/// Query-Suggestion over QLog, Prefix-5, Combiner on, AdaptiveSH.
class QSuggestAdaptive : public LocalWorkload {
 protected:
  std::vector<KV> Generate(const Config& config) const override {
    return QueryLog(Scaled(100000, config.scale), config.seed);
  }
  JobSpec BuildOriginal() const override {
    antimr::workloads::QuerySuggestionConfig qs;
    qs.with_combiner = true;
    qs.scheme = antimr::workloads::QuerySuggestionConfig::Scheme::kPrefix5;
    qs.num_reduce_tasks = kNumReduces;
    return antimr::workloads::MakeQuerySuggestionJob(qs);
  }
  std::optional<AntiCombineOptions> anti() const override {
    return AntiCombineOptions::Unrestricted();
  }
};

/// WordCount over RandomText: the Original program with a sum Combiner, a
/// small map buffer (many spills) and the snappy-like map-output codec.
class WordCountSpill : public LocalWorkload {
 protected:
  std::vector<KV> Generate(const Config& config) const override {
    antimr::RandomTextConfig rc;
    rc.num_lines = Scaled(40000, config.scale);
    rc.words_per_line = 60;
    rc.vocabulary_words = 3000;
    rc.seed = config.seed;
    return antimr::RandomTextGenerator(rc).Generate();
  }
  JobSpec BuildOriginal() const override {
    antimr::workloads::WordCountConfig wc;
    wc.with_combiner = true;
    wc.num_reduce_tasks = kNumReduces;
    wc.codec = antimr::CodecType::kSnappyLike;
    wc.map_buffer_bytes = 256 * 1024;
    return antimr::workloads::MakeWordCountJob(wc);
  }
  std::optional<AntiCombineOptions> anti() const override {
    return std::nullopt;
  }
};

// --- distributed theta join -------------------------------------------------

constexpr char kThetaJob[] = "perfbench_theta_join";

/// Registered builder for the distributed workload: the standard theta
/// join with anti-combining off, instrumented as the perfbench_* params
/// say, with AdaptiveSH applied between the inner and outer wrappers.
Status BuildThetaJoin(const std::map<std::string, std::string>& params,
                      JobSpec* spec) {
  net::JobParams base;
  InstrumentOptions options;
  options.anti = AntiCombineOptions::Unrestricted();
  for (const auto& [key, value] : params) {
    if (key == "perfbench_trace") {
      options.trace = value == "1";
    } else if (key == "perfbench_drop_one_record") {
      options.drop_one_record = value == "1";
    } else if (key != "anti_combine") {
      base.emplace_back(key, value);
    }
  }
  ANTIMR_RETURN_NOT_OK(engine::BuildRegisteredJob("theta_join", base, spec));
  *spec = Instrument(*spec, options);
  return Status::OK();
}

/// 1-Bucket-Theta band join over Cloud through RunDistributedJob on a
/// loopback cluster of 2 workers x 2 slots, started once per set-up.
class ThetaJoinDist : public Workload {
 public:
  ~ThetaJoinDist() override { Teardown(); }

  Status Setup(const Config& config) override {
    antimr::CloudConfig cc;
    cc.num_records = Scaled(12000, config.scale);
    cc.seed = config.seed;
    records_ = antimr::CloudGenerator(cc).Generate();
    splits_ = Chunk(records_, kNumMaps);
    int rows = 0, cols = 0;
    antimr::workloads::SizeGridForMemory(cc.num_records, 1000, &rows, &cols);
    params_ = {{"reduces", std::to_string(kNumReduces)},
               {"grid_rows", std::to_string(rows)},
               {"grid_cols", std::to_string(cols)}};
    drop_one_record_ = config.drop_one_record;

    base_transport_ = net::NewLoopbackTransport();
    net::Transport* transport = base_transport_.get();
    if (config.trace) {
      tracing_transport_ =
          std::make_unique<TracingTransport>(base_transport_.get());
      transport = tracing_transport_.get();
    }
    coord_ = std::make_unique<engine::Coordinator>(transport);
    ANTIMR_RETURN_NOT_OK(coord_->Start(""));
    for (int i = 0; i < kWorkers; ++i) {
      envs_.push_back(antimr::NewMemEnv());
      engine::WorkerOptions options;
      options.name = "perfbench_w" + std::to_string(i);
      options.slots = kSlotsPerWorker;
      options.env = envs_.back().get();
      if (config.trace) {
        tracing_envs_.push_back(NewTracingEnv(envs_.back().get()));
        options.env = tracing_envs_.back().get();
      }
      workers_.push_back(std::make_unique<engine::Worker>(transport, options));
      ANTIMR_RETURN_NOT_OK(workers_.back()->Start(coord_->addr()));
    }
    if (!coord_->WaitForWorkers(kWorkers, 10ull * 1000 * 1000 * 1000)) {
      return Status::IOError("worker quorum not reached");
    }
    if (tracing_transport_ != nullptr) tracing_transport_->MarkClusterStarted();
    return Status::OK();
  }

  void Teardown() override {
    if (coord_ != nullptr) coord_->Stop();
    for (auto& worker : workers_) worker->Stop();
    workers_.clear();
    coord_.reset();
    tracing_envs_.clear();
    envs_.clear();
    tracing_transport_.reset();
    base_transport_.reset();
  }

  Status Reference(uint64_t* hash) override {
    JobSpec original;
    ANTIMR_RETURN_NOT_OK(
        engine::BuildRegisteredJob("theta_join", params_, &original));
    antimr::RunOptions run;
    run.num_workers = 1;
    antimr::JobResult result;
    ANTIMR_RETURN_NOT_OK(antimr::RunJob(
        original, antimr::MakeSplits(records_, kNumMaps), run, &result));
    *hash = OutputHash(result.outputs);
    return Status::OK();
  }

  Status Run(bool traced, JobOutcome* out) override {
    engine::DistJobOptions options;
    options.job_name = kThetaJob;
    options.params = params_;
    options.params.emplace_back("perfbench_trace", traced ? "1" : "0");
    options.params.emplace_back("perfbench_drop_one_record",
                                drop_one_record_ ? "1" : "0");
    options.splits = splits_;
    uint64_t io_before = 0;
    for (const auto& env : envs_) io_before += IoBytes(*env);
    engine::DistJobResult result;
    ANTIMR_RETURN_NOT_OK(
        engine::RunDistributedJob(coord_.get(), options, &result));
    uint64_t io_after = 0;
    for (const auto& env : envs_) io_after += IoBytes(*env);
    out->outputs = std::move(result.outputs);
    out->metrics = result.metrics;
    out->disk_bytes = io_after - io_before;
    return Status::OK();
  }

  int slots() const override { return kWorkers * kSlotsPerWorker; }

 private:
  std::vector<KV> records_;
  std::vector<std::vector<KV>> splits_;
  net::JobParams params_;
  bool drop_one_record_ = false;
  std::unique_ptr<net::Transport> base_transport_;
  std::unique_ptr<TracingTransport> tracing_transport_;
  std::unique_ptr<engine::Coordinator> coord_;
  std::vector<std::unique_ptr<Env>> envs_;
  std::vector<std::unique_ptr<Env>> tracing_envs_;
  std::vector<std::unique_ptr<engine::Worker>> workers_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "qsuggest_adaptive") return std::make_unique<QSuggestAdaptive>();
  if (name == "wordcount_spill") return std::make_unique<WordCountSpill>();
  if (name == "thetajoin_dist") return std::make_unique<ThetaJoinDist>();
  return nullptr;
}

// --- measurement ------------------------------------------------------------

struct Sample {
  bool traced = false;
  bool ok = false;
  uint64_t hash = 0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t wire_bytes = 0;
  JobOutcome outcome;
  Snapshot layers;
};

constexpr double kNs = 1e-9;
constexpr double kMB = 1e-6;

/// Lowers this process's resident-set high-water mark (VmHWM) to its
/// current resident set.
void ResetPeakRss() {
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// The most memory resident since the last ResetPeakRss, in MB.
double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024 * kMB;
}

/// Runs one job. The clocks, wire counters and layer snapshot stop when
/// the program returns; the output is hashed and freed after that.
Sample RunOne(Workload* workload, bool traced, bool drop_one_record) {
  Sample s;
  s.traced = traced;
  if (drop_one_record) ArmRecordDrop();
  SetTracing(traced);
  const Snapshot layers_before = TakeSnapshot();
  const net::WireCounters wire_before = net::SnapshotWireCounters();
  const uint64_t cpu_before = ProcessCpuNanos();
  const uint64_t t0 = antimr::NowNanos();
  const Status st = workload->Run(traced, &s.outcome);
  s.wall_ns = antimr::NowNanos() - t0;
  s.cpu_ns = ProcessCpuNanos() - cpu_before;
  s.wire_bytes =
      net::SnapshotWireCounters().bytes_sent - wire_before.bytes_sent;
  s.layers = TakeSnapshot() - layers_before;
  SetTracing(false);
  s.hash = OutputHash(s.outcome.outputs);
  s.outcome.outputs.clear();
  s.ok = st.ok();
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: job failed: %s\n", st.ToString().c_str());
  }
  return s;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

using Metrics = std::map<std::string, double>;

/// Median of each key over per-sample metric maps.
Metrics MedianOf(const std::vector<Metrics>& per_sample) {
  std::map<std::string, std::vector<double>> columns;
  for (const Metrics& m : per_sample) {
    for (const auto& [name, value] : m) columns[name].push_back(value);
  }
  Metrics out;
  for (auto& [name, values] : columns) out[name] = Median(std::move(values));
  return out;
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

Metrics EndToEnd(const Sample& s) {
  return {{"job_s", s.wall_ns * kNs},
          {"job_cpu_s", s.cpu_ns * kNs},
          {"shuffle_mb", s.outcome.metrics.shuffle_bytes * kMB},
          {"disk_mb", s.outcome.disk_bytes * kMB},
          {"wire_mb", s.wire_bytes * kMB}};
}

Metrics PerLayer(const Sample& s, int slots) {
  const Snapshot& l = s.layers;
  const JobMetrics& m = s.outcome.metrics;
  auto self = [&](Layer layer) { return l.self[layer] * kNs; };
  auto count = [&](Counter c) { return static_cast<double>(l.count[c]); };
  return {
      {"workloads.map_fn_s", self(kMapFn)},
      {"workloads.map_calls", count(kMapCalls)},
      {"workloads.reduce_fn_s", self(kReduceFn)},
      {"workloads.reduce_calls", count(kReduceCalls)},
      {"workloads.combine_s", self(kCombine)},
      {"workloads.combine_in_records", count(kCombineInRecords)},
      {"workloads.combine_out_records", count(kCombineOutRecords)},
      {"anticombine.encode_s", self(kEncode)},
      {"anticombine.reduce_s", self(kAntiReduce)},
      {"anticombine.combine_s", self(kAntiCombine)},
      {"anticombine.remap_s", self(kRemap)},
      {"anticombine.remap_calls", count(kRemapCalls)},
      {"anticombine.bytes_ratio",
       Ratio(static_cast<double>(m.map_output_bytes),
             static_cast<double>(m.emitted_bytes))},
      {"anticombine.eager_records", static_cast<double>(m.eager_records)},
      {"anticombine.lazy_records", static_cast<double>(m.lazy_records)},
      {"anticombine.plain_records", static_cast<double>(m.plain_records)},
      {"anticombine.shared_spills", static_cast<double>(m.shared_spills)},
      {"anticombine.shared_spill_mb", m.shared_spill_bytes * kMB},
      {"mr.partition_calls_per_record",
       Ratio(count(kPartitionCalls), count(kLogicalRecords))},
      {"mr.emit_s", self(kEmit)},
      {"mr.emit_calls", count(kEmitCalls)},
      {"mr.map_spills", static_cast<double>(m.map_spills)},
      {"mr.map_task_s", count(kMapTaskNanos) * kNs},
      {"mr.map_self_s", self(kMapTask)},
      {"mr.reduce_task_s", count(kReduceTaskNanos) * kNs},
      {"mr.reduce_wait_s", self(kReduceTask)},
      {"io.write_s", self(kIoWrite)},
      {"io.read_s", self(kIoRead)},
      {"io.write_mb", count(kIoWriteBytes) * kMB},
      {"io.read_mb", count(kIoReadBytes) * kMB},
      {"io.files_created", count(kIoFilesCreated)},
      {"engine.slot_busy_frac",
       Ratio(count(kMapTaskNanos) + count(kReduceTaskNanos),
             static_cast<double>(s.wall_ns) * slots)},
      {"engine.map_reruns", count(kMapTasks) - kNumMaps},
      {"net.write_calls", count(kNetWriteCalls)},
      {"net.write_mb", count(kNetWriteBytes) * kMB},
      {"net.write_s", count(kNetWriteNanos) * kNs},
      {"net.read_wait_s", count(kNetReadWaitNanos) * kNs},
      {"bench.self_sum_s", l.SelfTotal() * kNs},
      {"bench.unattributed_s",
       (static_cast<double>(s.cpu_ns) - static_cast<double>(l.SelfTotal())) *
           kNs},
  };
}

/// Metric names carry their unit in their suffix.
std::string UnitOf(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_s")) return "s";
  if (ends("_mb")) return "MB";
  if (ends("_frac") || ends("_ratio") || ends("_per_record") ||
      ends("_over_cpu") || ends("_overhead")) {
    return "ratio";
  }
  return "count";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + Num(value) + ", \"unit\": \"" +
           UnitOf(name) + "\"}";
  }
  return out + "}";
}

// Names printed on the result line: BENCHMARK.json's end_to_end list with
// --trace 0, its per_layer list with --trace 1.
const std::vector<std::string> kEndToEnd = {
    "job_s", "job_cpu_s", "shuffle_mb", "disk_mb",
    "wire_mb", "peak_rss_mb", "setup_s"};

const std::vector<std::string> kPerLayer = {
    "workloads.map_fn_s",
    "workloads.map_calls",
    "workloads.reduce_fn_s",
    "workloads.reduce_calls",
    "workloads.combine_s",
    "workloads.combine_in_records",
    "workloads.combine_out_records",
    "anticombine.encode_s",
    "anticombine.reduce_s",
    "anticombine.combine_s",
    "anticombine.remap_s",
    "anticombine.remap_calls",
    "anticombine.bytes_ratio",
    "anticombine.eager_records",
    "anticombine.lazy_records",
    "anticombine.plain_records",
    "anticombine.shared_spills",
    "anticombine.shared_spill_mb",
    "mr.partition_calls_per_record",
    "mr.emit_s",
    "mr.emit_calls",
    "mr.map_spills",
    "mr.map_task_s",
    "mr.map_self_s",
    "mr.reduce_task_s",
    "mr.reduce_wait_s",
    "io.write_s",
    "io.read_s",
    "io.write_mb",
    "io.read_mb",
    "io.files_created",
    "engine.slot_busy_frac",
    "engine.map_reruns",
    "net.write_calls",
    "net.write_mb",
    "net.write_s",
    "net.read_wait_s",
    "obs.phase_sum_over_cpu",
    "bench.unattributed_s",
    "bench.trace_overhead",
};

bool ParseArgs(int argc, char** argv, Config* config) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--drop-one-record") {
      config->drop_one_record = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config->workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && config->seconds > 0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      config->trace = value == "1";
      have_trace = true;
    } else if (arg == "--scale") {
      config->scale = std::strtod(value.c_str(), &end);
      if (*end != '\0' || config->scale <= 0) return false;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

int Main(int argc, char** argv) {
  Config config;
  if (!ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "qsuggest_adaptive|wordcount_spill|thetajoin_dist --seed N "
                 "--seconds S --trace 0|1 [--scale F] [--drop-one-record]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(config.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 config.workload.c_str());
    return 2;
  }
  antimr::workloads::RegisterStandardJobs();
  engine::RegisterJobBuilder(kThetaJob, BuildThetaJoin);
  const uint64_t run_start = antimr::NowNanos();
  auto elapsed_s = [&] { return (antimr::NowNanos() - run_start) * kNs; };

  // Set-up, once and cold: inputs, spec, cluster, and the first job, which
  // runs slower than the rest and so belongs here. Work a change moves into
  // the first job of a process shows in setup_s.
  const uint64_t setup_t0 = antimr::NowNanos();
  const Status setup = workload->Setup(config);
  if (!setup.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 setup.ToString().c_str());
    return 1;
  }
  // peak_rss_mb is the memory of a process that runs one job: the inputs,
  // the cluster and the first job. It starts after input generation, whose
  // freed heap is handed back first: its size depends on the seed, since
  // strings grown by appends hold up to twice their length. It ends with
  // the first job because later jobs inherit a heap whose growth depends on
  // how threads were scheduled: over six seeds of wordcount_spill, 41 to
  // 44 MB after the first job, against 42 to 54 MB after 20 jobs.
  malloc_trim(0);
  ResetPeakRss();
  std::vector<Sample> first_job = {
      RunOne(workload.get(), /*traced=*/false, config.drop_one_record)};
  const double setup_s = (antimr::NowNanos() - setup_t0) * kNs;
  const double peak_rss_mb = PeakRssMb();

  // Closed loop: the next job starts when the previous one returns. With
  // --trace 1, untraced and traced jobs alternate.
  std::vector<Sample> samples;
  const uint64_t loop_start = antimr::NowNanos();
  const size_t min_jobs = config.trace ? 4 : 3;
  while (((antimr::NowNanos() - loop_start) * kNs < config.seconds ||
          samples.size() < min_jobs) &&
         elapsed_s() < kRunCapSeconds) {
    const bool traced = config.trace && samples.size() % 2 == 1;
    samples.push_back(RunOne(workload.get(), traced, config.drop_one_record));
  }
  workload->Teardown();

  // The correctness reference, timed apart from set-up.
  uint64_t reference_hash = 0;
  const uint64_t ref_t0 = antimr::NowNanos();
  const Status ref = workload->Reference(&reference_hash);
  const double reference_s = (antimr::NowNanos() - ref_t0) * kNs;
  if (!ref.ok()) {
    std::fprintf(stderr, "perfbench: reference run failed: %s\n",
                 ref.ToString().c_str());
    return 1;
  }

  uint64_t attempted = 0, failed = 0;
  for (std::vector<Sample>* group : {&first_job, &samples}) {
    for (Sample& s : *group) {
      s.ok = s.ok && s.hash == reference_hash;
      ++attempted;
      if (!s.ok) ++failed;
    }
  }

  std::vector<Metrics> plain_metrics, traced_metrics;
  std::vector<double> plain_wall, traced_wall, phase_over_cpu;
  for (const Sample& s : samples) {
    if (s.traced) {
      traced_metrics.push_back(PerLayer(s, workload->slots()));
      traced_wall.push_back(s.wall_ns * kNs);
    } else {
      plain_metrics.push_back(EndToEnd(s));
      plain_wall.push_back(s.wall_ns * kNs);
      phase_over_cpu.push_back(
          Ratio(static_cast<double>(s.outcome.metrics.cpu.Total()),
                static_cast<double>(s.cpu_ns)));
    }
  }
  Metrics all = MedianOf(plain_metrics);
  all["peak_rss_mb"] = peak_rss_mb;
  all["setup_s"] = setup_s;
  all["failed_frac"] = Ratio(failed, attempted);
  all["reference_s"] = reference_s;
  if (config.trace) {
    for (const auto& [name, value] : MedianOf(traced_metrics)) {
      all[name] = value;
    }
    all["obs.phase_sum_over_cpu"] = Median(phase_over_cpu);
    all["bench.trace_overhead"] =
        Ratio(Median(traced_wall), Median(plain_wall));
  }

  const bool correct = failed == 0;
  Metrics reported;
  for (const std::string& name : config.trace ? kPerLayer : kEndToEnd) {
    reported[name] = all[name];
  }
  std::printf("workload %s seed %llu trace %d jobs %zu traced_jobs %zu\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? 1 : 0, plain_wall.size(), traced_wall.size());
  for (const auto& [name, value] : all) {
    std::printf("metric %-32s %14s %s\n", name.c_str(), Num(value).c_str(),
                UnitOf(name).c_str());
  }
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(reference_hash));
  std::printf(
      "{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"scale\": %s, \"jobs\": %zu, \"traced_jobs\": %zu, "
      "\"reference_hash\": \"%s\", \"metrics\": %s}}\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.trace ? 1 : 0, Num(config.scale).c_str(), plain_wall.size(),
      traced_wall.size(), hash, MetricsJson(all).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), MetricsJson(reported).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
