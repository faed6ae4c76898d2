#include "layers.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "anticombine/transform.h"
#include "common/stopwatch.h"

namespace perfbench {

using antimr::Env;
using antimr::JobSpec;
using antimr::MapContext;
using antimr::Mapper;
using antimr::Partitioner;
using antimr::RecordBatch;
using antimr::ReduceContext;
using antimr::Reducer;
using antimr::Slice;
using antimr::Status;
using antimr::TaskInfo;
using antimr::ValueIterator;
namespace net = antimr::net;

namespace {

// --- per-thread accumulators ------------------------------------------------

struct Frame {
  Layer layer;
  uint64_t start;
  uint64_t child;  ///< wall time of the spans this one encloses
};

/// One thread's accumulators. Only the owning thread writes; summing
/// threads read, hence the relaxed atomics (a plain load + store on x86).
struct ThreadBlock {
  std::atomic<uint64_t> self[kNumLayers] = {};
  std::atomic<uint64_t> count[kNumCounters] = {};
  std::vector<Frame> stack;
  /// Outer reducer/combiner calls active on this thread: user Map calls
  /// made under one are LazySH re-executions.
  int reducer_depth = 0;
  /// While a task span is open, self times collect here and are scaled by
  /// the task's thread-CPU / wall ratio when it closes (see EndTask).
  bool in_task = false;
  uint64_t task_cpu_start = 0;
  uint64_t pending[kNumLayers] = {};
};

void Bump(std::atomic<uint64_t>& a, uint64_t n) {
  a.store(a.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

/// Owns every ThreadBlock. A block outlives its thread: at thread exit it
/// goes on a free list with its totals intact, so sums stay monotonic while
/// executors come and go, and the next new thread reuses it.
class Registry {
 public:
  ThreadBlock* Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      ThreadBlock* b = free_.back();
      free_.pop_back();
      return b;
    }
    all_.push_back(std::make_unique<ThreadBlock>());
    return all_.back().get();
  }

  void Release(ThreadBlock* b) {
    b->stack.clear();
    b->reducer_depth = 0;
    b->in_task = false;
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(b);
  }

  Snapshot Sum() {
    Snapshot s;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : all_) {
      for (int i = 0; i < kNumLayers; ++i) {
        s.self[i] += b->self[i].load(std::memory_order_relaxed);
      }
      for (int i = 0; i < kNumCounters; ++i) {
        s.count[i] += b->count[i].load(std::memory_order_relaxed);
      }
    }
    return s;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBlock>> all_;
  std::vector<ThreadBlock*> free_;
};

// Never destroyed: thread-exit hooks may run after static destructors.
Registry& Blocks() {
  static Registry* const registry = new Registry;
  return *registry;
}

struct BlockHolder {
  ThreadBlock* block = Blocks().Acquire();
  ~BlockHolder() { Blocks().Release(block); }
};

ThreadBlock& Me() {
  thread_local BlockHolder holder;
  return *holder.block;
}

void Count(Counter c, uint64_t n = 1) { Bump(Me().count[c], n); }

std::atomic<bool> g_tracing{false};

// --- spans ------------------------------------------------------------------

void BeginSpan(ThreadBlock& b, Layer layer) {
  b.stack.push_back(Frame{layer, antimr::NowNanos(), 0});
}

/// Close the innermost span; returns its inclusive duration.
uint64_t EndSpan(ThreadBlock& b) {
  const Frame f = b.stack.back();
  b.stack.pop_back();
  const uint64_t d = antimr::NowNanos() - f.start;
  const uint64_t self = d > f.child ? d - f.child : 0;
  if (b.in_task) {
    b.pending[f.layer] += self;
  } else {
    Bump(b.self[f.layer], self);
  }
  if (!b.stack.empty()) b.stack.back().child += d;
  return d;
}

/// A task span: the wall-clock self times of every span inside it sum to
/// the task's wall time, which counts any time the thread sat descheduled.
/// Closing the task scales them by the task's thread CPU / wall ratio, so
/// they sum to the CPU the task used and stay comparable to process CPU.
void BeginTask(ThreadBlock& b, Layer layer) {
  b.in_task = true;
  b.task_cpu_start = antimr::ThreadCpuNanos();
  BeginSpan(b, layer);
}

/// Returns the task's inclusive wall time.
uint64_t EndTask(ThreadBlock& b) {
  const uint64_t wall = EndSpan(b);
  const uint64_t cpu = antimr::ThreadCpuNanos() - b.task_cpu_start;
  const double share =
      wall == 0 ? 1.0 : std::min(1.0, static_cast<double>(cpu) / wall);
  for (int i = 0; i < kNumLayers; ++i) {
    Bump(b.self[i], static_cast<uint64_t>(b.pending[i] * share));
    b.pending[i] = 0;
  }
  b.in_task = false;
  return wall;
}

class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer) : b_(Me()) { BeginSpan(b_, layer); }
  ~ScopedSpan() { EndSpan(b_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadBlock& b_;
};

// --- map side ---------------------------------------------------------------

/// Counts the user Map function's output records.
class CountingMapContext : public MapContext {
 public:
  MapContext* base = nullptr;

  void Emit(const Slice& key, const Slice& value) override {
    Count(kLogicalRecords);
    base->Emit(key, value);
  }
  void EmitBatch(const RecordBatch& batch) override {
    Count(kLogicalRecords, batch.size());
    base->EmitBatch(batch);
  }
};

/// Times emission into the map task's output buffer.
class TimedMapContext : public MapContext {
 public:
  MapContext* base = nullptr;

  void Emit(const Slice& key, const Slice& value) override {
    Count(kEmitCalls);
    ScopedSpan span(kEmit);
    base->Emit(key, value);
  }
  void EmitBatch(const RecordBatch& batch) override {
    Count(kEmitCalls, batch.size());
    ScopedSpan span(kEmit);
    base->EmitBatch(batch);
  }
};

/// The user mapper: map_fn in map tasks, remap under a reducer wrapper.
class InnerMapper : public Mapper {
 public:
  explicit InnerMapper(std::unique_ptr<Mapper> m) : m_(std::move(m)) {}

  void Setup(const TaskInfo& info, MapContext* ctx) override {
    ScopedSpan span(Remapping() ? kRemap : kMapFn);
    m_->Setup(info, Wrap(ctx));
  }
  void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
    const bool remap = Remapping();
    Count(remap ? kRemapCalls : kMapCalls);
    ScopedSpan span(remap ? kRemap : kMapFn);
    m_->Map(key, value, remap ? ctx : Wrap(ctx));
  }
  void Cleanup(MapContext* ctx) override {
    ScopedSpan span(Remapping() ? kRemap : kMapFn);
    m_->Cleanup(Wrap(ctx));
  }

 private:
  static bool Remapping() { return Me().reducer_depth > 0; }
  MapContext* Wrap(MapContext* ctx) {
    if (Remapping()) return ctx;
    ctx_.base = ctx;
    return &ctx_;
  }

  std::unique_ptr<Mapper> m_;
  CountingMapContext ctx_;  // persistent: mappers may keep the pointer
};

/// The mapper the map task drives. Its lifetime is the map task's span:
/// the framework constructs it just before Setup and destroys it after the
/// final spill merge.
class OuterMapper : public Mapper {
 public:
  explicit OuterMapper(std::unique_ptr<Mapper> m)
      : b_(Me()), m_(std::move(m)) {
    Bump(b_.count[kMapTasks], 1);
    BeginTask(b_, kMapTask);
  }
  ~OuterMapper() override {
    m_.reset();
    Bump(b_.count[kMapTaskNanos], EndTask(b_));
  }

  void Setup(const TaskInfo& info, MapContext* ctx) override {
    ctx_.base = ctx;
    ScopedSpan span(kEncode);
    m_->Setup(info, &ctx_);
  }
  void Map(const Slice& key, const Slice& value, MapContext* ctx) override {
    ctx_.base = ctx;
    ScopedSpan span(kEncode);
    m_->Map(key, value, &ctx_);
  }
  void Cleanup(MapContext* ctx) override {
    ctx_.base = ctx;
    ScopedSpan span(kEncode);
    m_->Cleanup(&ctx_);
  }

 private:
  ThreadBlock& b_;
  std::unique_ptr<Mapper> m_;
  TimedMapContext ctx_;
};

// --- reduce side ------------------------------------------------------------

class CountingValues : public ValueIterator {
 public:
  explicit CountingValues(ValueIterator* base) : base_(base) {}
  bool Next(Slice* value) override {
    if (!base_->Next(value)) return false;
    ++n_;
    return true;
  }
  Slice key() const override { return base_->key(); }
  uint64_t n() const { return n_; }

 private:
  ValueIterator* base_;
  uint64_t n_ = 0;
};

class CountingReduceContext : public ReduceContext {
 public:
  ReduceContext* base = nullptr;
  void Emit(const Slice& key, const Slice& value) override {
    Count(kCombineOutRecords);
    base->Emit(key, value);
  }
};

/// The user reducer or combiner.
class InnerReducer : public Reducer {
 public:
  InnerReducer(std::unique_ptr<Reducer> r, bool combiner)
      : r_(std::move(r)), combiner_(combiner) {}

  void Setup(const TaskInfo& info, ReduceContext* ctx) override {
    ScopedSpan span(layer());
    r_->Setup(info, Wrap(ctx));
  }
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    ScopedSpan span(layer());
    if (!combiner_) {
      Count(kReduceCalls);
      r_->Reduce(key, values, ctx);
      return;
    }
    CountingValues counted(values);
    r_->Reduce(key, &counted, Wrap(ctx));
    Count(kCombineInRecords, counted.n());
  }
  void Cleanup(ReduceContext* ctx) override {
    ScopedSpan span(layer());
    r_->Cleanup(Wrap(ctx));
  }

 private:
  Layer layer() const { return combiner_ ? kCombine : kReduceFn; }
  ReduceContext* Wrap(ReduceContext* ctx) {
    if (!combiner_) return ctx;
    ctx_.base = ctx;
    return &ctx_;
  }

  std::unique_ptr<Reducer> r_;
  bool combiner_;
  CountingReduceContext ctx_;
};

/// Values pulled from the reduce task's merge: each Next is framework work
/// (merge, decompress, decode) done on behalf of the reducer, so it counts
/// as reduce task self time rather than as the reducer's.
class MergeTimedValues : public ValueIterator {
 public:
  explicit MergeTimedValues(ValueIterator* base) : base_(base) {}
  bool Next(Slice* value) override {
    ScopedSpan span(kReduceTask);
    return base_->Next(value);
  }
  Slice key() const override { return base_->key(); }

 private:
  ValueIterator* base_;
};

/// The reducer a reduce task drives (its lifetime is the task's span), or
/// the combiner a map task drives. While one of its calls runs, user Map
/// calls on this thread count as remap.
class OuterReducer : public Reducer {
 public:
  OuterReducer(std::unique_ptr<Reducer> r, bool combiner)
      : b_(Me()), r_(std::move(r)), combiner_(combiner) {
    if (combiner_) return;
    Bump(b_.count[kReduceTasks], 1);
    BeginTask(b_, kReduceTask);
  }
  ~OuterReducer() override {
    r_.reset();
    if (!combiner_) Bump(b_.count[kReduceTaskNanos], EndTask(b_));
  }

  void Setup(const TaskInfo& info, ReduceContext* ctx) override {
    Call call(this);
    r_->Setup(info, ctx);
  }
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    Call call(this);
    if (combiner_) {
      r_->Reduce(key, values, ctx);
      return;
    }
    MergeTimedValues timed(values);
    r_->Reduce(key, &timed, ctx);
  }
  void Cleanup(ReduceContext* ctx) override {
    Call call(this);
    r_->Cleanup(ctx);
  }

 private:
  class Call {
   public:
    explicit Call(OuterReducer* r)
        : span_(r->combiner_ ? kAntiCombine : kAntiReduce), b_(Me()) {
      ++b_.reducer_depth;
    }
    ~Call() { --b_.reducer_depth; }

   private:
    ScopedSpan span_;
    ThreadBlock& b_;
  };

  ThreadBlock& b_;
  std::unique_ptr<Reducer> r_;
  bool combiner_;
};

std::atomic<bool> g_drop_armed{false};

/// Self-test fault: once armed, the next record any reduce task emits is
/// dropped, so the job's output lacks exactly one record.
class DroppingReducer : public Reducer {
 public:
  explicit DroppingReducer(std::unique_ptr<Reducer> r) : r_(std::move(r)) {}

  void Setup(const TaskInfo& info, ReduceContext* ctx) override {
    r_->Setup(info, Wrap(ctx));
  }
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override {
    r_->Reduce(key, values, Wrap(ctx));
  }
  void Cleanup(ReduceContext* ctx) override { r_->Cleanup(Wrap(ctx)); }

 private:
  struct DropContext : ReduceContext {
    ReduceContext* base = nullptr;
    void Emit(const Slice& key, const Slice& value) override {
      if (g_drop_armed.load(std::memory_order_relaxed) &&
          g_drop_armed.exchange(false)) {
        return;
      }
      base->Emit(key, value);
    }
  };
  ReduceContext* Wrap(ReduceContext* ctx) {
    ctx_.base = ctx;
    return &ctx_;
  }

  std::unique_ptr<Reducer> r_;
  DropContext ctx_;
};

class CountingPartitioner : public Partitioner {
 public:
  explicit CountingPartitioner(std::shared_ptr<const Partitioner> base)
      : base_(std::move(base)) {}
  int Partition(const Slice& key, int num_partitions) const override {
    Count(kPartitionCalls);
    return base_->Partition(key, num_partitions);
  }
  Status ValidatePartitions(int num_partitions) const override {
    return base_->ValidatePartitions(num_partitions);
  }

 private:
  std::shared_ptr<const Partitioner> base_;
};

template <typename Wrapper, typename Factory, typename... Args>
Factory WrapFactory(const Factory& inner, Args... args) {
  return [inner, args...]() {
    return std::make_unique<Wrapper>(inner(), args...);
  };
}

// --- storage ----------------------------------------------------------------

class TracingWritableFile : public antimr::WritableFile {
 public:
  explicit TracingWritableFile(std::unique_ptr<antimr::WritableFile> f)
      : f_(std::move(f)) {}
  Status Append(const Slice& data) override {
    if (!TracingOn()) return f_->Append(data);
    Count(kIoWriteBytes, data.size());
    ScopedSpan span(kIoWrite);
    return f_->Append(data);
  }
  Status Close() override {
    if (!TracingOn()) return f_->Close();
    ScopedSpan span(kIoWrite);
    return f_->Close();
  }

 private:
  std::unique_ptr<antimr::WritableFile> f_;
};

class TracingSequentialFile : public antimr::SequentialFile {
 public:
  explicit TracingSequentialFile(std::unique_ptr<antimr::SequentialFile> f)
      : f_(std::move(f)) {}
  Status Read(size_t n, Slice* result, char* scratch) override {
    if (!TracingOn()) return f_->Read(n, result, scratch);
    Status st;
    {
      ScopedSpan span(kIoRead);
      st = f_->Read(n, result, scratch);
    }
    if (st.ok()) Count(kIoReadBytes, result->size());
    return st;
  }
  Status Skip(uint64_t n) override { return f_->Skip(n); }

 private:
  std::unique_ptr<antimr::SequentialFile> f_;
};

class TracingRandomAccessFile : public antimr::RandomAccessFile {
 public:
  explicit TracingRandomAccessFile(
      std::unique_ptr<antimr::RandomAccessFile> f)
      : f_(std::move(f)) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    if (!TracingOn()) return f_->Read(offset, n, result, scratch);
    Status st;
    {
      ScopedSpan span(kIoRead);
      st = f_->Read(offset, n, result, scratch);
    }
    if (st.ok()) Count(kIoReadBytes, result->size());
    return st;
  }

 private:
  std::unique_ptr<antimr::RandomAccessFile> f_;
};

class TracingEnv : public Env {
 public:
  explicit TracingEnv(Env* base) : base_(base) {}

  Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<antimr::WritableFile>* file) override {
    std::unique_ptr<antimr::WritableFile> f;
    Status st = base_->NewWritableFile(fname, &f);
    if (!st.ok()) return st;
    if (TracingOn()) Count(kIoFilesCreated);
    *file = std::make_unique<TracingWritableFile>(std::move(f));
    return st;
  }
  Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<antimr::SequentialFile>* file) override {
    std::unique_ptr<antimr::SequentialFile> f;
    Status st = base_->NewSequentialFile(fname, &f);
    if (st.ok()) *file = std::make_unique<TracingSequentialFile>(std::move(f));
    return st;
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<antimr::RandomAccessFile>* file) override {
    std::unique_ptr<antimr::RandomAccessFile> f;
    Status st = base_->NewRandomAccessFile(fname, &f);
    if (st.ok()) {
      *file = std::make_unique<TracingRandomAccessFile>(std::move(f));
    }
    return st;
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status DeleteFile(const std::string& fname) override {
    return base_->DeleteFile(fname);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status ListFiles(std::vector<std::string>* names) override {
    return base_->ListFiles(names);
  }
  antimr::IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  Env* base_;
};

// --- network ----------------------------------------------------------------

class TracingConn : public net::Conn {
 public:
  TracingConn(std::unique_ptr<net::Conn> c, bool data_plane)
      : c_(std::move(c)), data_plane_(data_plane) {}

  Status Write(const std::string& data) override {
    if (!TracingOn()) return c_->Write(data);
    const uint64_t t0 = antimr::NowNanos();
    Status st = c_->Write(data);
    Count(kNetWriteNanos, antimr::NowNanos() - t0);
    Count(kNetWriteCalls);
    Count(kNetWriteBytes, data.size());
    return st;
  }
  Status ReadFull(size_t n, std::string* out) override {
    if (!data_plane_ || !TracingOn()) return c_->ReadFull(n, out);
    const uint64_t t0 = antimr::NowNanos();
    Status st = c_->ReadFull(n, out);
    Count(kNetReadWaitNanos, antimr::NowNanos() - t0);
    return st;
  }
  void Close() override { c_->Close(); }
  std::string peer() const override { return c_->peer(); }

 private:
  std::unique_ptr<net::Conn> c_;
  bool data_plane_;
};

class TracingListener : public net::Listener {
 public:
  explicit TracingListener(std::unique_ptr<net::Listener> l)
      : l_(std::move(l)) {}
  Status Accept(std::unique_ptr<net::Conn>* conn) override {
    std::unique_ptr<net::Conn> c;
    Status st = l_->Accept(&c);
    if (st.ok()) *conn = std::make_unique<TracingConn>(std::move(c), false);
    return st;
  }
  void Close() override { l_->Close(); }
  std::string addr() const override { return l_->addr(); }

 private:
  std::unique_ptr<net::Listener> l_;
};

}  // namespace

// --- public surface ---------------------------------------------------------

Snapshot Snapshot::operator-(const Snapshot& before) const {
  Snapshot d;
  for (int i = 0; i < kNumLayers; ++i) d.self[i] = self[i] - before.self[i];
  for (int i = 0; i < kNumCounters; ++i) {
    d.count[i] = count[i] - before.count[i];
  }
  return d;
}

uint64_t Snapshot::SelfTotal() const {
  uint64_t total = 0;
  for (uint64_t s : self) total += s;
  return total;
}

Snapshot TakeSnapshot() { return Blocks().Sum(); }

void ArmRecordDrop() { g_drop_armed.store(true); }

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool TracingOn() { return g_tracing.load(std::memory_order_relaxed); }

JobSpec Instrument(const JobSpec& original, const InstrumentOptions& options) {
  JobSpec spec = original;
  if (options.trace) {
    spec.mapper_factory = WrapFactory<InnerMapper>(spec.mapper_factory);
    spec.reducer_factory =
        WrapFactory<InnerReducer>(spec.reducer_factory, /*combiner=*/false);
    if (spec.combiner_factory) {
      spec.combiner_factory =
          WrapFactory<InnerReducer>(spec.combiner_factory, /*combiner=*/true);
    }
    spec.partitioner = std::make_shared<CountingPartitioner>(spec.partitioner);
  }
  if (options.anti) {
    spec = antimr::anticombine::EnableAntiCombining(spec, *options.anti);
  }
  if (options.trace) {
    spec.mapper_factory = WrapFactory<OuterMapper>(spec.mapper_factory);
    spec.reducer_factory =
        WrapFactory<OuterReducer>(spec.reducer_factory, /*combiner=*/false);
    if (spec.combiner_factory) {
      spec.combiner_factory =
          WrapFactory<OuterReducer>(spec.combiner_factory, /*combiner=*/true);
    }
  }
  if (options.drop_one_record) {
    spec.reducer_factory = WrapFactory<DroppingReducer>(spec.reducer_factory);
  }
  return spec;
}

std::unique_ptr<Env> NewTracingEnv(Env* base) {
  return std::make_unique<TracingEnv>(base);
}

Status TracingTransport::Listen(const std::string& addr,
                                std::unique_ptr<net::Listener>* listener) {
  std::unique_ptr<net::Listener> l;
  Status st = base_->Listen(addr, &l);
  if (st.ok()) *listener = std::make_unique<TracingListener>(std::move(l));
  return st;
}

Status TracingTransport::Dial(const std::string& addr,
                              std::unique_ptr<net::Conn>* conn) {
  std::unique_ptr<net::Conn> c;
  Status st = base_->Dial(addr, &c);
  if (st.ok()) {
    *conn = std::make_unique<TracingConn>(
        std::move(c), data_plane_dials_.load(std::memory_order_relaxed));
  }
  return st;
}

}  // namespace perfbench
