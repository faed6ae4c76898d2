// Outside-in per-layer tracing for the repository benchmark.
//
// Nothing here reaches into the program: every measurement is taken by a
// wrapper around one of the program's public seams — the Mapper, Reducer,
// Partitioner and MapContext objects a JobSpec hands out, the Env given to
// RunJob / Worker, and the net::Transport given to the Coordinator and
// Workers. Instrument() wraps a JobSpec twice, before and after
// anticombine::EnableAntiCombining, so each span sits on exactly one layer
// boundary:
//
//   outer mapper   Setup..destruction  -> map task span (self: mr framework)
//     outer Map                        -> anticombine encode (self)
//       inner Map                      -> user map_fn, or remap when an outer
//                                         reducer/combiner call is active on
//                                         this thread
//       outer ctx Emit                 -> mr emit into the map buffer
//   outer reducer  Setup..destruction  -> reduce task span (self: wait/merge)
//     outer Setup/Reduce/Cleanup       -> anticombine decode + Shared (self)
//       inner Reduce                   -> user reduce_fn
//   outer combiner Setup/Reduce/Cleanup-> anticombine map-side combine (self)
//     inner combiner                   -> user combine
//   Env file Append/Read               -> io write/read
//
// Spans are kept on a per-thread stack; a span's self time is its wall
// duration minus the spans it encloses on the same thread. Inside a map or
// reduce task, self times are then scaled by the task's thread-CPU / wall
// ratio, so time the thread sat descheduled is not charged to any layer and
// the layers of a task sum to the CPU it used. Counters and times
// accumulate in per-thread blocks that are summed on demand, so the hot
// path takes no lock and shares no cache line.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "anticombine/options.h"
#include "io/env.h"
#include "mr/job_spec.h"
#include "net/transport.h"

namespace perfbench {

/// Layers whose self time is recorded. All are CPU-bound spans on the
/// executing thread, so their sum is comparable to process CPU time.
enum Layer : int {
  kMapFn,        ///< user Map, outside any reducer wrapper
  kRemap,        ///< user Map re-executed under a reducer/combiner wrapper
  kReduceFn,     ///< user Reduce
  kCombine,      ///< user Combiner
  kEncode,       ///< outer Map minus inner Map and Emit: AntiMapper encode
  kAntiReduce,   ///< outer reducer calls minus user code: decode + Shared
  kAntiCombine,  ///< outer combiner calls minus user code: AntiCombiner
  kEmit,         ///< MapContext::Emit into the map buffer (incl. partition)
  kMapTask,      ///< map task span minus all of the above: input, sort,
                 ///< spill, merge, codec
  kReduceTask,   ///< reduce task span outside reducer code: merge,
                 ///< decompress, and the value pulls that drive the merge
  kIoWrite,      ///< Env WritableFile Append/Close
  kIoRead,       ///< Env SequentialFile/RandomAccessFile Read
  kNumLayers
};

/// Event counts and inclusive (wall) times.
enum Counter : int {
  kMapCalls,           ///< user Map calls in map tasks
  kRemapCalls,         ///< user Map calls under a reducer/combiner wrapper
  kReduceCalls,        ///< user Reduce calls
  kCombineInRecords,   ///< values read by user Combiner calls
  kCombineOutRecords,  ///< records emitted by user Combiner calls
  kLogicalRecords,     ///< records emitted by user Map in map tasks
  kPartitionCalls,     ///< Partitioner::Partition calls, anywhere
  kEmitCalls,          ///< records emitted into the map buffer
  kMapTasks,           ///< map task attempts (outer mappers constructed)
  kReduceTasks,        ///< reduce task attempts
  kMapTaskNanos,       ///< summed map task spans (inclusive)
  kReduceTaskNanos,    ///< summed reduce task spans (inclusive)
  kIoWriteBytes,
  kIoReadBytes,
  kIoFilesCreated,
  kNetWriteCalls,
  kNetWriteBytes,
  kNetWriteNanos,     ///< wall time inside Conn::Write (incl. back-pressure)
  kNetReadWaitNanos,  ///< wall time blocked in ReadFull on fetcher conns
  kNumCounters
};

/// Sum of every thread's accumulators at one instant. Take one before and
/// one after a job and subtract.
struct Snapshot {
  uint64_t self[kNumLayers] = {};
  uint64_t count[kNumCounters] = {};

  Snapshot operator-(const Snapshot& before) const;
  /// Sum of all self-time layers, nanoseconds.
  uint64_t SelfTotal() const;
};

Snapshot TakeSnapshot();

/// Runtime switch for the Env and Transport wrappers, which live as long as
/// a cluster does; the JobSpec wrappers are installed per job instead.
void SetTracing(bool on);
bool TracingOn();

struct InstrumentOptions {
  /// Install the tracing wrappers.
  bool trace = false;
  /// Apply anti-combining with these options between the inner and the
  /// outer wrappers; nullopt runs the original program.
  std::optional<antimr::anticombine::AntiCombineOptions> anti;
  /// Install a reducer wrapper that drops one record per ArmRecordDrop().
  /// Only the benchmark's self-test sets this, to prove the output gate
  /// can fail.
  bool drop_one_record = false;
};

/// Make the next record emitted by a drop_one_record reducer, in any task
/// of any job in this process, disappear.
void ArmRecordDrop();

/// Return `original` with the requested wrappers and transform applied.
antimr::JobSpec Instrument(const antimr::JobSpec& original,
                           const InstrumentOptions& options);

/// Env that times and counts file I/O on `base` while tracing is on.
/// `base` is borrowed; stats() reports the base Env's counters.
std::unique_ptr<antimr::Env> NewTracingEnv(antimr::Env* base);

/// Transport that counts and times Conn writes while tracing is on, and the
/// blocking reads of conns dialed once data-plane counting is enabled.
class TracingTransport : public antimr::net::Transport {
 public:
  explicit TracingTransport(antimr::net::Transport* base) : base_(base) {}

  antimr::Status Listen(
      const std::string& addr,
      std::unique_ptr<antimr::net::Listener>* listener) override;
  antimr::Status Dial(const std::string& addr,
                      std::unique_ptr<antimr::net::Conn>* conn) override;
  const char* name() const override { return base_->name(); }

  /// Conns dialed from now on are shuffle fetcher conns: the control conns
  /// are all dialed while the cluster starts.
  void MarkClusterStarted() {
    data_plane_dials_.store(true, std::memory_order_relaxed);
  }

 private:
  antimr::net::Transport* base_;
  std::atomic<bool> data_plane_dials_{false};
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
