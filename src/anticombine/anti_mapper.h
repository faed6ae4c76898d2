// AntiMapper: the mapper-side half of the syntactic transformation (paper
// Figure 7). Wraps the original Mapper as a black box, intercepts each Map
// call's output through a capturing context, measures the call's Map +
// Partition cost, and — independently per target partition — emits the
// cheaper of the EagerSH and LazySH encodings, constrained by threshold T.
#ifndef ANTIMR_ANTICOMBINE_ANTI_MAPPER_H_
#define ANTIMR_ANTICOMBINE_ANTI_MAPPER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "anticombine/capture_context.h"
#include "anticombine/eager_groups.h"
#include "anticombine/options.h"
#include "common/arena.h"
#include "mr/api.h"

namespace antimr {
namespace anticombine {

/// \brief Adaptive encoding mapper.
///
/// `allow_lazy` must be false when the original Map or Partition function is
/// non-deterministic (paper Section 6.2); the transform derives it from
/// JobSpec::deterministic.
class AntiMapper : public Mapper {
 public:
  AntiMapper(MapperFactory o_mapper_factory, AntiCombineOptions options,
             bool allow_lazy);

  void Setup(const TaskInfo& info, MapContext* ctx) override;
  void Map(const Slice& key, const Slice& value, MapContext* ctx) override;
  void Cleanup(MapContext* ctx) override;

 private:
  /// Encode and emit one batch of captured records. `inputs` are the input
  /// records of the Map calls that produced it: one for a Map call, the
  /// buffered calls for a cross-call window, none for Setup/Cleanup
  /// emissions, which therefore cannot be Lazy-encoded. `call_of[i]` is
  /// the index in `inputs` of record i's call; null means a single call.
  void EncodeAndEmit(const CaptureContext& batch,
                     std::span<const RecordRef> inputs, const size_t* call_of,
                     uint64_t map_cost_nanos, MapContext* ctx);

  /// Encode and emit the buffered window: EagerSH value groups span calls;
  /// LazySH records still resend individual inputs.
  void FlushWindow(MapContext* ctx);

  /// Count a captured batch as the original program's map output.
  void CountOutput(const CaptureContext& batch);

  /// Bytes of `part`'s LazySH encoding: per contributing call, its input
  /// keyed by the minimal key the call sends to `part`. Leaves those keys
  /// in call_min_.
  size_t SizeLazy(const CaptureContext& batch,
                  const EagerGroups::Partition& part,
                  std::span<const RecordRef> inputs, const size_t* call_of);

  /// Emit one partition of groups_ as EagerSH records, counting them.
  void EmitEager(const EagerGroups::Partition& part, MapContext* ctx);

  /// Record one AdaptiveSH Eager/Lazy choice as a trace instant. Decisions
  /// happen per partition per Map call — far too many to record all — so
  /// only the first few per mapper instance are emitted, enough to see in a
  /// trace which way each stage's mappers lean. `partition` is -1 when the
  /// fan-out-1 fast path decides without partitioning.
  void TraceDecision(bool lazy, int partition, size_t lazy_bytes,
                     size_t eager_bytes);

  MapperFactory o_mapper_factory_;
  AntiCombineOptions options_;
  bool allow_lazy_;
  int trace_decisions_left_ = 32;  ///< sampling budget for TraceDecision

  std::unique_ptr<Mapper> o_mapper_;
  CaptureContext capture_;
  TaskInfo info_;
  std::string payload_;  // scratch reused across emissions

  // Scratch for encoding one batch.
  std::vector<int> partitions_;         // per-record partition
  EagerGroups groups_;                  // value groups per partition
  std::vector<size_t> lazy_bytes_;      // per partition: LazySH size
  std::vector<const Slice*> call_min_;  // per call: minimal key, or null

  // Cross-call window state (only used when cross_call_window > 1).
  CaptureContext window_capture_;     // records of all buffered calls
  std::vector<size_t> window_call_of_;  // record index -> buffered call
  Arena window_input_arena_;            // backs window_inputs_'s views
  std::vector<RecordRef> window_inputs_;  // buffered calls' input records
  uint64_t window_cost_nanos_ = 0;    // summed Map cost of buffered calls
};

}  // namespace anticombine
}  // namespace antimr

#endif  // ANTIMR_ANTICOMBINE_ANTI_MAPPER_H_
