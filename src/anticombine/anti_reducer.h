// AntiReducer: the reducer-side half of the syntactic transformation (paper
// Figure 8, Algorithms 2 and 4). Decodes EagerSH/LazySH records into Shared,
// re-executes the original Map + Partition for LazySH records (the records
// this task owns go into Shared as Map emits them; the rest are dropped
// uncopied), and drives the original Reduce over the merged stream of
// regular input and Shared, in key order, handing it views of Shared's value
// runs. AntiCombiner applies the same treatment to a Combiner so map-phase
// combining can run over encoded records (paper Section 6.1).
#ifndef ANTIMR_ANTICOMBINE_ANTI_REDUCER_H_
#define ANTIMR_ANTICOMBINE_ANTI_REDUCER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "anticombine/anti_mapper.h"
#include "anticombine/options.h"
#include "anticombine/shared.h"
#include "common/arena.h"
#include "common/key_index.h"
#include "mr/api.h"

namespace antimr {
namespace anticombine {

/// \brief The context the original Mapper runs with on the reduce side.
///
/// One object serves the Mapper's Setup, every LazySH re-execution and its
/// Cleanup, as one context serves a map task: a Mapper may keep the
/// context it got at Setup and emit into it from Map (mr/skew.cc's
/// SaltingMapper does). Inside Remap it runs the job's Partition on each
/// emitted record and hands only the records of info.shuffle_partition to
/// `keep` (Algorithm 4, lines 6-10), so nothing is captured just to be
/// discarded. Outside Remap, emissions are discarded.
class RemapContext final : public MapContext {
 public:
  using Keep = std::function<void(const Slice& key, const Slice& value)>;

  /// `info` is read at each Emit, so it may be filled in after construction.
  RemapContext(const TaskInfo* info, Keep keep)
      : info_(info), keep_(std::move(keep)) {}

  /// Re-execute `mapper`'s Map on one input record.
  void Remap(Mapper* mapper, const Slice& key, const Slice& value) {
    remapping_ = true;
    mapper->Map(key, value, this);
    remapping_ = false;
  }

  void Emit(const Slice& key, const Slice& value) override {
    if (remapping_ &&
        info_->partitioner->Partition(key, info_->num_reduce_tasks) ==
            info_->shuffle_partition) {
      keep_(key, value);
    }
  }

 private:
  const TaskInfo* info_;
  Keep keep_;
  bool remapping_ = false;
};

/// \brief Decoding reducer.
class AntiReducer : public Reducer {
 public:
  /// \param o_reducer_factory the original program's reducer
  /// \param o_mapper_factory  the original mapper, re-executed for LazySH
  /// \param o_combiner_factory original combiner or null; applied inside
  ///        Shared when options.combine_in_shared is set
  AntiReducer(ReducerFactory o_reducer_factory, MapperFactory o_mapper_factory,
              ReducerFactory o_combiner_factory, AntiCombineOptions options);
  // remap_context_ calls back into this object.
  AntiReducer(const AntiReducer&) = delete;
  AntiReducer& operator=(const AntiReducer&) = delete;

  void Setup(const TaskInfo& info, ReduceContext* ctx) override;
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override;
  void Cleanup(ReduceContext* ctx) override;

 private:
  /// Run the original Reduce on the Shared groups strictly before `key`
  /// (the repeat-until loop of Algorithms 2 and 4). With `to_end` set,
  /// drains everything (the cleanup path).
  void DrainShared(const Slice& key, bool to_end, ReduceContext* ctx);

  /// Decode one incoming record into Shared. Untimed: Reduce times its
  /// whole decode loop once.
  void DecodeValue(const Slice& rep_key, const Slice& payload);

  /// LazySH decode: re-execute the original Map and Partition on one input
  /// record, adding the records this task owns to Shared as Map emits them.
  /// Timed per call into cpu.remap, the grain of the map side's map_fn,
  /// minus the combines and spills (cpu.combine, cpu.shared) those inserts
  /// trigger.
  void Remap(const Slice& input_key, const Slice& input_value);

  ReducerFactory o_reducer_factory_;
  MapperFactory o_mapper_factory_;
  ReducerFactory o_combiner_factory_;
  AntiCombineOptions options_;

  TaskInfo info_;
  std::unique_ptr<Reducer> o_reducer_;
  std::unique_ptr<Mapper> o_mapper_;
  std::unique_ptr<Reducer> o_combiner_;
  std::unique_ptr<Shared> shared_;
  RemapContext remap_context_;    // the original Mapper's context: adds
                                  // owned records to shared_
  CaptureContext remap_capture_;  // discards the combiner's Setup and
                                  // Cleanup emissions

  // Scratch reused across Reduce calls to avoid per-group allocations. The
  // local-group fast path interns each plain record once into local_arena_
  // (cleared per Reduce call) instead of materializing two strings per
  // record.
  Arena local_arena_;
  std::vector<RecordRef> local_group_;
  std::vector<Slice> decode_keys_;
  /// Remap calls of this task, added to antimr_remap_calls_total once, at
  /// Cleanup.
  uint64_t remap_calls_ = 0;
};

/// \brief Anti-Combining-aware Combiner wrapper.
///
/// Runs in the map phase over *encoded* records (paper Section 6.1), as one
/// flat pass. Reduce decodes each record of the partition once into
/// (key id, value) pairs. Cleanup buckets the values per key, runs the
/// original Combiner over the keys in comparator order, and re-encodes its
/// output with EagerSH value groups across keys, emitted in (representative
/// key, value) order so the segment stays merge-compatible.
class AntiCombiner : public Reducer {
 public:
  AntiCombiner(ReducerFactory o_combiner_factory,
               MapperFactory o_mapper_factory);
  // remap_context_ calls back into this object.
  AntiCombiner(const AntiCombiner&) = delete;
  AntiCombiner& operator=(const AntiCombiner&) = delete;

  void Setup(const TaskInfo& info, ReduceContext* ctx) override;
  void Reduce(const Slice& key, ValueIterator* values,
              ReduceContext* ctx) override;
  void Cleanup(ReduceContext* ctx) override;

 private:
  void DecodeValue(const Slice& rep_key, const Slice& payload);
  /// Id of `key` in keys_, interning it on first sight.
  uint32_t KeyId(const Slice& key);
  void Add(uint32_t key_id, const Slice& value) {
    pair_keys_.push_back(key_id);
    pair_values_.push_back(value);
  }

  ReducerFactory o_combiner_factory_;
  MapperFactory o_mapper_factory_;

  TaskInfo info_;
  std::unique_ptr<Reducer> o_combiner_;
  std::unique_ptr<Mapper> o_mapper_;

  // Decoded records of the pass, as views into arena_: each distinct key is
  // interned once, each value once per record.
  Arena arena_;
  std::vector<Slice> keys_;          // distinct keys, by id
  KeyIndex key_index_;               // key -> id over keys_
  uint32_t last_rep_id_ = 0;         // id of the last representative key
  std::vector<uint32_t> pair_keys_;  // decoded (key id, value) pairs, in
  std::vector<Slice> pair_values_;   //   arrival order
  std::vector<Slice> decode_keys_;
  uint64_t pass_remap_calls_ = 0;    // LazySH decodes of this pass

  // Cleanup scratch.
  std::vector<uint32_t> key_ends_;  // end of each key's bucket in buckets_
  std::vector<RecordRef> buckets_;  // decoded records bucketed by key id
  std::vector<uint32_t> key_order_;  // key ids in comparator order
  CaptureContext combined_;          // the original Combiner's output
  EagerGroups groups_;
  std::string payload_;

  RemapContext remap_context_;  // the original Mapper's context: interns
                                // owned records into the pass
};

}  // namespace anticombine
}  // namespace antimr

#endif  // ANTIMR_ANTICOMBINE_ANTI_REDUCER_H_
