// K-way merge of sorted KVStreams with a pluggable comparator. Used on the
// map side (merging spill files per partition), the reduce side (merging
// shuffled segments), and inside Shared (merging its spills).
#ifndef ANTIMR_IO_MERGER_H_
#define ANTIMR_IO_MERGER_H_

#include <functional>
#include <memory>
#include <vector>

#include "io/run_file.h"

namespace antimr {

/// Three-way key comparator; negative/zero/positive like memcmp.
using KeyComparator = std::function<int(const Slice&, const Slice&)>;

/// Bytewise comparison; the default key order.
int BytewiseCompare(const Slice& a, const Slice& b);

/// True when `cmp` wraps BytewiseCompare itself, so a caller may compare
/// keys inline (Slice::compare, Slice ==, or OrderPrefix) instead of making
/// a std::function call per comparison. A closure that happens to order
/// bytewise is not recognised and takes the general path.
bool IsBytewise(const KeyComparator& cmp);

/// \brief Heap-based k-way merging stream.
///
/// Stable across inputs: on equal keys, records from lower-indexed input
/// streams are produced first, so merge output is deterministic.
class MergingStream : public KVStream {
 public:
  MergingStream(std::vector<std::unique_ptr<KVStream>> inputs,
                KeyComparator cmp);

  bool Valid() const override { return current_ >= 0; }
  Slice key() const override { return inputs_[current_]->key(); }
  Slice value() const override { return inputs_[current_]->value(); }
  Status Next() override;

  /// Vectorized merge, when every input supports eager batches: each
  /// winning stream drains a whole run bounded by the second-best head key
  /// in one NextBatch call, with one heap fix-up per run instead of per
  /// record, and runs accumulate into the batch until an input would have
  /// to produce a second run (which would invalidate its first run's
  /// views). Ties drain to the lower-indexed input first, so batch output
  /// is byte-identical to the record-wise merge. Falls back to the
  /// one-record adapter when any input is deferred-advance.
  Status NextBatch(RecordBatch* batch, const BatchOptions& opts) override;
  bool SupportsEagerBatches() const override { return eager_inputs_; }

 private:
  void SiftDown(size_t i);
  bool HeapLess(int a, int b) const;
  void InitHeap();

  std::vector<std::unique_ptr<KVStream>> inputs_;
  KeyComparator cmp_;
  std::vector<int> heap_;  // indexes into inputs_
  int current_ = -1;       // stream whose head is the current record
  bool eager_inputs_ = false;
  // Plain-function form of cmp_ (null when cmp_ wraps a closure), handed to
  // producers via BatchOptions::raw_cmp; bytewise_ (IsBytewise) marks the
  // default byte order so HeapLess can compare inline.
  int (*raw_cmp_)(const Slice&, const Slice&) = nullptr;
  bool bytewise_ = false;
  // NextBatch scratch: the current winner's run, and per-input marks of the
  // merged-batch generation that last drained it.
  RecordBatch run_;
  std::vector<uint64_t> drained_in_;
  uint64_t drain_gen_ = 0;
};

}  // namespace antimr

#endif  // ANTIMR_IO_MERGER_H_
