// CaptureContext: a map or reduce context that keeps what is emitted into
// it in one reused arena. AntiMapper captures each Map call's output with
// it, and AntiCombiner and Shared collect their Combiner's output in it.
#ifndef ANTIMR_ANTICOMBINE_CAPTURE_CONTEXT_H_
#define ANTIMR_ANTICOMBINE_CAPTURE_CONTEXT_H_

#include "common/arena.h"
#include "common/record_batch.h"
#include "mr/api.h"

namespace antimr {
namespace anticombine {

/// \brief Map or reduce context that records emissions instead of
/// forwarding them.
///
/// Arena-backed: one Map call's output (or one combine pass's Combiner
/// output) lands in a single reused buffer, so interception costs no
/// per-record allocations after warm-up.
class CaptureContext : public MapContext, public ReduceContext {
 public:
  void Emit(const Slice& key, const Slice& value) override {
    entries_.push_back(arena_.InternRecord(key, value));
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Views are stable until Clear(): the chunked arena never relocates
  /// interned bytes, so captured slices can be held across further Emits
  /// (the cross-call window relies on this).
  Slice key(size_t i) const { return entries_[i].key; }
  Slice value(size_t i) const { return entries_[i].value; }
  const RecordBatch& records() const { return entries_; }

  void Clear() {
    arena_.Clear();
    entries_.clear();
  }

 private:
  Arena arena_;
  RecordBatch entries_;
};

}  // namespace anticombine
}  // namespace antimr

#endif  // ANTIMR_ANTICOMBINE_CAPTURE_CONTEXT_H_
