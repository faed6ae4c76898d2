// The Shared structure (paper Section 5): a reduce-task-level store for
// decoded key/value pairs awaiting their Reduce call. Faithful to the paper's
// design: a min-heap over keys for O(1) peeks, a hash table from key to value
// list, sorted spills to local disk when the memory budget is exceeded,
// spill merging past a threshold, buffered sequential reads of spilled
// groups, and optional reduce-phase Combining that collapses each key's
// values as they arrive.
//
// Each key's values live in one run: a single string of varint32-length-
// prefixed values, appended to on insert. A pop moves the group's runs out
// of the table without copying their bytes and hands the values out as
// views into them.
#ifndef ANTIMR_ANTICOMBINE_SHARED_H_
#define ANTIMR_ANTICOMBINE_SHARED_H_

#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "anticombine/capture_context.h"
#include "common/arena.h"
#include "common/hash.h"
#include "io/merger.h"
#include "mr/api.h"
#include "mr/metrics.h"

namespace antimr {
namespace anticombine {

/// \brief ValueIterator over consecutive value runs (varint32-length-
/// prefixed values back to back). Values view the runs' bytes.
class RunValueIterator : public ValueIterator {
 public:
  void Reset(const std::string* runs, size_t num_runs) {
    runs_ = next_ = runs;
    runs_end_ = runs + num_runs;
    pos_ = end_ = nullptr;
  }

  bool Next(Slice* value) override;

  /// Index of the run the last value came from.
  size_t run_index() const { return static_cast<size_t>(next_ - runs_) - 1; }

 private:
  const std::string* runs_ = nullptr;
  const std::string* next_ = nullptr;
  const std::string* runs_end_ = nullptr;
  const char* pos_ = nullptr;
  const char* end_ = nullptr;
};

/// \brief Buffer for decoded records, drained in key order.
class Shared {
 public:
  struct Options {
    KeyComparator key_cmp;       ///< total key order (drain order)
    KeyComparator grouping_cmp;  ///< key equality for groups
    Env* env = nullptr;          ///< node-local disk for spills
    std::string file_prefix;     ///< unique per reduce task
    size_t memory_limit_bytes = 8 * 1024 * 1024;
    /// Merge spill files once their count exceeds this (mirrors the map
    /// phase's io.sort.factor-style merging).
    int spill_merge_threshold = 10;
    /// Optional reduce-phase Combiner: values of one key are combined as
    /// they are added, often keeping Shared entirely in memory (paper
    /// Sections 5, 7.5).
    Reducer* combiner = nullptr;
    JobMetrics* metrics = nullptr;
  };

  explicit Shared(Options options);
  ~Shared();

  Shared(const Shared&) = delete;
  Shared& operator=(const Shared&) = delete;

  /// Insert one decoded record; may trigger combining and/or a spill.
  /// Untimed; the combine (cpu.combine) and the spill or spill merge
  /// (cpu.shared) it may trigger time themselves.
  void Add(const Slice& key, const Slice& value);

  /// True when no records remain (memory and spills).
  bool Empty();

  /// Copy the minimal key into *key. Returns false when empty.
  bool PeekMinKey(std::string* key);

  /// Zero-copy peek: *key views either an interned in-memory key or a spill
  /// stream head. Valid until the next Add/PopMinGroup call.
  bool PeekMinKey(Slice* key);

  /// Remove the minimal group (all keys grouping-equal to the minimal key,
  /// from memory and spills). *group_key views the minimal key, and
  /// *values iterates the group's values in key order; the iterator and
  /// every value it yields stay valid until the next Add/PopMinGroup call.
  /// Returns false when empty.
  bool PopMinGroup(Slice* group_key, ValueIterator** values);

  /// Key bytes plus value bytes held in memory (run length prefixes and
  /// string capacity excluded); the spill trigger compares this to
  /// memory_limit_bytes.
  size_t memory_usage() const { return memory_bytes_; }

 private:
  struct HeapCmp {
    const KeyComparator* cmp;
    bool operator()(const Slice& a, const Slice& b) const {
      return (*cmp)(a, b) > 0;  // min-heap
    }
  };

  /// A key's pending values plus the size at which the next combine fires.
  /// The doubling threshold keeps combining amortized-linear even when the
  /// combiner cannot shrink a key's values below 2 (e.g. top-k style
  /// aggregates over many distinct sub-values).
  struct ValueList {
    std::string run;         ///< varint32(length) + bytes, per value
    size_t count = 0;        ///< values in run
    size_t value_bytes = 0;  ///< run bytes minus the length prefixes
    size_t next_combine = 2;
  };

  void AddInternal(const Slice& key, const Slice& value, bool allow_combine);
  void AppendValue(ValueList* list, const Slice& value);
  void CombineKey(const Slice& key, ValueList* list);
  void SpillToDisk();
  void MaybeMergeSpills();
  /// Minimal key across the in-memory heap and spill stream heads; false
  /// when everything is empty. *out is a view (interned key or spill stream
  /// head) valid until the next mutation.
  bool FindMinKey(Slice* out);
  /// Clear the key arena once nothing references it (table and heap empty).
  void MaybeReclaimKeys();

  Options options_;
  /// Each distinct key's bytes are interned once into key_arena_; the table
  /// key and the heap entry are both views of that single copy. The arena is
  /// reclaimed when table and heap drain (spill, or the last group popped) —
  /// the old std::string design copied every key on insert and re-copied it
  /// at each heap_.top() touch during spills and pops.
  Arena key_arena_;
  std::unordered_map<Slice, ValueList, SliceHash> table_;
  std::priority_queue<Slice, std::vector<Slice>, HeapCmp> heap_;
  struct SpillRun {
    std::string fname;
    std::unique_ptr<KVStream> stream;
  };
  std::vector<SpillRun> spills_;
  size_t memory_bytes_ = 0;
  int spill_counter_ = 0;

  // The popped group, valid until the next Add/PopMinGroup: its key, and
  // its values as the runs moved out of the table (one per key), or as
  // merged_run_ when the group spans spills.
  std::string group_key_;
  std::vector<std::string> group_runs_;
  std::vector<Slice> group_keys_;  ///< keys of group_runs_, spill path only
  std::string merged_run_;
  RunValueIterator group_values_;

  CaptureContext combined_;  ///< the reduce-phase Combiner's output
};

}  // namespace anticombine
}  // namespace antimr

#endif  // ANTIMR_ANTICOMBINE_SHARED_H_
