// In-memory map output collection: a chunked arena plus a record index,
// partitioned in one pass and sorted by (partition, key) before each spill —
// the scaled-down analog of Hadoop's io.sort.mb circular buffer. Records are
// interned once at Emit time and flow out as RecordRef views; chunked
// storage means growth never re-copies already-buffered bytes (unlike the
// old std::string arena, whose doubling realloc moved every record).
//
// The sort makes no std::function call and no key comparison for most
// records. A counting pass buckets record indexes by partition in arrival
// order; within each partition an LSD radix sort orders compact
// (8-byte big-endian key prefix, index) pairs; and only runs tied on the
// prefix whose keys can still differ go through a comparison sort.
#ifndef ANTIMR_MR_MAP_OUTPUT_BUFFER_H_
#define ANTIMR_MR_MAP_OUTPUT_BUFFER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "io/merger.h"
#include "io/run_file.h"
#include "mr/api.h"

namespace antimr {

/// \brief Buffers map output records grouped by target partition.
class MapOutputBuffer {
 public:
  MapOutputBuffer(int num_partitions, KeyComparator key_cmp);

  /// Append one record. Its partition is assigned later, by
  /// AssignPartitions.
  void Add(const Slice& key, const Slice& value);

  /// Append a whole batch. One index reservation for the lot; bytes are
  /// interned record by record as in Add.
  void AddBatch(const RecordBatch& batch);

  /// Assign every buffered record its partition in one pass over the
  /// index. Fails with InvalidArgument, naming the value and the partition
  /// count, when `partitioner` returns a partition outside
  /// [0, num_partitions); the buffer is then unsorted and must not be
  /// spilled. Must be called before Sort.
  Status AssignPartitions(const Partitioner& partitioner);

  /// Approximate bytes held (payload + per-record index overhead). The
  /// sort scratch (two arrays of 16-byte pairs, kept across spills) is
  /// deliberately left out: it is sized by the records of one spill, not
  /// by their bytes, and counting it would move the spill points.
  size_t memory_usage() const;
  size_t record_count() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Order records by (partition, key, arrival): records whose keys
  /// compare equal under key_cmp keep insertion order, exactly as a
  /// std::stable_sort by (partition, key_cmp) would leave them. Must follow
  /// AssignPartitions and precede PartitionStream.
  ///
  /// Three steps, none of which moves an Entry:
  ///  1. A counting pass buckets entry indexes by partition, in arrival
  ///     order, and yields each partition's bounds.
  ///  2. Within a partition, an LSD radix sort over (OrderPrefix(key),
  ///     index) pairs, one pass per key byte on which the partition's
  ///     records disagree.
  ///  3. A run of pairs tied on the prefix is in arrival order. It is
  ///     stable-sorted by the full key unless every key in it is at most 8
  ///     bytes and of one length (such keys are equal) or it is already in
  ///     key order (a run of one long key's duplicates, say).
  ///
  /// Under a key_cmp that is not IsBytewise, prefixes carry no order: every
  /// prefix is 0, step 2 is skipped, and each partition is one tied run
  /// sorted by key_cmp.
  void Sort();

  /// Stream over the sorted records of one partition. Valid until
  /// Clear()/Add()/Sort() is next called.
  std::unique_ptr<KVStream> PartitionStream(int partition) const;

  /// Number of records currently buffered for `partition` (post-Sort).
  uint64_t PartitionRecords(int partition) const;

  /// Drop all buffered data, retaining arena capacity. Also the map-attempt
  /// scrub point: a retried attempt starts from a cleared (but warm) arena.
  void Clear();

  /// Arena bytes interned since the last Clear (tests/metrics).
  size_t arena_bytes_used() const { return arena_.bytes_used(); }

 private:
  /// InternRecord lays the value directly after the key, so one base
  /// pointer plus two lengths indexes the whole record.
  struct Entry {
    const char* base;
    uint32_t key_len;
    uint32_t val_len;
    int32_t partition;  ///< set by AssignPartitions
  };

  /// A sort pair: the key's order prefix (0 under a non-bytewise key_cmp)
  /// and the record's index into entries_.
  struct SortKey {
    uint64_t prefix;
    uint32_t index;
  };

  class BufferStream;

  void SortPartition(SortKey* keys, size_t n);
  void RadixSortByPrefix(SortKey* keys, size_t n);
  void SortTiedRuns(SortKey* keys, size_t n);
  bool TiedKeysMayDiffer(const SortKey* keys, size_t n) const;

  /// Stable-sorts [first, last) by key under `less`, unless it is already
  /// in order.
  template <typename KeyLess>
  void StableSortRun(SortKey* first, SortKey* last, KeyLess less) const;

  Slice KeyOf(const Entry& e) const { return Slice(e.base, e.key_len); }
  Slice ValueOf(const Entry& e) const {
    return Slice(e.base + e.key_len, e.val_len);
  }

  int num_partitions_;
  KeyComparator key_cmp_;
  bool bytewise_;  // IsBytewise(key_cmp_)
  Arena arena_;
  std::vector<Entry> entries_;  // arrival order; Sort never permutes it
  std::vector<size_t> partition_begin_;  // boundaries into order_ after Sort
  // After Sort, order_[i].index is the entry at sorted position i. Both
  // arrays keep their capacity across Clear, so a steady-state spill does
  // not reallocate them; only a tied run that needs sorting takes
  // std::stable_sort's temporary buffer.
  std::vector<SortKey> order_;
  // The radix passes' ping-pong buffer, as large as the largest partition
  // a pass has moved.
  std::vector<SortKey> radix_scratch_;
  bool sorted_ = false;
};

}  // namespace antimr

#endif  // ANTIMR_MR_MAP_OUTPUT_BUFFER_H_
