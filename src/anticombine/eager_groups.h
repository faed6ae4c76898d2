// EagerSH value grouping (paper Section 4). Records that share a value and
// a reduce partition collapse into one EagerSH record keyed by their
// minimal key. AntiMapper groups each Map call's output (or each cross-call
// window) this way; AntiCombiner groups its Combiner's output.
#ifndef ANTIMR_ANTICOMBINE_EAGER_GROUPS_H_
#define ANTIMR_ANTICOMBINE_EAGER_GROUPS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "anticombine/encoding.h"
#include "common/record_batch.h"

namespace antimr {
namespace anticombine {

/// \brief EagerSH value groups of one batch of records.
///
/// One index sort by (partition, value, key) lays out each partition as a
/// contiguous range of sorted records and each value group as a run inside
/// it. A run's first key is the group's minimal key, its representative;
/// the others follow in ascending order, as the EagerSH payload lists them.
/// All state is reused scratch: after warm-up, Build and Emit allocate
/// nothing.
class EagerGroups {
 public:
  struct Partition {
    int partition = 0;
    size_t begin = 0;        ///< first sorted record (see record())
    size_t end = 0;          ///< one past its last sorted record
    size_t group_begin = 0;  ///< its groups, in groups_ index order
    size_t group_end = 0;
    Slice min_key;           ///< its minimal key
    size_t eager_bytes = 0;  ///< keys + payloads of its EagerSH records
  };

  /// Group `records`, whose views must outlive the next Emit.
  /// `partitions[i]` is record i's partition; null puts every record in
  /// partition 0. `key_cmp` must outlive the next Emit too.
  void Build(const RecordBatch& records, const int* partitions,
             const KeyComparator& key_cmp);

  /// Partitions in ascending order; empty when Build saw no records.
  const std::vector<Partition>& partitions() const { return parts_; }

  /// Index into Build's `records` of the i-th record in sorted order.
  size_t record(size_t i) const { return entries_[i].index; }

  /// Emit `part`'s groups as EagerSH records in (representative key, value)
  /// order, encoding each payload into `*payload`. Returns how many carry
  /// more than one key; the rest are flagged-plain.
  template <typename Context>
  size_t Emit(const Partition& part, Context* ctx, std::string* payload) {
    SortGroups(part);
    size_t shared = 0;
    for (size_t g = part.group_begin; g < part.group_end; ++g) {
      const Group& group = groups_[g];
      const Slice* keys = keys_.data() + group.first_key;
      EncodeEagerPayload(std::span<const Slice>(keys + 1, group.num_keys - 1),
                         group.value, payload);
      ctx->Emit(keys[0], *payload);
      if (group.num_keys > 1) ++shared;
    }
    return shared;
  }

 private:
  struct Entry {
    uint64_t prefix;  ///< the value's first 8 bytes, big-endian
    int partition;
    uint32_t index;
  };
  struct Group {
    Slice value;
    uint32_t first_key;  ///< keys_[first_key] is the representative
    uint32_t num_keys;   ///< representative included
  };

  /// Order `part`'s groups by (representative key, value).
  void SortGroups(const Partition& part);

  const KeyComparator* key_cmp_ = nullptr;
  std::vector<Entry> entries_;  // records in (partition, value, key) order
  std::vector<Slice> keys_;     // their keys, in the same order
  std::vector<Group> groups_;
  std::vector<Partition> parts_;
};

}  // namespace anticombine
}  // namespace antimr

#endif  // ANTIMR_ANTICOMBINE_EAGER_GROUPS_H_
