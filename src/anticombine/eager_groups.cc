#include "anticombine/eager_groups.h"

#include <algorithm>

namespace antimr {
namespace anticombine {

void EagerGroups::Build(const RecordBatch& records, const int* partitions,
                        const KeyComparator& key_cmp) {
  key_cmp_ = &key_cmp;
  const size_t n = records.size();
  entries_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    entries_[i] = {OrderPrefix(records[i].value),
                   partitions == nullptr ? 0 : partitions[i],
                   static_cast<uint32_t>(i)};
  }
  std::sort(entries_.begin(), entries_.end(),
            [&](const Entry& a, const Entry& b) {
              if (a.partition != b.partition) {
                return a.partition < b.partition;
              }
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              const RecordRef& ra = records[a.index];
              const RecordRef& rb = records[b.index];
              const int vc = ra.value.compare(rb.value);
              if (vc != 0) return vc < 0;
              return key_cmp(ra.key, rb.key) < 0;
            });

  keys_.resize(n);
  for (size_t i = 0; i < n; ++i) keys_[i] = records[entries_[i].index].key;
  groups_.clear();
  parts_.clear();
  size_t i = 0;
  while (i < n) {
    Partition part;
    part.partition = entries_[i].partition;
    part.begin = i;
    part.group_begin = groups_.size();
    while (i < n && entries_[i].partition == part.partition) {
      // One value group: the run of records equal in value to record i.
      const Slice value = records[entries_[i].index].value;
      size_t j = i + 1;
      while (j < n && entries_[j].partition == part.partition &&
             entries_[j].prefix == entries_[i].prefix &&
             records[entries_[j].index].value == value) {
        ++j;
      }
      groups_.push_back({value, static_cast<uint32_t>(i),
                         static_cast<uint32_t>(j - i)});
      if (i == part.begin || key_cmp(keys_[i], part.min_key) < 0) {
        part.min_key = keys_[i];
      }
      part.eager_bytes +=
          keys_[i].size() +
          EagerPayloadSize(
              std::span<const Slice>(keys_.data() + i + 1, j - i - 1), value);
      i = j;
    }
    part.end = i;
    part.group_end = groups_.size();
    parts_.push_back(part);
  }
}

void EagerGroups::SortGroups(const Partition& part) {
  std::sort(groups_.begin() + part.group_begin,
            groups_.begin() + part.group_end,
            [this](const Group& a, const Group& b) {
              const int kc =
                  (*key_cmp_)(keys_[a.first_key], keys_[b.first_key]);
              if (kc != 0) return kc < 0;
              return a.value.compare(b.value) < 0;
            });
}

}  // namespace anticombine
}  // namespace antimr
