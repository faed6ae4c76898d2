#include "mr/map_output_buffer.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>

namespace antimr {

/// Walks one partition's range of the sorted permutation; entries_ itself
/// stays in arrival order.
class MapOutputBuffer::BufferStream : public KVStream {
 public:
  BufferStream(const MapOutputBuffer* buffer, size_t begin, size_t end)
      : buffer_(buffer), pos_(begin), end_(end) {}

  bool Valid() const override { return pos_ < end_; }
  Slice key() const override { return buffer_->KeyOf(entry(pos_)); }
  Slice value() const override { return buffer_->ValueOf(entry(pos_)); }
  Status Next() override {
    ++pos_;
    return Status::OK();
  }

  /// Eager batches: entries view arena storage that outlives the stream.
  Status NextBatch(RecordBatch* batch, const BatchOptions& opts) override {
    batch->clear();
    while (pos_ < end_ && batch->size() < opts.max_records) {
      const Entry& e = entry(pos_);
      const Slice k = buffer_->KeyOf(e);
      if (!opts.Admits(k)) break;
      batch->emplace_back(k, buffer_->ValueOf(e));
      ++pos_;
    }
    return Status::OK();
  }
  bool SupportsEagerBatches() const override { return true; }

 private:
  const Entry& entry(size_t pos) const {
    return buffer_->entries_[buffer_->order_[pos].index];
  }

  const MapOutputBuffer* buffer_;
  size_t pos_;
  size_t end_;
};

MapOutputBuffer::MapOutputBuffer(int num_partitions, KeyComparator key_cmp)
    : num_partitions_(num_partitions),
      key_cmp_(std::move(key_cmp)),
      bytewise_(IsBytewise(key_cmp_)) {
  assert(num_partitions_ > 0);
}

void MapOutputBuffer::Add(const Slice& key, const Slice& value) {
  const RecordRef rec = arena_.InternRecord(key, value);
  Entry e;
  e.base = rec.key.data();
  e.key_len = static_cast<uint32_t>(key.size());
  e.val_len = static_cast<uint32_t>(value.size());
  e.partition = 0;
  entries_.push_back(e);
  sorted_ = false;
}

void MapOutputBuffer::AddBatch(const RecordBatch& batch) {
  entries_.reserve(entries_.size() + batch.size());
  for (const RecordRef& r : batch) Add(r.key, r.value);
}

Status MapOutputBuffer::AssignPartitions(const Partitioner& partitioner) {
  sorted_ = false;
  for (Entry& e : entries_) {
    const int p = partitioner.Partition(KeyOf(e), num_partitions_);
    // Checked in every build: Sort would silently drop a negative partition
    // and fold one >= num_partitions_ into the last.
    if (p < 0 || p >= num_partitions_) {
      return Status::InvalidArgument(
          "partitioner returned partition " + std::to_string(p) +
          " for " + std::to_string(num_partitions_) + " reduce tasks");
    }
    e.partition = p;
  }
  return Status::OK();
}

size_t MapOutputBuffer::memory_usage() const {
  return arena_.bytes_used() + entries_.size() * sizeof(Entry);
}

void MapOutputBuffer::Sort() {
  const size_t n = entries_.size();
  assert(n <= UINT32_MAX);
  // Step 1: count each partition's records into partition_begin_[p + 1],
  // prefix-sum to starts, then scatter in arrival order. The scatter
  // advances partition_begin_[p] to partition p's end, so one shift right
  // restores the starts.
  std::vector<size_t>& begin = partition_begin_;
  begin.assign(static_cast<size_t>(num_partitions_) + 1, 0);
  for (const Entry& e : entries_) ++begin[static_cast<size_t>(e.partition) + 1];
  for (size_t p = 1; p < begin.size(); ++p) begin[p] += begin[p - 1];
  order_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Entry& e = entries_[i];
    order_[begin[static_cast<size_t>(e.partition)]++] = {
        bytewise_ ? OrderPrefix(KeyOf(e)) : 0, static_cast<uint32_t>(i)};
  }
  for (size_t p = begin.size() - 1; p > 0; --p) begin[p] = begin[p - 1];
  begin[0] = 0;

  for (size_t p = 0; p + 1 < begin.size(); ++p) {
    SortPartition(order_.data() + begin[p], begin[p + 1] - begin[p]);
  }
  sorted_ = true;
}

void MapOutputBuffer::SortPartition(SortKey* keys, size_t n) {
  if (n < 2) return;
  // Step 2, only where prefixes carry the order. Indexes arrive ascending
  // and the radix passes are stable, so each tied run starts in arrival
  // order.
  if (bytewise_) RadixSortByPrefix(keys, n);
  SortTiedRuns(keys, n);
}

void MapOutputBuffer::RadixSortByPrefix(SortKey* keys, size_t n) {
  // One histogram per prefix byte, all filled in a single read pass.
  uint32_t counts[8][256] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t prefix = keys[i].prefix;
    for (int d = 0; d < 8; ++d) ++counts[d][(prefix >> (8 * d)) & 0xff];
  }
  SortKey* src = keys;
  for (int d = 0; d < 8; ++d) {  // least significant byte first
    const int shift = 8 * d;
    uint32_t* count = counts[d];
    // A byte on which every record agrees cannot reorder anything.
    if (count[(src[0].prefix >> shift) & 0xff] == n) continue;
    uint32_t next = 0;
    for (int b = 0; b < 256; ++b) {
      const uint32_t c = count[b];
      count[b] = next;
      next += c;
    }
    // Grown by the first pass that moves data, so partitions whose
    // records all share one prefix never allocate it.
    if (radix_scratch_.size() < n) radix_scratch_.resize(n);
    SortKey* dst = src == keys ? radix_scratch_.data() : keys;
    for (size_t i = 0; i < n; ++i) {
      dst[count[(src[i].prefix >> shift) & 0xff]++] = src[i];
    }
    src = dst;
  }
  if (src != keys) std::memcpy(keys, src, n * sizeof(SortKey));
}

template <typename KeyLess>
void MapOutputBuffer::StableSortRun(SortKey* first, SortKey* last,
                                    KeyLess less) const {
  const auto by_key = [this, less](const SortKey& a, const SortKey& b) {
    return less(KeyOf(entries_[a.index]), KeyOf(entries_[b.index]));
  };
  if (!std::is_sorted(first, last, by_key)) {
    std::stable_sort(first, last, by_key);
  }
}

void MapOutputBuffer::SortTiedRuns(SortKey* keys, size_t n) {
  // Step 3: each run of equal prefixes is in arrival order, so a run
  // already in key order (all duplicates, say) is left as it is; any other
  // is stable-sorted by the full key.
  size_t i = 0;
  while (i < n) {
    size_t j = i + 1;
    while (j < n && keys[j].prefix == keys[i].prefix) ++j;
    if (j - i > 1 && TiedKeysMayDiffer(keys + i, j - i)) {
      if (bytewise_) {
        StableSortRun(keys + i, keys + j, [](const Slice& a, const Slice& b) {
          return a.compare(b) < 0;
        });
      } else {
        StableSortRun(keys + i, keys + j,
                      [this](const Slice& a, const Slice& b) {
                        return key_cmp_(a, b) < 0;
                      });
      }
    }
    i = j;
  }
}

bool MapOutputBuffer::TiedKeysMayDiffer(const SortKey* keys,
                                        size_t n) const {
  // Under a custom key_cmp the prefixes carry no order.
  if (!bytewise_) return true;
  // Equal zero-padded prefixes, all keys of one length <= 8: equal keys.
  // "ab" and "ab\0" tie on the prefix but differ in length.
  const uint32_t len = entries_[keys[0].index].key_len;
  if (len > 8) return true;
  for (size_t i = 1; i < n; ++i) {
    if (entries_[keys[i].index].key_len != len) return true;
  }
  return false;
}

std::unique_ptr<KVStream> MapOutputBuffer::PartitionStream(
    int partition) const {
  assert(sorted_);
  return std::make_unique<BufferStream>(
      this, partition_begin_[static_cast<size_t>(partition)],
      partition_begin_[static_cast<size_t>(partition) + 1]);
}

uint64_t MapOutputBuffer::PartitionRecords(int partition) const {
  assert(sorted_);
  return partition_begin_[static_cast<size_t>(partition) + 1] -
         partition_begin_[static_cast<size_t>(partition)];
}

void MapOutputBuffer::Clear() {
  arena_.Clear();
  entries_.clear();
  partition_begin_.clear();
  order_.clear();
  sorted_ = false;
}

}  // namespace antimr
