#include "anticombine/anti_reducer.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "anticombine/encoding.h"
#include "common/stopwatch.h"
#include "mr/metrics.h"
#include "obs/metrics_registry.h"

namespace antimr {
namespace anticombine {

namespace {
// Bumped once per reduce task or map-side combine pass, by its remap count,
// so no process-wide atomic is touched per record.
obs::Counter* RemapCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter(
          "antimr_remap_calls_total",
          "LazySH decodes that re-executed the original Map");
  return counter;
}

// Sum of the phases Shared times inside a remap window (the combines and
// spills an insert triggers), which the window subtracts to stay exclusive
// of them.
uint64_t NestedInRemap(const JobMetrics& m) {
  return m.cpu.shared + m.cpu.combine;
}

// Sum of the phases timed inside AntiReducer's decode window, which the
// window subtracts to stay exclusive of them.
uint64_t NestedInDecode(const JobMetrics& m) {
  return m.cpu.remap + NestedInRemap(m);
}

std::string UniqueSharedPrefix(int task_id) {
  static std::atomic<uint64_t> counter{0};
  return "shared_r" + std::to_string(task_id) + "_" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

// Iterates the values of a run of arena-pinned records. Like the other
// value-list iterators handed to the original Reduce and Combiner, it
// reports no per-record key.
class RecordRunIterator : public ValueIterator {
 public:
  RecordRunIterator(const RecordRef* begin, const RecordRef* end)
      : pos_(begin), end_(end) {}

  bool Next(Slice* value) override {
    if (pos_ == end_) return false;
    *value = (pos_++)->value;
    return true;
  }

 private:
  const RecordRef* pos_;
  const RecordRef* end_;
};
}  // namespace

AntiReducer::AntiReducer(ReducerFactory o_reducer_factory,
                         MapperFactory o_mapper_factory,
                         ReducerFactory o_combiner_factory,
                         AntiCombineOptions options)
    : o_reducer_factory_(std::move(o_reducer_factory)),
      o_mapper_factory_(std::move(o_mapper_factory)),
      o_combiner_factory_(std::move(o_combiner_factory)),
      options_(options),
      remap_context_(&info_, [this](const Slice& key, const Slice& value) {
        shared_->Add(key, value);
      }) {}

void AntiReducer::Setup(const TaskInfo& info, ReduceContext* ctx) {
  info_ = info;
  o_reducer_ = o_reducer_factory_();
  o_reducer_->Setup(info, ctx);

  // The original mapper is needed to decode LazySH records. Setup-time
  // emissions (rare, and already shipped by the map phase) are discarded.
  o_mapper_ = o_mapper_factory_();
  o_mapper_->Setup(info, &remap_context_);

  if (o_combiner_factory_ && options_.combine_in_shared) {
    o_combiner_ = o_combiner_factory_();
    o_combiner_->Setup(info, &remap_capture_);
    remap_capture_.Clear();
  }

  Shared::Options so;
  so.key_cmp = info.key_cmp;
  so.grouping_cmp = info.grouping_cmp;
  so.env = info.env;
  so.file_prefix = UniqueSharedPrefix(info.task_id);
  so.memory_limit_bytes = options_.shared_memory_bytes;
  so.spill_merge_threshold = options_.shared_spill_merge_threshold;
  so.combiner = o_combiner_.get();
  so.metrics = info.metrics;
  shared_ = std::make_unique<Shared>(std::move(so));
}

void AntiReducer::DrainShared(const Slice& key, bool to_end,
                              ReduceContext* ctx) {
  Slice alt_key;  // zero-copy peek; only inspected before the pop
  while (shared_->PeekMinKey(&alt_key)) {
    if (!to_end && info_.grouping_cmp(alt_key, key) >= 0) break;
    Slice group_key;
    ValueIterator* values = nullptr;
    if (!shared_->PopMinGroup(&group_key, &values)) break;
    o_reducer_->Reduce(group_key, values, ctx);
  }
}

void AntiReducer::DecodeValue(const Slice& rep_key, const Slice& payload) {
  Encoding encoding;
  Slice rest;
  ANTIMR_CHECK_OK(GetEncoding(payload, &encoding, &rest));

  if (encoding == Encoding::kEager) {
    decode_keys_.clear();
    Slice value;
    ANTIMR_CHECK_OK(DecodeEagerPayload(rest, &decode_keys_, &value));
    shared_->Add(rep_key, value);
    for (const Slice& key : decode_keys_) shared_->Add(key, value);
    return;
  }

  Slice input_key, input_value;
  ANTIMR_CHECK_OK(DecodeLazyPayload(rest, &input_key, &input_value));
  Remap(input_key, input_value);
}

void AntiReducer::Remap(const Slice& input_key, const Slice& input_value) {
  // Re-execute the original Map and Partition; the records assigned to this
  // reduce task go into Shared as Map emits them.
  JobMetrics* m = info_.metrics;
  const uint64_t nested_before = m != nullptr ? NestedInRemap(*m) : 0;
  const uint64_t t0 = NowNanos();
  remap_context_.Remap(o_mapper_.get(), input_key, input_value);
  if (m != nullptr) {
    const uint64_t window = NowNanos() - t0;
    const uint64_t nested = NestedInRemap(*m) - nested_before;
    m->cpu.remap += window > nested ? window - nested : 0;
    m->remap_calls += 1;
  }
  ++remap_calls_;
}

void AntiReducer::Reduce(const Slice& key, ValueIterator* values,
                         ReduceContext* ctx) {
  // Algorithm 2/4, lines 1-5: finish the Shared groups ordered before this
  // key.
  DrainShared(key, /*to_end=*/false, ctx);

  // Lines 6-10: decode every incoming record. Decoded keys are always >=
  // the representative key, so nothing lands behind the cursor.
  //
  // The loop is timed once into cpu.decode, Shared inserts and value pulls
  // included; remap, and the combines and spills Shared times itself, are
  // subtracted so the phases stay disjoint.
  //
  // Fast path: flagged-plain records (EagerSH with an empty key set) whose
  // group needs no Shared interaction are accumulated locally — the common
  // case for programs with no sharing opportunities (Section 7.1), where
  // routing every record through Shared would be pure overhead. The first
  // encoded record (or pre-existing Shared content for this group)
  // switches to the general Shared path.
  local_group_.clear();
  local_arena_.Clear();
  bool use_shared = false;
  auto flush_locals = [&]() {
    for (const RecordRef& rec : local_group_) {
      shared_->Add(rec.key, rec.value);
    }
    local_group_.clear();
    local_arena_.Clear();
  };

  JobMetrics* m = info_.metrics;
  const uint64_t nested_before = m != nullptr ? NestedInDecode(*m) : 0;
  const uint64_t decode_start = NowNanos();
  Slice payload;
  while (values->Next(&payload)) {
    const Slice record_key = values->key();
    if (!use_shared) {
      Encoding encoding;
      Slice rest;
      ANTIMR_CHECK_OK(GetEncoding(payload, &encoding, &rest));
      if (encoding == Encoding::kEager) {
        decode_keys_.clear();
        Slice value;
        ANTIMR_CHECK_OK(DecodeEagerPayload(rest, &decode_keys_, &value));
        if (decode_keys_.empty()) {
          local_group_.push_back(local_arena_.InternRecord(record_key, value));
          continue;
        }
      }
      use_shared = true;
      flush_locals();
    }
    DecodeValue(record_key, payload);
  }

  if (!use_shared) {
    // Earlier Reduce calls may have parked grouping-equal records in
    // Shared; those force the merged path.
    Slice min_key;
    if (shared_->PeekMinKey(&min_key) &&
        info_.grouping_cmp(min_key, key) == 0) {
      use_shared = true;
      flush_locals();
    }
  }
  if (m != nullptr) {
    const uint64_t window = NowNanos() - decode_start;
    const uint64_t nested = NestedInDecode(*m) - nested_before;
    m->cpu.decode += window > nested ? window - nested : 0;
  }

  // Lines 11-12: run the original Reduce on the union of the decoded
  // records for this group (regular input and Shared are merged inside
  // PopMinGroup, in key order), over views of Shared's runs.
  if (use_shared) {
    Slice group_key;
    ValueIterator* group_values = nullptr;
    if (shared_->PopMinGroup(&group_key, &group_values)) {
      o_reducer_->Reduce(group_key, group_values, ctx);
    }
    return;
  }
  if (!local_group_.empty()) {
    // Hand the original Reduce arena-backed views: the group's records are
    // already pinned in local_arena_, so no per-value string is built.
    RecordRunIterator it(local_group_.data(),
                         local_group_.data() + local_group_.size());
    o_reducer_->Reduce(local_group_.front().key, &it, ctx);
  }
}

void AntiReducer::Cleanup(ReduceContext* ctx) {
  // Process everything left in Shared (the cleanup loop of Section 3.2),
  // then shut down the wrapped objects.
  DrainShared(Slice(), /*to_end=*/true, ctx);
  RemapCounter()->Inc(remap_calls_);
  remap_calls_ = 0;
  o_reducer_->Cleanup(ctx);
  o_mapper_->Cleanup(&remap_context_);
  if (o_combiner_ != nullptr) {
    o_combiner_->Cleanup(&remap_capture_);
    remap_capture_.Clear();
  }
  shared_.reset();
}

// ---------------------------------------------------------------------------

AntiCombiner::AntiCombiner(ReducerFactory o_combiner_factory,
                           MapperFactory o_mapper_factory)
    : o_combiner_factory_(std::move(o_combiner_factory)),
      o_mapper_factory_(std::move(o_mapper_factory)),
      remap_context_(&info_, [this](const Slice& key, const Slice& value) {
        Add(KeyId(key), arena_.Intern(value));
      }) {}

void AntiCombiner::Setup(const TaskInfo& info, ReduceContext* ctx) {
  (void)ctx;
  info_ = info;
  // Setup-time emissions of the wrapped objects are discarded.
  o_combiner_ = o_combiner_factory_();
  o_combiner_->Setup(info, &combined_);
  combined_.Clear();
  o_mapper_ = o_mapper_factory_();
  o_mapper_->Setup(info, &remap_context_);
  key_index_.Rebuild(keys_);
}

uint32_t AntiCombiner::KeyId(const Slice& key) {
  uint32_t id = key_index_.Find(keys_, key);
  if (id == KeyIndex::kNotFound) {
    keys_.push_back(arena_.Intern(key));
    id = static_cast<uint32_t>(keys_.size() - 1);
    key_index_.Insert(keys_, id);
  }
  return id;
}

void AntiCombiner::DecodeValue(const Slice& rep_key, const Slice& payload) {
  Encoding encoding;
  Slice rest;
  ANTIMR_CHECK_OK(GetEncoding(payload, &encoding, &rest));
  if (encoding == Encoding::kEager) {
    Slice value;
    ANTIMR_CHECK_OK(DecodeEagerPayload(rest, &decode_keys_, &value));
    // One interned copy stands for the value under every key it carries.
    value = arena_.Intern(value);
    // Records of one Reduce group share their key: try the last one first.
    if (keys_.empty() || keys_[last_rep_id_] != rep_key) {
      last_rep_id_ = KeyId(rep_key);
    }
    Add(last_rep_id_, value);
    for (const Slice& key : decode_keys_) Add(KeyId(key), value);
    return;
  }
  // LazySH: re-execute the original Map and Partition, interning only the
  // records assigned to the partition this pass combines.
  Slice input_key, input_value;
  ANTIMR_CHECK_OK(DecodeLazyPayload(rest, &input_key, &input_value));
  remap_context_.Remap(o_mapper_.get(), input_key, input_value);
  if (info_.metrics != nullptr) info_.metrics->remap_calls += 1;
  ++pass_remap_calls_;
}

void AntiCombiner::Reduce(const Slice& key, ValueIterator* values,
                          ReduceContext* ctx) {
  (void)ctx;  // all output is emitted from Cleanup, already re-encoded
  (void)key;
  Slice payload;
  while (values->Next(&payload)) {
    // The record's own key, not the group key: with a grouping comparator
    // the two can differ.
    DecodeValue(values->key(), payload);
  }
}

void AntiCombiner::Cleanup(ReduceContext* ctx) {
  // Bucket the decoded values by key with a counting sort, which keeps
  // each key's values in arrival order. Counts become bucket starts, and
  // filling advances each start to its bucket's end.
  const size_t num_keys = keys_.size();
  key_ends_.assign(num_keys, 0);
  for (uint32_t id : pair_keys_) ++key_ends_[id];
  uint32_t start = 0;
  for (uint32_t& slot : key_ends_) {
    const uint32_t count = slot;
    slot = start;
    start += count;
  }
  buckets_.resize(pair_values_.size());
  for (size_t i = 0; i < pair_keys_.size(); ++i) {
    const uint32_t id = pair_keys_[i];
    buckets_[key_ends_[id]++] = RecordRef(keys_[id], pair_values_[i]);
  }

  // Combine each key's values with the original Combiner, visiting keys in
  // comparator order.
  key_order_.resize(num_keys);
  std::iota(key_order_.begin(), key_order_.end(), 0);
  std::sort(key_order_.begin(), key_order_.end(),
            [this](uint32_t a, uint32_t b) {
              return info_.key_cmp(keys_[a], keys_[b]) < 0;
            });
  combined_.Clear();
  for (uint32_t id : key_order_) {
    RecordRunIterator it(buckets_.data() + (id == 0 ? 0 : key_ends_[id - 1]),
                         buckets_.data() + key_ends_[id]);
    o_combiner_->Reduce(keys_[id], &it, &combined_);
  }
  o_combiner_->Cleanup(&combined_);
  RemapCounter()->Inc(pass_remap_calls_);
  pass_remap_calls_ = 0;

  // Re-encode with EagerSH: keys whose combined values are equal collapse
  // into one record. (Representative key, value) order keeps the segment
  // this pass feeds key-sorted for later merges.
  groups_.Build(combined_.records(), /*partitions=*/nullptr, info_.key_cmp);
  for (const EagerGroups::Partition& part : groups_.partitions()) {
    groups_.Emit(part, ctx, &payload_);
  }

  arena_.Clear();
  keys_.clear();
  key_index_.Rebuild(keys_);
  last_rep_id_ = 0;
  pair_keys_.clear();
  pair_values_.clear();
}

}  // namespace anticombine
}  // namespace antimr
