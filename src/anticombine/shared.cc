#include "anticombine/shared.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"
#include "common/stopwatch.h"
#include "io/run_file.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace antimr {
namespace anticombine {

namespace {

// Exposes the prefix of `inner` whose keys are grouping-equal to `bound`,
// leaving `inner` positioned at the first record beyond the group.
class GroupBoundedStream : public KVStream {
 public:
  GroupBoundedStream(KVStream* inner, const std::string* bound,
                     const KeyComparator* grouping_cmp)
      : inner_(inner), bound_(bound), grouping_cmp_(grouping_cmp) {}

  bool Valid() const override {
    return inner_->Valid() &&
           (*grouping_cmp_)(inner_->key(), Slice(*bound_)) == 0;
  }
  Slice key() const override { return inner_->key(); }
  Slice value() const override { return inner_->value(); }
  Status Next() override { return inner_->Next(); }

 private:
  KVStream* inner_;
  const std::string* bound_;
  const KeyComparator* grouping_cmp_;
};

// The in-memory side of a group that spans spills: the runs moved out of
// the table, each paired with its key, as one key-ordered stream.
class RunListStream : public KVStream {
 public:
  RunListStream(const std::vector<Slice>* keys,
                const std::vector<std::string>* runs)
      : keys_(keys) {
    values_.Reset(runs->data(), runs->size());
    valid_ = values_.Next(&value_);
  }

  bool Valid() const override { return valid_; }
  Slice key() const override { return (*keys_)[values_.run_index()]; }
  Slice value() const override { return value_; }
  Status Next() override {
    valid_ = values_.Next(&value_);
    return Status::OK();
  }

 private:
  const std::vector<Slice>* keys_;
  RunValueIterator values_;
  Slice value_;
  bool valid_ = false;
};

// Fetched here (not only at the spill site) so the histogram shows up in a
// metrics scrape even for runs that never spilled.
obs::Histogram* SpillBytesHistogram() {
  static obs::Histogram* const hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "antimr_shared_spill_bytes", "Bytes written per Shared spill");
  return hist;
}

}  // namespace

bool RunValueIterator::Next(Slice* value) {
  while (pos_ == end_) {
    if (next_ == runs_end_) return false;
    pos_ = next_->data();
    end_ = pos_ + next_->size();
    ++next_;
  }
  uint32_t len = 0;
  pos_ = GetVarint32Ptr(pos_, end_, &len);
  assert(pos_ != nullptr && len <= static_cast<size_t>(end_ - pos_));
  *value = Slice(pos_, len);
  pos_ += len;
  return true;
}

Shared::Shared(Options options)
    : options_(std::move(options)),
      heap_(HeapCmp{&options_.key_cmp}) {
  assert(options_.key_cmp);
  assert(options_.grouping_cmp);
  assert(options_.env != nullptr);
  SpillBytesHistogram();
}

Shared::~Shared() {
  for (const SpillRun& run : spills_) {
    options_.env->DeleteFile(run.fname);
  }
}

void Shared::Add(const Slice& key, const Slice& value) {
  // No per-insert timer: the caller's decode or remap window covers
  // inserts. The rare spill and spill merge time themselves.
  AddInternal(key, value, /*allow_combine=*/true);
  if (options_.metrics) options_.metrics->shared_insertions += 1;
  if (memory_bytes_ > options_.memory_limit_bytes) {
    SpillToDisk();
    MaybeMergeSpills();
  }
}

void Shared::AddInternal(const Slice& key, const Slice& value,
                         bool allow_combine) {
  auto it = table_.find(key);
  if (it == table_.end()) {
    // First sighting of this key in memory: intern its bytes once, then
    // register that single copy in the min-heap (the paper's "inserting the
    // key into the min-heap requires logarithmic time") and the table.
    const Slice interned = key_arena_.Intern(key);
    heap_.push(interned);
    it = table_.emplace(interned, ValueList()).first;
    memory_bytes_ += key.size();
  }
  // A reference, not the iterator: a combine may insert other keys and
  // rehash the table, which keeps elements in place but not iterators.
  const Slice interned = it->first;
  ValueList& list = it->second;
  AppendValue(&list, value);
  if (allow_combine && options_.combiner != nullptr &&
      list.count >= list.next_combine) {
    CombineKey(interned, &list);
    list.next_combine = std::max<size_t>(2, 2 * list.count);
  }
}

void Shared::AppendValue(ValueList* list, const Slice& value) {
  char prefix[5];
  const char* prefix_end =
      EncodeVarint32(prefix, static_cast<uint32_t>(value.size()));
  list->run.append(prefix, static_cast<size_t>(prefix_end - prefix));
  list->run.append(value.data(), value.size());
  ++list->count;
  list->value_bytes += value.size();
  memory_bytes_ += value.size();
}

void Shared::CombineKey(const Slice& key, ValueList* list) {
  uint64_t combine_nanos = 0;
  combined_.Clear();
  {
    ScopedTimer t(&combine_nanos);
    RunValueIterator it;
    it.Reset(&list->run, 1);
    options_.combiner->Reduce(key, &it, &combined_);
  }
  if (options_.metrics) {
    options_.metrics->cpu.combine += combine_nanos;
    options_.metrics->combine_input_records += list->count;
    options_.metrics->combine_output_records += combined_.size();
  }
  // Rewrite the run from the Combiner's output, which combined_ holds as
  // copies, so the old run's bytes are free to go.
  memory_bytes_ -= list->value_bytes;
  list->run.clear();
  list->count = 0;
  list->value_bytes = 0;
  for (const RecordRef& rec : combined_.records()) {
    if (rec.key == key) {
      AppendValue(list, rec.value);
    } else {
      // A combiner emitting a different key is unusual but legal; store it
      // without re-combining to guarantee termination.
      AddInternal(rec.key, rec.value, /*allow_combine=*/false);
    }
  }
}

void Shared::SpillToDisk() {
  if (table_.empty()) return;
  uint64_t local = 0;
  ScopedTimer t(options_.metrics ? &options_.metrics->cpu.shared : &local);
  const std::string fname = options_.file_prefix + "_shared_spill_" +
                            std::to_string(spill_counter_++);
  std::unique_ptr<WritableFile> file;
  ANTIMR_CHECK_OK(options_.env->NewWritableFile(fname, &file));
  RunWriter writer(std::move(file));
  // Drain the heap to emit keys in sorted order, mirroring the map phase's
  // sorted spills (paper Section 5). heap_.top() is a view of the interned
  // key, which outlives both the pop and the table erase (the arena is only
  // reclaimed below, once the drain finishes).
  while (!heap_.empty()) {
    const Slice key = heap_.top();
    heap_.pop();
    auto it = table_.find(key);
    if (it == table_.end()) continue;  // stale heap entry
    RunValueIterator values;
    values.Reset(&it->second.run, 1);
    Slice value;
    while (values.Next(&value)) ANTIMR_CHECK_OK(writer.Add(key, value));
    table_.erase(it);
  }
  ANTIMR_CHECK_OK(writer.Close());
  memory_bytes_ = 0;
  MaybeReclaimKeys();

  SpillRun run;
  run.fname = fname;
  std::unique_ptr<KVStream> stream;
  ANTIMR_CHECK_OK(OpenRun(options_.env, fname, &stream));
  run.stream = std::move(stream);
  spills_.push_back(std::move(run));
  if (options_.metrics) {
    options_.metrics->shared_spills += 1;
    options_.metrics->shared_spill_bytes += writer.bytes_written();
  }
  // Spills are rare (one per memory_limit_bytes of Shared growth), so the
  // instant + histogram stay unconditional.
  SpillBytesHistogram()->Observe(writer.bytes_written());
  ANTIMR_TRACE_INSTANT("anticombine", "shared_spill",
                       obs::TraceArgs()
                           .Add("bytes", writer.bytes_written())
                           .Add("spill", spill_counter_ - 1));
}

void Shared::MaybeMergeSpills() {
  if (spills_.size() <= static_cast<size_t>(options_.spill_merge_threshold)) {
    return;
  }
  uint64_t local = 0;
  ScopedTimer t(options_.metrics ? &options_.metrics->cpu.shared : &local);
  const std::string fname = options_.file_prefix + "_shared_spill_" +
                            std::to_string(spill_counter_++);
  {
    std::vector<std::unique_ptr<KVStream>> inputs;
    inputs.reserve(spills_.size());
    for (SpillRun& run : spills_) inputs.push_back(std::move(run.stream));
    MergingStream merged(std::move(inputs), options_.key_cmp);
    std::unique_ptr<WritableFile> file;
    ANTIMR_CHECK_OK(options_.env->NewWritableFile(fname, &file));
    RunWriter writer(std::move(file));
    while (merged.Valid()) {
      ANTIMR_CHECK_OK(writer.Add(merged.key(), merged.value()));
      ANTIMR_CHECK_OK(merged.Next());
    }
    ANTIMR_CHECK_OK(writer.Close());
  }
  for (const SpillRun& run : spills_) {
    ANTIMR_CHECK_OK(options_.env->DeleteFile(run.fname));
  }
  spills_.clear();
  SpillRun run;
  run.fname = fname;
  std::unique_ptr<KVStream> stream;
  ANTIMR_CHECK_OK(OpenRun(options_.env, fname, &stream));
  run.stream = std::move(stream);
  spills_.push_back(std::move(run));
  if (options_.metrics) options_.metrics->shared_spill_merges += 1;
  ANTIMR_TRACE_INSTANT("anticombine", "shared_spill_merge");
}

bool Shared::FindMinKey(Slice* out) {
  bool found = false;
  // Drop stale heap entries (keys whose table entry was spilled away).
  while (!heap_.empty() && table_.find(heap_.top()) == table_.end()) {
    heap_.pop();
  }
  if (!heap_.empty()) {
    *out = heap_.top();
    found = true;
  }
  for (const SpillRun& run : spills_) {
    if (!run.stream->Valid()) continue;
    if (!found || options_.key_cmp(run.stream->key(), *out) < 0) {
      *out = run.stream->key();
      found = true;
    }
  }
  return found;
}

void Shared::MaybeReclaimKeys() {
  if (table_.empty() && heap_.empty()) key_arena_.Clear();
}

bool Shared::Empty() {
  Slice ignored;
  return !FindMinKey(&ignored);
}

bool Shared::PeekMinKey(Slice* key) { return FindMinKey(key); }

bool Shared::PeekMinKey(std::string* key) {
  Slice min;
  if (!FindMinKey(&min)) return false;
  key->assign(min.data(), min.size());
  return true;
}

bool Shared::PopMinGroup(Slice* group_key, ValueIterator** values) {
  uint64_t* shared_nanos =
      options_.metrics ? &options_.metrics->cpu.shared : nullptr;
  uint64_t local = 0;
  ScopedTimer t(shared_nanos ? shared_nanos : &local);

  Slice min_key;
  if (!FindMinKey(&min_key)) return false;
  // Materialize the group key once: the merge below advances spill streams,
  // which would invalidate a stream-head view mid-drain, and reclaiming the
  // key arena would invalidate an interned one.
  group_key_.assign(min_key.data(), min_key.size());
  *group_key = Slice(group_key_);
  *values = &group_values_;

  bool spilled_group = false;
  for (SpillRun& run : spills_) {
    if (run.stream->Valid() &&
        options_.grouping_cmp(run.stream->key(), *group_key) == 0) {
      spilled_group = true;
      break;
    }
  }

  // Move the group's runs out of the table, in key order (heap pops
  // ascend). The swap hands over each run's buffer; no value is copied.
  group_runs_.clear();
  group_keys_.clear();
  while (!heap_.empty() &&
         options_.grouping_cmp(heap_.top(), *group_key) == 0) {
    const Slice key = heap_.top();  // interned view; survives the pop
    heap_.pop();
    auto it = table_.find(key);
    if (it == table_.end()) continue;  // stale
    memory_bytes_ -= key.size() + it->second.value_bytes;
    group_runs_.emplace_back().swap(it->second.run);
    if (spilled_group) group_keys_.push_back(key);
    table_.erase(it);
  }

  // Fast path: no spill stream is positioned on this group, so it lives
  // entirely in the moved-out runs.
  if (!spilled_group) {
    MaybeReclaimKeys();
    group_values_.Reset(group_runs_.data(), group_runs_.size());
    return true;
  }

  // Merge the moved-out runs with the group prefix of each spill stream, in
  // key order, into one reused run.
  merged_run_.clear();
  {
    std::vector<std::unique_ptr<KVStream>> inputs;
    inputs.push_back(
        std::make_unique<RunListStream>(&group_keys_, &group_runs_));
    for (SpillRun& run : spills_) {
      inputs.push_back(std::make_unique<GroupBoundedStream>(
          run.stream.get(), &group_key_, &options_.grouping_cmp));
    }
    MergingStream merged(std::move(inputs), options_.key_cmp);
    while (merged.Valid()) {
      PutLengthPrefixed(&merged_run_, merged.value());
      ANTIMR_CHECK_OK(merged.Next());
    }
  }
  MaybeReclaimKeys();  // group_keys_ view the key arena until here
  group_values_.Reset(&merged_run_, 1);
  return true;
}

}  // namespace anticombine
}  // namespace antimr
