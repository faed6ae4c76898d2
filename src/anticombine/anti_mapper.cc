#include "anticombine/anti_mapper.h"

#include "anticombine/encoding.h"
#include "common/stopwatch.h"
#include "mr/metrics.h"
#include "obs/trace.h"

namespace antimr {
namespace anticombine {

AntiMapper::AntiMapper(MapperFactory o_mapper_factory,
                       AntiCombineOptions options, bool allow_lazy)
    : o_mapper_factory_(std::move(o_mapper_factory)),
      options_(options),
      allow_lazy_(allow_lazy) {}

void AntiMapper::TraceDecision(bool lazy, int partition, size_t lazy_bytes,
                               size_t eager_bytes) {
  if (!obs::kTraceCompiled || trace_decisions_left_ <= 0 ||
      !obs::TraceEnabled()) {
    return;
  }
  --trace_decisions_left_;
  obs::Tracer::Global().Instant(
      "anticombine", "adaptive_decision",
      obs::TraceArgs()
          .Add("choice", lazy ? std::string("lazy") : std::string("eager"))
          .Add("partition", partition)
          .Add("lazy_bytes", static_cast<uint64_t>(lazy_bytes))
          .Add("eager_bytes", static_cast<uint64_t>(eager_bytes)));
}

void AntiMapper::Setup(const TaskInfo& info, MapContext* ctx) {
  info_ = info;
  o_mapper_ = o_mapper_factory_();
  capture_.Clear();
  const uint64_t t0 = NowNanos();
  o_mapper_->Setup(info, &capture_);
  // Setup emissions have no input record to resend: Eager only.
  EncodeAndEmit(capture_, {}, nullptr, NowNanos() - t0, ctx);
}

void AntiMapper::Cleanup(MapContext* ctx) {
  if (options_.cross_call_window > 1) FlushWindow(ctx);
  capture_.Clear();
  const uint64_t t0 = NowNanos();
  o_mapper_->Cleanup(&capture_);
  EncodeAndEmit(capture_, {}, nullptr, NowNanos() - t0, ctx);
}

void AntiMapper::Map(const Slice& key, const Slice& value, MapContext* ctx) {
  capture_.Clear();
  // Run the original Map, measuring its exact cost (Figure 7: "Call
  // original map, measure cost").
  const uint64_t t0 = NowNanos();
  o_mapper_->Map(key, value, &capture_);
  const uint64_t map_cost = NowNanos() - t0;
  if (info_.metrics != nullptr) info_.metrics->cpu.map_fn += map_cost;
  const RecordRef input(key, value);
  if (options_.cross_call_window <= 1) {
    EncodeAndEmit(capture_, {&input, 1}, nullptr, map_cost, ctx);
    return;
  }
  // Cross-call mode: stash the call's capture, flushing when full.
  CountOutput(capture_);
  for (const RecordRef& rec : capture_.records()) {
    window_capture_.Emit(rec.key, rec.value);
    window_call_of_.push_back(window_inputs_.size());
  }
  window_inputs_.push_back(window_input_arena_.InternRecord(key, value));
  window_cost_nanos_ += map_cost;
  if (window_inputs_.size() >=
      static_cast<size_t>(options_.cross_call_window)) {
    FlushWindow(ctx);
  }
}

void AntiMapper::FlushWindow(MapContext* ctx) {
  EncodeAndEmit(window_capture_, window_inputs_, window_call_of_.data(),
                window_cost_nanos_, ctx);
  window_capture_.Clear();
  window_call_of_.clear();
  window_inputs_.clear();
  window_input_arena_.Clear();
  window_cost_nanos_ = 0;
}

void AntiMapper::CountOutput(const CaptureContext& batch) {
  if (JobMetrics* m = info_.metrics) {
    m->map_output_records += batch.size();
    for (const RecordRef& rec : batch.records()) {
      m->map_output_bytes += rec.bytes();
    }
  }
}

size_t AntiMapper::SizeLazy(const CaptureContext& batch,
                            const EagerGroups::Partition& part,
                            std::span<const RecordRef> inputs,
                            const size_t* call_of) {
  call_min_.assign(inputs.size(), nullptr);
  if (call_of == nullptr) {
    call_min_[0] = &part.min_key;
  } else {
    for (size_t i = part.begin; i < part.end; ++i) {
      const Slice& key = batch.records()[groups_.record(i)].key;
      const Slice*& min = call_min_[call_of[groups_.record(i)]];
      if (min == nullptr || info_.key_cmp(key, *min) < 0) min = &key;
    }
  }
  size_t bytes = 0;
  for (size_t c = 0; c < inputs.size(); ++c) {
    if (call_min_[c] == nullptr) continue;
    bytes += call_min_[c]->size() +
             LazyPayloadSize(inputs[c].key, inputs[c].value);
  }
  return bytes;
}

void AntiMapper::EmitEager(const EagerGroups::Partition& part,
                           MapContext* ctx) {
  const size_t shared = groups_.Emit(part, ctx, &payload_);
  if (JobMetrics* m = info_.metrics) {
    m->eager_records += shared;
    m->plain_records += part.group_end - part.group_begin - shared;
  }
}

void AntiMapper::EncodeAndEmit(const CaptureContext& batch,
                               std::span<const RecordRef> inputs,
                               const size_t* call_of, uint64_t map_cost_nanos,
                               MapContext* ctx) {
  JobMetrics* m = info_.metrics;
  const size_t n = batch.size();
  if (call_of == nullptr) CountOutput(batch);
  if (n == 0) return;

  // Fast path for fan-out 1 (e.g. Sort): no sharing is possible, so skip
  // the grouping machinery and emit one record — flagged-plain, or Lazy
  // when resending the input is strictly smaller (Figure 7's size test
  // degenerates to a single comparison). Keeps the Section 7.1 overhead to
  // the flag bytes plus one size comparison.
  if (n == 1 && call_of == nullptr) {
    const Slice only_key = batch.key(0);
    const Slice only_value = batch.value(0);
    const size_t eager_bytes =
        only_key.size() + EagerPayloadSize({}, only_value);
    const bool lazy_ok = allow_lazy_ && !inputs.empty() &&
                         options_.lazy_threshold_nanos > 0 &&
                         map_cost_nanos <= options_.lazy_threshold_nanos;
    const size_t lazy_bytes =
        lazy_ok ? only_key.size() + LazyPayloadSize(inputs[0].key,
                                                    inputs[0].value)
                : 0;
    const bool use_lazy =
        lazy_ok && (options_.force_lazy || lazy_bytes < eager_bytes);
    TraceDecision(use_lazy, /*partition=*/-1, lazy_bytes, eager_bytes);
    if (use_lazy) {
      EncodeLazyPayload(inputs[0].key, inputs[0].value, &payload_);
      ctx->Emit(only_key, payload_);
      if (m != nullptr) m->lazy_records += 1;
    } else {
      EncodeEagerPayload({}, only_value, &payload_);
      ctx->Emit(only_key, payload_);
      if (m != nullptr) m->plain_records += 1;
    }
    return;
  }

  // Partition every output record, measuring the Partitioner's cost
  // (Figure 7: "Call Partitioner, measure cost").
  partitions_.resize(n);
  const uint64_t p0 = NowNanos();
  for (size_t i = 0; i < n; ++i) {
    partitions_[i] =
        info_.partitioner->Partition(batch.key(i), info_.num_reduce_tasks);
  }
  const uint64_t partition_cost = NowNanos() - p0;
  if (m != nullptr) m->cpu.partition_fn += partition_cost;

  // Phase 1: build each partition's EagerSH encoding and size both options.
  const uint64_t encode_start = NowNanos();
  groups_.Build(batch.records(), partitions_.data(), info_.key_cmp);
  const std::vector<EagerGroups::Partition>& parts = groups_.partitions();
  lazy_bytes_.clear();
  size_t eager_total = 0, lazy_total = 0;
  for (const EagerGroups::Partition& part : parts) {
    lazy_bytes_.push_back(
        inputs.empty() ? 0 : SizeLazy(batch, part, inputs, call_of));
    eager_total += part.eager_bytes;
    lazy_total += lazy_bytes_.back();
  }

  // Figure 7's threshold test: if re-executing the batch's Map calls (plus
  // their Partition calls) on every receiving reduce task would exceed T,
  // fall back to EagerSH for all partitions.
  const uint64_t re_exec_cost =
      (map_cost_nanos + partition_cost) * static_cast<uint64_t>(parts.size());
  const bool lazy_allowed = allow_lazy_ && !inputs.empty() &&
                            options_.lazy_threshold_nanos > 0 &&
                            re_exec_cost <= options_.lazy_threshold_nanos;
  // Phase 2: choose the encoding. Normally per partition (Figure 7); the
  // global mode (an ablation) makes one choice for the whole batch.
  const bool global_lazy = options_.force_lazy || lazy_total < eager_total;

  for (size_t p = 0; p < parts.size(); ++p) {
    const EagerGroups::Partition& part = parts[p];
    bool use_lazy = false;
    if (lazy_allowed) {
      use_lazy = options_.per_partition_choice
                     ? (options_.force_lazy ||
                        lazy_bytes_[p] < part.eager_bytes)
                     : global_lazy;
    }
    TraceDecision(use_lazy, part.partition, lazy_bytes_[p], part.eager_bytes);
    if (!use_lazy) {
      EmitEager(part, ctx);
      continue;
    }
    // LazySH: each contributing call's input, keyed by the minimal key
    // that call sends to this partition.
    SizeLazy(batch, part, inputs, call_of);
    for (size_t c = 0; c < inputs.size(); ++c) {
      if (call_min_[c] == nullptr) continue;
      EncodeLazyPayload(inputs[c].key, inputs[c].value, &payload_);
      ctx->Emit(*call_min_[c], payload_);
      if (m != nullptr) m->lazy_records += 1;
    }
  }

  if (m != nullptr) m->cpu.encode += NowNanos() - encode_start;
}

}  // namespace anticombine
}  // namespace antimr
