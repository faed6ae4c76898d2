#include "table/chunk_writer.h"

#include "anticombine/encoding.h"
#include "codec/crc32.h"
#include "common/coding.h"
#include "common/stopwatch.h"

namespace antimr {

ChunkWriter::ChunkWriter(std::unique_ptr<WritableFile> file, Options options)
    : writer_(std::move(file)), opts_(options) {
  if (opts_.block_bytes == 0) opts_.block_bytes = 64 * 1024;
}

Status ChunkWriter::EnsureMagic() {
  if (wrote_magic_) return Status::OK();
  wrote_magic_ = true;
  return writer_.Append(Slice(kChunkMagic, sizeof(kChunkMagic)));
}

Status ChunkWriter::Append(const Slice& key, const Slice& value) {
  rows_.push_back(opts_.assume_stable_inputs
                      ? RecordRef{key, value}
                      : stage_arena_.InternRecord(key, value));
  staged_raw_bytes_ += static_cast<uint64_t>(VarintLength(key.size())) +
                       key.size() +
                       static_cast<uint64_t>(VarintLength(value.size())) +
                       value.size();
  ++record_count_;
  if (staged_raw_bytes_ >= opts_.block_bytes) {
    return FlushBlock();
  }
  return Status::OK();
}

Status ChunkWriter::AppendBatch(const RecordBatch& batch) {
  for (const RecordRef& record : batch) {
    ANTIMR_RETURN_NOT_OK(Append(record.key, record.value));
  }
  return Status::OK();
}

void ChunkWriter::RewriteValues() {
  namespace ac = anticombine;
  // This loop runs once per staged record and probes the index once per
  // payload key, so the payload is costed in a single pointer walk — no
  // DecodeEagerPayload staging vector, no second encode-time parse of the
  // keys. The value and the one-byte flag + count header are common to
  // both forms, so the dict version wins iff its key bytes (ids, plus the
  // wire form of each unseen key the dictionary would adopt) end strictly
  // below the raw key bytes.
  for (size_t i = 0; i < rows_.size(); ++i) {
    const Slice original = rows_[i].value;
    const char* p = original.data();
    const char* const end = p + original.size();
    if (p == end || *p != static_cast<char>(ac::Encoding::kEager)) {
      continue;  // lazy / already-plain payloads pass through untouched
    }
    uint32_t n = 0;
    p = GetVarint32Ptr(p + 1, end, &n);
    if (p == nullptr || n == 0) continue;  // n = 0 gains nothing from ids
    parsed_ids_.clear();
    pending_dict_keys_.clear();
    size_t raw_key_bytes = 0;   // wire bytes the keys occupy today
    size_t id_bytes = 0;        // varint ids the rewrite would emit
    size_t entry_bytes = 0;     // wire bytes unseen keys add to the dict
    bool malformed = false;
    for (uint32_t k = 0; k < n; ++k) {
      uint32_t klen = 0;
      p = GetVarint32Ptr(p, end, &klen);
      if (p == nullptr || static_cast<size_t>(end - p) < klen) {
        malformed = true;  // pass through; the reader will report it
        break;
      }
      const Slice key(p, klen);
      const size_t wire = static_cast<size_t>(VarintLength(klen)) + klen;
      p += klen;
      raw_key_bytes += wire;
      uint32_t id = dict_index_.Find(dict_, key);
      if (id == KeyIndex::kNotFound) {
        // Check this record's own pending adoptions before minting another
        // id — a payload can repeat a key.
        for (uint32_t j = 0; j < pending_dict_keys_.size(); ++j) {
          if (pending_dict_keys_[j] == key) {
            id = static_cast<uint32_t>(dict_.size()) + j;
            break;
          }
        }
      }
      if (id == KeyIndex::kNotFound) {
        id = static_cast<uint32_t>(dict_.size() + pending_dict_keys_.size());
        pending_dict_keys_.push_back(key);
        entry_bytes += wire;
      }
      parsed_ids_.push_back(id);
      id_bytes += static_cast<size_t>(VarintLength(id));
      // Each remaining key costs the dict side at least one id byte; once
      // even zero further raw bytes cannot be beaten, stop probing.
      if (id_bytes + entry_bytes + (n - k - 1) >=
          raw_key_bytes + static_cast<size_t>(end - p)) {
        malformed = true;  // reuse the pass-through exit; not adopted
        break;
      }
    }
    if (malformed || id_bytes + entry_bytes >= raw_key_bytes) continue;
    for (const Slice& key : pending_dict_keys_) {
      dict_.push_back(key);
      dict_index_.Insert(dict_, static_cast<uint32_t>(dict_.size() - 1));
    }
    const Slice shared_value(p, static_cast<size_t>(end - p));
    const size_t payload_bytes = 1 +
                                 static_cast<size_t>(VarintLength(n)) +
                                 id_bytes + shared_value.size();
    char* dst = rewrite_arena_.Allocate(payload_bytes);
    ac::EncodeEagerDictPayloadTo(dst, parsed_ids_, shared_value);
    final_values_[i] = Slice(dst, payload_bytes);
    ++payload_rewrites_;
  }
}

Status ChunkWriter::FlushBlock() {
  if (rows_.empty()) return Status::OK();
  ANTIMR_RETURN_NOT_OK(EnsureMagic());
  const Slice min_key = rows_.front().key;
  const Slice max_key = rows_.back().key;

  // Dictionary over row keys, with the ids assigned in the same pass. Runs
  // are sorted, so equal keys are adjacent and one compare against the last
  // entry dedups them. (Unsorted input only costs duplicate entries; ids
  // still resolve to the right bytes.)
  dict_.clear();
  key_ids_.clear();
  key_ids_.reserve(rows_.size());
  size_t id_column_bytes = 0;
  size_t raw_column_bytes = 0;
  for (const RecordRef& row : rows_) {
    if (dict_.empty() || row.key != dict_.back()) dict_.push_back(row.key);
    const uint32_t id = static_cast<uint32_t>(dict_.size() - 1);
    key_ids_.push_back(id);
    id_column_bytes += static_cast<size_t>(VarintLength(id));
    raw_column_bytes +=
        static_cast<size_t>(VarintLength(row.key.size())) + row.key.size();
  }

  final_values_.clear();
  rewrite_arena_.Clear();
  for (const RecordRef& row : rows_) final_values_.push_back(row.value);
  const uint64_t rewrites_before = payload_rewrites_;
  if (opts_.rewrite_eager_payloads) {
    // Only the payload rewrite needs random-access key lookup; build the
    // hash index over the (deduped) entries, not over every row.
    dict_index_.Rebuild(dict_);
    RewriteValues();
  }
  const bool any_rewrite = payload_rewrites_ != rewrites_before;

  // Encoding choice: measured dictionary-column size (entries, now
  // including any the rewrite appended, plus ids) vs raw, except payload
  // rewrites force the dictionary (their ids resolve through it).
  size_t dict_column_bytes =
      static_cast<size_t>(VarintLength(dict_.size())) + id_column_bytes;
  for (const Slice& entry : dict_) {
    dict_column_bytes +=
        static_cast<size_t>(VarintLength(entry.size())) + entry.size();
  }
  const KeyEncoding key_encoding =
      any_rewrite || dict_column_bytes < raw_column_bytes
          ? KeyEncoding::kDictionary
          : KeyEncoding::kRaw;

  // Serialize the columns.
  key_buf_.clear();
  if (key_encoding == KeyEncoding::kDictionary) {
    PutVarint32(&key_buf_, static_cast<uint32_t>(dict_.size()));
    for (const Slice& entry : dict_) PutLengthPrefixed(&key_buf_, entry);
    for (uint32_t id : key_ids_) PutVarint32(&key_buf_, id);
    ++dict_blocks_;
  } else {
    for (const RecordRef& row : rows_) PutLengthPrefixed(&key_buf_, row.key);
  }
  val_buf_.clear();
  for (const Slice& value : final_values_) {
    PutLengthPrefixed(&val_buf_, value);
  }

  // Per-column, per-block codec choice: compress, keep only if smaller.
  CodecType key_codec = CodecType::kNone;
  CodecType value_codec = CodecType::kNone;
  const std::string* key_stored = &key_buf_;
  const std::string* val_stored = &val_buf_;
  if (opts_.codec != CodecType::kNone) {
    ScopedTimer t(&compress_nanos_);
    const Codec* codec = GetCodec(opts_.codec);
    ANTIMR_RETURN_NOT_OK(codec->Compress(key_buf_, &key_compressed_));
    if (key_compressed_.size() < key_buf_.size()) {
      key_codec = opts_.codec;
      key_stored = &key_compressed_;
    }
    ANTIMR_RETURN_NOT_OK(codec->Compress(val_buf_, &compressed_));
    if (compressed_.size() < val_buf_.size()) {
      value_codec = opts_.codec;
      val_stored = &compressed_;
    }
  }

  // Header, CRC-protected separately from the payload so header corruption
  // is caught before any length field is trusted.
  header_.clear();
  PutVarint64(&header_, rows_.size());
  header_.push_back(
      static_cast<char>(any_rewrite ? kBlockFlagEagerDictRewrite : 0));
  header_.push_back(static_cast<char>(key_encoding));
  header_.push_back(static_cast<char>(key_codec));
  header_.push_back(static_cast<char>(value_codec));
  PutVarint32(&header_, static_cast<uint32_t>(key_buf_.size()));
  PutVarint32(&header_, static_cast<uint32_t>(key_stored->size()));
  PutVarint32(&header_, static_cast<uint32_t>(val_buf_.size()));
  PutVarint32(&header_, static_cast<uint32_t>(val_stored->size()));
  PutLengthPrefixed(&header_, min_key);
  PutLengthPrefixed(&header_, max_key);
  uint32_t payload_crc = Crc32(0, *key_stored);
  payload_crc = Crc32(payload_crc, *val_stored);
  PutFixed32(&header_, payload_crc);
  PutFixed32(&header_, Crc32(0, header_));

  std::string len_prefix;
  PutFixed32(&len_prefix, static_cast<uint32_t>(header_.size()));
  ANTIMR_RETURN_NOT_OK(writer_.Append(len_prefix));
  ANTIMR_RETURN_NOT_OK(writer_.Append(header_));
  ANTIMR_RETURN_NOT_OK(writer_.Append(*key_stored));
  ANTIMR_RETURN_NOT_OK(writer_.Append(*val_stored));

  raw_bytes_ += staged_raw_bytes_;
  ++block_count_;
  rows_.clear();
  stage_arena_.Clear();
  staged_raw_bytes_ = 0;
  return Status::OK();
}

Status ChunkWriter::Finish() {
  ANTIMR_RETURN_NOT_OK(EnsureMagic());
  ANTIMR_RETURN_NOT_OK(FlushBlock());
  return writer_.Close();
}

}  // namespace antimr
