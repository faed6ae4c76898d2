// Writer half of the columnar chunk format (table/format.h): stages records
// in an arena, cuts blocks at the same raw-byte threshold the row writer
// uses, and serializes each block as separately encoded key and value
// columns with min/max stats and per-column codec choice.
#ifndef ANTIMR_TABLE_CHUNK_WRITER_H_
#define ANTIMR_TABLE_CHUNK_WRITER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "codec/codec.h"
#include "common/arena.h"
#include "common/key_index.h"
#include "common/record_batch.h"
#include "common/status.h"
#include "io/buffered_io.h"
#include "table/format.h"

namespace antimr {

/// \brief Writes a key-sorted record stream as a columnar chunk.
///
/// Input must be sorted by the key order the eventual reader prunes with:
/// each block's min/max stats are its first/last record keys. Appended
/// bytes are copied into a staging arena immediately, so callers may reuse
/// their buffers (and batches) freely between calls — unless the caller
/// opts into assume_stable_inputs, which skips that copy.
class ChunkWriter {
 public:
  struct Options {
    /// Raw (row-serialized) bytes per block before a cut — the same
    /// threshold BlockRunWriter applies, so the two formats cut blocks at
    /// identical record boundaries.
    size_t block_bytes = 64 * 1024;
    /// Codec tried per column per block; a column keeps raw storage when
    /// compression does not shrink it (per-block codec choice).
    CodecType codec = CodecType::kNone;
    /// Rewrite EagerSH payloads (anticombine/encoding.h) whose {other keys}
    /// appear in the block dictionary to kEagerDict id lists when smaller.
    /// Only safe on anti-combined segments, where every value is a flagged
    /// payload.
    bool rewrite_eager_payloads = false;
    /// Caller guarantees every appended slice stays valid until Finish()
    /// returns (e.g. records interned in a map-output arena, or a vector
    /// the caller owns). The writer then stages views instead of copying
    /// each record into its arena — the dominant per-record write cost.
    /// Unsafe for merge-backed streams, whose views die at the next batch.
    bool assume_stable_inputs = false;
  };

  ChunkWriter(std::unique_ptr<WritableFile> file, Options options);

  Status Append(const Slice& key, const Slice& value);
  Status AppendBatch(const RecordBatch& batch);
  /// Flush the final partial block and close the file. Must be called.
  Status Finish();

  /// Row-serialized bytes represented (varint-framed key+value), the same
  /// measure BlockRunWriter::raw_bytes reports — shuffle volume metrics
  /// stay comparable across formats.
  uint64_t raw_bytes() const { return raw_bytes_; }
  /// Total file bytes (magic + headers + column payloads).
  uint64_t stored_bytes() const { return writer_.bytes_written(); }
  uint64_t record_count() const { return record_count_; }
  uint64_t block_count() const { return block_count_; }
  uint64_t compress_nanos() const { return compress_nanos_; }
  /// Blocks that chose dictionary key encoding.
  uint64_t dict_blocks() const { return dict_blocks_; }
  /// Values rewritten from EagerSH to EagerSH/dict.
  uint64_t payload_rewrites() const { return payload_rewrites_; }

 private:
  Status EnsureMagic();
  Status FlushBlock();
  /// Rewrite eligible staged values to kEagerDict, extending the block
  /// dictionary with payload keys it adopts. Fills final_values_.
  void RewriteValues();

  BufferedWriter writer_;
  Options opts_;

  // Staged records for the current block.
  Arena stage_arena_;
  std::vector<RecordRef> rows_;
  uint64_t staged_raw_bytes_ = 0;
  bool wrote_magic_ = false;

  // Flush-time scratch, reused across blocks so steady-state flushes do not
  // allocate.
  std::vector<Slice> dict_;
  KeyIndex dict_index_;
  std::vector<uint32_t> key_ids_;
  std::vector<Slice> final_values_;
  Arena rewrite_arena_;
  std::vector<uint32_t> parsed_ids_;
  std::vector<Slice> pending_dict_keys_;
  std::string key_buf_;
  std::string val_buf_;
  std::string key_compressed_;
  std::string compressed_;
  std::string header_;

  uint64_t raw_bytes_ = 0;
  uint64_t record_count_ = 0;
  uint64_t block_count_ = 0;
  uint64_t compress_nanos_ = 0;
  uint64_t dict_blocks_ = 0;
  uint64_t payload_rewrites_ = 0;
};

}  // namespace antimr

#endif  // ANTIMR_TABLE_CHUNK_WRITER_H_
