// Map-output segment format and the mapper->reducer transfer path. A segment
// is one partition's sorted records, serialized in run format, cut into
// ~64 KiB blocks, and independently compressed + CRC-framed per block (see
// io/run_file.h). Spill files and final map outputs share the format.
//
// Reducers consume segments through streaming readers: either directly from
// the map side's storage (barrier model), or from an in-memory FetchedSegment
// that a concurrent fetcher copied while the map wave was still running
// (pipelined model, mirroring Hadoop's parallel-copy shuffle phase). Either
// way decompression is block-at-a-time with bounded readahead, so a reduce
// task's buffered bytes are O(blocks x readahead), not O(segment).
#ifndef ANTIMR_MR_SHUFFLE_H_
#define ANTIMR_MR_SHUFFLE_H_

#include <memory>
#include <string>

#include "codec/codec.h"
#include "io/env.h"
#include "io/run_file.h"

namespace antimr {

/// Default block size for shuffle segments.
constexpr size_t kShuffleBlockBytes = kDefaultBlockBytes;
/// Default per-segment readahead window (in blocks).
constexpr size_t kShuffleReadaheadBlocks = kDefaultReadaheadBlocks;

/// How reduce-side shuffle work is scheduled relative to the map wave.
enum class ShuffleMode {
  /// Concurrent fetchers copy each map output as soon as it is published;
  /// only the merge+reduce waits for all of a partition's inputs.
  kPipelined,
  /// Classic two-wave model: all maps finish, then reducers stream their
  /// segments inline. Kept for A/B benchmarking of the pipeline.
  kBarrier,
};

/// File name for map task `map_task`'s final output segment for `partition`.
std::string SegmentFileName(const std::string& job_id, int map_task,
                            int partition);

/// File name for spill `spill` of map task `map_task`, partition `partition`.
std::string SpillFileName(const std::string& job_id, int map_task, int spill,
                          int partition);

struct SegmentWriteResult {
  uint64_t raw_bytes = 0;     ///< serialized run bytes before compression
  uint64_t stored_bytes = 0;  ///< bytes written to the file
  uint64_t records = 0;
  uint64_t blocks = 0;
};

/// Serialize `stream` (already key-sorted) as a block-framed run cut at
/// ~block_bytes and write it to `fname`. Streaming and batched: records
/// drain via NextBatch, memory use is O(block). Compression CPU is added to
/// *compress_nanos.
Status WriteSegment(Env* env, const std::string& fname, KVStream* stream,
                    const Codec* codec, uint64_t* compress_nanos,
                    SegmentWriteResult* out,
                    size_t block_bytes = kShuffleBlockBytes);

struct SegmentReadOptions {
  size_t readahead_blocks = kShuffleReadaheadBlocks;
  /// Simulated mapper->reducer bandwidth paid per block read; 0 = none.
  /// Used when the reducer streams straight from the map side's storage.
  double network_mb_per_s = 0;
};

/// Open `fname` as a streaming segment reader positioned at its first
/// record. A file without the block-run magic, and per-block CRC failures,
/// surface as Status::Corruption with file and block context.
Status OpenSegmentReader(Env* env, const std::string& fname,
                         const Codec* codec, const SegmentReadOptions& options,
                         std::unique_ptr<BlockRunReader>* reader);

/// \brief One segment copied to the reduce side by a concurrent fetcher.
///
/// Holds the segment's stored (compressed) frames; decompression still
/// happens block-at-a-time when the segment is merged. This is the analog of
/// Hadoop's in-memory shuffle buffer.
struct FetchedSegment {
  std::string file;      ///< origin file name (error context)
  std::string frames;    ///< raw stored bytes (magic + block frames)
  uint64_t fetched_bytes = 0;  ///< == frames.size(); shuffle transfer volume
  uint64_t fetch_nanos = 0;    ///< wall time of the copy, incl. simulated
                               ///< disk and network transfer time
};

/// Copy segment `fname` into memory, paying simulated network transfer time
/// chunk by chunk. The Env read pays simulated disk time as usual.
Status FetchSegmentFrames(Env* env, const std::string& fname,
                          double network_mb_per_s, FetchedSegment* out);

/// Open a previously fetched segment as a streaming reader. `segment` must
/// outlive the reader (its frames are borrowed, not copied).
Status OpenFetchedSegment(const FetchedSegment& segment, const Codec* codec,
                          size_t readahead_blocks,
                          std::unique_ptr<BlockRunReader>* reader);

}  // namespace antimr

#endif  // ANTIMR_MR_SHUFFLE_H_
