// Wire format for Anti-Combining records (paper Sections 3-4, 6.1).
//
// An encoded record's key is the representative key: the minimal key (by the
// job's key comparator) among the original records it stands for. Using the
// minimum guarantees every encoded-away key is >= the representative, so it
// can be decoded into Shared before its own Reduce call runs.
//
// The record's value is a flagged payload:
//
//   EagerSH:  [flag=0] varint(n) {len-prefixed other_key}*n shared_value...
//             Stands for the n+1 records (rep, v), (k_1, v), ..., (k_n, v)
//             that share value v and reduce task. n = 0 is the degenerate
//             "plain" case: the original record plus flag overhead (the
//             paper's Section 7.1 overhead experiment).
//
//   LazySH:   [flag=1] len-prefixed(map_input_key) map_input_value...
//             Stands for *all* original records of one Map call assigned to
//             this reduce task; the reducer re-executes Map + Partition to
//             regenerate them.
//
//   EagerSH/dict: [flag=2] varint(n) {varint(dict_id)}*n shared_value...
//             A storage-level rewrite of an EagerSH payload inside a
//             columnar chunk block (table/chunk_writer.h): each other_key is
//             replaced by its id in the block's key dictionary. Chunk
//             readers rematerialize the standard [flag=0] bytes before the
//             record leaves the block, so the AntiReducer never sees this
//             flag and reduce input stays byte-identical to the row format.
#ifndef ANTIMR_ANTICOMBINE_ENCODING_H_
#define ANTIMR_ANTICOMBINE_ENCODING_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"

namespace antimr {
namespace anticombine {

enum class Encoding : uint8_t {
  kEager = 0,      ///< EagerSH (n = 0 degenerates to flagged-plain)
  kLazy = 1,       ///< LazySH
  kEagerDict = 2,  ///< EagerSH with other_keys as block-dictionary ids
};

/// Build an EagerSH payload. `other_keys` excludes the representative.
void EncodeEagerPayload(std::span<const Slice> other_keys,
                        const Slice& value, std::string* out);

/// Bytes EncodeEagerPayload would produce, without building it.
size_t EagerPayloadSize(std::span<const Slice> other_keys,
                        const Slice& value);

/// Serialize an EagerSH payload straight into `dst` (which must hold at
/// least EagerPayloadSize bytes); returns one past the last byte written.
/// Lets the chunk reader rematerialize into arena storage without an
/// intermediate string.
char* EncodeEagerPayloadTo(char* dst, std::span<const Slice> other_keys,
                           const Slice& value);

/// Build a LazySH payload from the original Map *input* record.
void EncodeLazyPayload(const Slice& input_key, const Slice& input_value,
                       std::string* out);

/// Bytes EncodeLazyPayload would produce.
size_t LazyPayloadSize(const Slice& input_key, const Slice& input_value);

/// Read the flag byte; *rest gets the flag-stripped payload.
Status GetEncoding(const Slice& payload, Encoding* encoding, Slice* rest);

/// Parse a flag-stripped EagerSH payload. Slices view into `rest`.
Status DecodeEagerPayload(const Slice& rest, std::vector<Slice>* other_keys,
                          Slice* value);

/// Parse a flag-stripped LazySH payload. Slices view into `rest`.
Status DecodeLazyPayload(const Slice& rest, Slice* input_key,
                         Slice* input_value);

/// Serialize an EagerSH/dict payload (other_keys as block-dictionary ids)
/// straight into `dst`, which must hold 1 + varint(n) + the ids' varints +
/// value bytes; returns one past the last byte written.
char* EncodeEagerDictPayloadTo(char* dst,
                               const std::vector<uint32_t>& dict_ids,
                               const Slice& value);

/// Rematerialize a flag-stripped EagerSH/dict payload back into the
/// standard kEager byte form, encoded straight into `arena`.
/// `dict_wire[id]` must hold the dictionary entry in key-wire form —
/// varint(len) || bytes, the exact bytes an EagerSH payload carries per
/// key — so each id resolves to one verbatim copy with no per-key
/// re-encoding (chunk blocks store their dictionary in this form already).
/// Byte-identical to resolving the ids and calling EncodeEagerPayloadTo,
/// and allocation-free beyond the arena bump.
Status RematerializeEagerDictPayload(const Slice& rest,
                                     const std::vector<Slice>& dict_wire,
                                     Arena* arena, Slice* out);

}  // namespace anticombine
}  // namespace antimr

#endif  // ANTIMR_ANTICOMBINE_ENCODING_H_
