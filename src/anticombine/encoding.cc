#include "anticombine/encoding.h"

#include <cstring>

namespace antimr {
namespace anticombine {

void EncodeEagerPayload(std::span<const Slice> other_keys,
                        const Slice& value, std::string* out) {
  out->resize(EagerPayloadSize(other_keys, value));
  EncodeEagerPayloadTo(out->data(), other_keys, value);
}

size_t EagerPayloadSize(std::span<const Slice> other_keys,
                        const Slice& value) {
  size_t size = 1 + static_cast<size_t>(VarintLength(other_keys.size()));
  for (const Slice& key : other_keys) {
    size += static_cast<size_t>(VarintLength(key.size())) + key.size();
  }
  return size + value.size();
}

char* EncodeEagerPayloadTo(char* dst, std::span<const Slice> other_keys,
                           const Slice& value) {
  *dst++ = static_cast<char>(Encoding::kEager);
  dst = EncodeVarint32(dst, static_cast<uint32_t>(other_keys.size()));
  for (const Slice& key : other_keys) {
    dst = EncodeVarint32(dst, static_cast<uint32_t>(key.size()));
    std::memcpy(dst, key.data(), key.size());
    dst += key.size();
  }
  std::memcpy(dst, value.data(), value.size());
  return dst + value.size();
}

void EncodeLazyPayload(const Slice& input_key, const Slice& input_value,
                       std::string* out) {
  out->clear();
  out->push_back(static_cast<char>(Encoding::kLazy));
  PutLengthPrefixed(out, input_key);
  out->append(input_value.data(), input_value.size());
}

size_t LazyPayloadSize(const Slice& input_key, const Slice& input_value) {
  return 1 + static_cast<size_t>(VarintLength(input_key.size())) +
         input_key.size() + input_value.size();
}

Status GetEncoding(const Slice& payload, Encoding* encoding, Slice* rest) {
  if (payload.empty()) {
    return Status::Corruption("anti-combining: empty payload");
  }
  const uint8_t flag = static_cast<uint8_t>(payload[0]);
  if (flag > static_cast<uint8_t>(Encoding::kEagerDict)) {
    return Status::Corruption("anti-combining: bad encoding flag");
  }
  *encoding = static_cast<Encoding>(flag);
  *rest = Slice(payload.data() + 1, payload.size() - 1);
  return Status::OK();
}

Status DecodeEagerPayload(const Slice& rest, std::vector<Slice>* other_keys,
                          Slice* value) {
  Slice in = rest;
  uint32_t n;
  if (!GetVarint32(&in, &n)) {
    return Status::Corruption("anti-combining: bad eager key count");
  }
  other_keys->clear();
  other_keys->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Slice key;
    if (!GetLengthPrefixed(&in, &key)) {
      return Status::Corruption("anti-combining: truncated eager key");
    }
    other_keys->push_back(key);
  }
  *value = in;
  return Status::OK();
}

Status DecodeLazyPayload(const Slice& rest, Slice* input_key,
                         Slice* input_value) {
  Slice in = rest;
  if (!GetLengthPrefixed(&in, input_key)) {
    return Status::Corruption("anti-combining: truncated lazy key");
  }
  *input_value = in;
  return Status::OK();
}

char* EncodeEagerDictPayloadTo(char* dst,
                               const std::vector<uint32_t>& dict_ids,
                               const Slice& value) {
  *dst++ = static_cast<char>(Encoding::kEagerDict);
  dst = EncodeVarint32(dst, static_cast<uint32_t>(dict_ids.size()));
  for (uint32_t id : dict_ids) dst = EncodeVarint32(dst, id);
  std::memcpy(dst, value.data(), value.size());
  return dst + value.size();
}

Status RematerializeEagerDictPayload(const Slice& rest,
                                     const std::vector<Slice>& dict_wire,
                                     Arena* arena, Slice* out) {
  // Two pointer walks over the id list: one to validate and size, one to
  // encode. Re-parsing the (almost always 1-byte) ids is cheaper than
  // staging them in a scratch vector, and each id resolves to a verbatim
  // copy of its wire-form entry — the length prefix is part of the entry,
  // so nothing is re-encoded per key.
  const char* p = rest.data();
  const char* const end = p + rest.size();
  uint32_t n = 0;
  p = GetVarint32Ptr(p, end, &n);
  if (p == nullptr) {
    return Status::Corruption("anti-combining: bad eager-dict key count");
  }
  const char* const ids_begin = p;
  const uint32_t dict_size = static_cast<uint32_t>(dict_wire.size());
  const Slice* wire = dict_wire.data();
  size_t keys_bytes = 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t id;
    p = GetVarint32Ptr(p, end, &id);
    if (p == nullptr) {
      return Status::Corruption("anti-combining: truncated eager-dict id");
    }
    if (id >= dict_size) {
      return Status::Corruption(
          "anti-combining: bad dictionary id " + std::to_string(id) +
          " (dictionary has " + std::to_string(dict_wire.size()) +
          " entries)");
    }
    keys_bytes += wire[id].size();
  }
  const size_t value_size = static_cast<size_t>(end - p);
  const size_t size = 1 + static_cast<size_t>(VarintLength(n)) + keys_bytes +
                      value_size;
  char* dst = arena->Allocate(size);
  char* q = dst;
  *q++ = static_cast<char>(Encoding::kEager);
  q = EncodeVarint32(q, n);
  for (const char* r = ids_begin; r != p;) {
    uint32_t id = 0;
    r = GetVarint32Ptr(r, end, &id);  // validated by the sizing pass
    const Slice& w = wire[id];
    const size_t ws = w.size();
    if (ws <= 16) {
      // Short keys (words, ids) dominate; a byte loop beats the memcpy
      // call for these sizes.
      for (size_t b = 0; b < ws; ++b) q[b] = w.data()[b];
    } else {
      std::memcpy(q, w.data(), ws);
    }
    q += ws;
  }
  std::memcpy(q, p, value_size);
  *out = Slice(dst, size);
  return Status::OK();
}

}  // namespace anticombine
}  // namespace antimr
