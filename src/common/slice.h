// A non-owning byte view with the small helpers the framework's record
// plumbing needs. Thin wrapper over std::string_view so call sites read like
// RocksDB code while interoperating with the standard library.
#ifndef ANTIMR_COMMON_SLICE_H_
#define ANTIMR_COMMON_SLICE_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace antimr {

/// \brief Non-owning view of a byte range.
class Slice {
 public:
  Slice() : data_(""), size_(0) {}
  Slice(const char* data, size_t size) : data_(data), size_(size) {}
  Slice(const std::string& s) : data_(s.data()), size_(s.size()) {}  // NOLINT
  Slice(std::string_view s) : data_(s.data()), size_(s.size()) {}    // NOLINT

  /// String literals (and other char arrays) convert implicitly: they have
  /// static or caller-scoped storage, so a Slice over them is safe to keep.
  template <size_t N>
  Slice(const char (&lit)[N]) : data_(lit), size_(std::strlen(lit)) {}  // NOLINT

  /// Raw char pointers must convert EXPLICITLY. The old implicit conversion
  /// invited dangling-temporary bugs once slices started living in
  /// containers (arena indexes, interned-key tables): a `const char*`
  /// obtained from a transient buffer would silently become a stored view.
  explicit Slice(const char* cstr) : data_(cstr), size_(std::strlen(cstr)) {}

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  char operator[](size_t i) const {
    assert(i < size_);
    return data_[i];
  }

  /// Drop the first n bytes from the view.
  void RemovePrefix(size_t n) {
    assert(n <= size_);
    data_ += n;
    size_ -= n;
  }

  std::string ToString() const { return std::string(data_, size_); }
  std::string_view view() const { return std::string_view(data_, size_); }

  /// Three-way bytewise comparison, matching memcmp semantics.
  int compare(const Slice& other) const {
    const size_t min_len = size_ < other.size_ ? size_ : other.size_;
    int r = min_len == 0 ? 0 : std::memcmp(data_, other.data_, min_len);
    if (r == 0) {
      if (size_ < other.size_) return -1;
      if (size_ > other.size_) return +1;
    }
    return r;
  }

  bool starts_with(const Slice& prefix) const {
    return size_ >= prefix.size_ &&
           std::memcmp(data_, prefix.data_, prefix.size_) == 0;
  }

  friend bool operator==(const Slice& a, const Slice& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }
  friend bool operator!=(const Slice& a, const Slice& b) { return !(a == b); }
  friend bool operator<(const Slice& a, const Slice& b) {
    return a.compare(b) < 0;
  }

 private:
  const char* data_;
  size_t size_;
};

/// Zero-padded big-endian load of s's first 8 bytes. Comparing two
/// prefixes orders the slices as their first 8 bytes would, so a sort can
/// settle most comparisons without leaving its entries; slices whose
/// prefixes tie still need a full comparison unless both are at most 8
/// bytes and of equal length.
inline uint64_t OrderPrefix(const Slice& s) {
  uint64_t prefix = 0;
  const size_t n = s.size() < 8 ? s.size() : 8;
  if (n != 0) std::memcpy(&prefix, s.data(), n);
  if constexpr (std::endian::native == std::endian::little) {
    prefix = __builtin_bswap64(prefix);
  }
  return prefix;
}

}  // namespace antimr

#endif  // ANTIMR_COMMON_SLICE_H_
