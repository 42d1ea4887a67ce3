// Unaligned little-endian loads and stores, WordView over them, and the
// one popcount of a 64-bit word.
//
// An R-tree node slot (rtree/node_codec.h) packs its entries back to back,
// so an entry's doubles, ids and augmentation words sit at offsets that are
// not multiples of their size.  These helpers copy them with memcpy, which
// compiles to a plain unaligned load or store.
#ifndef STPQ_UTIL_WORD_VIEW_H_
#define STPQ_UTIL_WORD_VIEW_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace stpq {

/// std::popcount without its library call: the build targets baseline
/// x86-64, which has no POPCNT instruction, so std::popcount compiles to a
/// libgcc call per word.  Every keyword-set and keyword-summary count
/// (KeywordSet, HilbertIntersectCount) goes through this one.
inline uint32_t PopCount64(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<uint32_t>((x * 0x0101010101010101ULL) >> 56);
}

template <typename T>
T LoadUnaligned(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void StoreUnaligned(char* p, const T& v) {
  std::memcpy(p, &v, sizeof(T));
}

/// Read-only view of `size` 64-bit words at `data`, in a node slot or in a
/// word vector (a Signature's, a HilbertValue's).
class WordView {
 public:
  WordView(const char* data, uint32_t size) : data_(data), size_(size) {}
  WordView(const std::vector<uint64_t>& words)  // NOLINT(runtime/explicit)
      : data_(reinterpret_cast<const char*>(words.data())),
        size_(static_cast<uint32_t>(words.size())) {}

  [[nodiscard]] uint32_t size() const { return size_; }
  [[nodiscard]] uint64_t operator[](uint32_t i) const {
    return LoadUnaligned<uint64_t>(data_ + size_t{i} * 8);
  }

 private:
  const char* data_;
  uint32_t size_;
};

}  // namespace stpq

#endif  // STPQ_UTIL_WORD_VIEW_H_
