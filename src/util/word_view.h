// Unaligned little-endian loads and stores, and WordView over them.
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
