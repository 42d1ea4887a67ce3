#include "hilbert/keyword_hilbert.h"

#include "util/logging.h"

namespace stpq {

namespace {

/// Prefix-XOR from the MSB downward within one word: output bit j becomes
/// the parity of input bits 63..j.
uint64_t PrefixXorMsbFirst(uint64_t v) {
  v ^= v >> 1;
  v ^= v >> 2;
  v ^= v >> 4;
  v ^= v >> 8;
  v ^= v >> 16;
  v ^= v >> 32;
  return v;
}

}  // namespace

std::strong_ordering HilbertValue::operator<=>(
    const HilbertValue& other) const {
  STPQ_DCHECK(bits_ == other.bits_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] != other.words_[i]) {
      return words_[i] < other.words_[i] ? std::strong_ordering::less
                                         : std::strong_ordering::greater;
    }
  }
  return std::strong_ordering::equal;
}

double HilbertValue::ToUnitDouble() const {
  if (words_.empty()) return 0.0;
  // 2^-64 scaling of the leading word; values land in [0, 1).
  return static_cast<double>(words_[0]) * 5.421010862427522e-20;
}

HilbertValue EncodeKeywords(const KeywordSet& set) {
  const uint32_t w = set.universe_size();
  HilbertValue out(w);
  // Keyword bitmaps are LSB-first; the Hilbert value wants dimension 0 at
  // the most significant position, so each block is bit-reversed.
  const std::vector<uint64_t>& blocks = set.blocks();
  std::vector<uint64_t>& words = out.words();
  uint64_t carry_parity = 0;  // parity of all vector bits in earlier words
  for (size_t i = 0; i < blocks.size(); ++i) {
    uint64_t v = BitReverse64(blocks[i]);
    uint64_t t = PrefixXorMsbFirst(v);
    if (carry_parity) t = ~t;
    words[i] = t;
    carry_parity ^= uint64_t{PopCount64(blocks[i])} & 1u;
  }
  // Zero bits beyond the universe so equal sets compare equal.
  uint32_t tail = w % 64;
  if (tail != 0 && !words.empty()) {
    words.back() &= ~uint64_t{0} << (64 - tail);
  }
  return out;
}

KeywordSet DecodeKeywords(const HilbertValue& value, uint32_t universe_size) {
  STPQ_DCHECK(value.bits() == universe_size);
  const std::vector<uint64_t>& words = value.words();
  std::vector<uint64_t> blocks(words.size(), 0);
  // v[d] = h[d] XOR h[d-1]; with MSB-first storage this is
  // h ^ (h >> 1) with the previous word's lowest bit carried into bit 63.
  uint64_t carry = 0;  // previous word's bit 0
  for (size_t i = 0; i < words.size(); ++i) {
    uint64_t h = words[i];
    uint64_t v = h ^ ((h >> 1) | (carry << 63));
    carry = h & 1u;
    blocks[i] = BitReverse64(v);
  }
  // Mask bits beyond the universe.
  uint32_t tail = universe_size % 64;
  if (tail != 0 && !blocks.empty()) {
    blocks.back() &= (uint64_t{1} << tail) - 1;
  }
  return KeywordSet::FromBlocks(universe_size, std::move(blocks));
}

HilbertValue AggregateHilbert(const HilbertValue& a, const HilbertValue& b,
                              uint32_t universe_size) {
  KeywordSet va = DecodeKeywords(a, universe_size);
  KeywordSet vb = DecodeKeywords(b, universe_size);
  va.UnionWith(vb);
  return EncodeKeywords(va);
}

}  // namespace stpq
