#include "text/keyword_set.h"

#include <bit>

#include "util/logging.h"
#include "util/word_view.h"

namespace stpq {

namespace {
size_t BlockCount(uint32_t universe_size) {
  return (static_cast<size_t>(universe_size) + 63) / 64;
}
}  // namespace

KeywordSet::KeywordSet(uint32_t universe_size)
    : universe_size_(universe_size), blocks_(BlockCount(universe_size), 0) {}

KeywordSet::KeywordSet(uint32_t universe_size,
                       std::initializer_list<TermId> terms)
    : KeywordSet(universe_size) {
  for (TermId id : terms) Insert(id);
}

void KeywordSet::Insert(TermId id) {
  STPQ_CHECK(id < universe_size_);
  const uint64_t bit = uint64_t{1} << (id % 64);
  blocks_[id / 64] |= bit;
  sig_ |= bit;
}

bool KeywordSet::Contains(TermId id) const {
  if (id >= universe_size_) return false;
  return (blocks_[id / 64] >> (id % 64)) & 1u;
}

uint32_t KeywordSet::Count() const {
  uint32_t n = 0;
  for (uint64_t b : blocks_) n += PopCount64(b);
  return n;
}

uint32_t KeywordSet::IntersectCount(const KeywordSet& other) const {
  STPQ_DCHECK(universe_size_ == other.universe_size_);
  if ((sig_ & other.sig_) == 0) return 0;  // provably disjoint
  uint32_t n = 0;
  for (size_t i = 0; i < blocks_.size(); ++i) {
    n += PopCount64(blocks_[i] & other.blocks_[i]);
  }
  return n;
}

uint32_t KeywordSet::UnionCount(const KeywordSet& other) const {
  STPQ_DCHECK(universe_size_ == other.universe_size_);
  uint32_t n = 0;
  for (size_t i = 0; i < blocks_.size(); ++i) {
    n += PopCount64(blocks_[i] | other.blocks_[i]);
  }
  return n;
}

bool KeywordSet::Intersects(const KeywordSet& other) const {
  STPQ_DCHECK(universe_size_ == other.universe_size_);
  if ((sig_ & other.sig_) == 0) return false;  // provably disjoint
  if (blocks_.size() == 1) return true;        // the signature is exact
  for (size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i] & other.blocks_[i]) return true;
  }
  return false;
}

double KeywordSet::Jaccard(const KeywordSet& other) const {
  STPQ_DCHECK(universe_size_ == other.universe_size_);
  // Disjoint sets (including two empty ones) have similarity 0 by the
  // paper's convention, so the signature test answers directly.
  if ((sig_ & other.sig_) == 0) return 0.0;
  uint32_t inter = 0;
  uint32_t uni = 0;
  for (size_t i = 0; i < blocks_.size(); ++i) {
    inter += PopCount64(blocks_[i] & other.blocks_[i]);
    uni += PopCount64(blocks_[i] | other.blocks_[i]);
  }
  if (uni == 0) return 0.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

void KeywordSet::UnionWith(const KeywordSet& other) {
  STPQ_DCHECK(universe_size_ == other.universe_size_);
  for (size_t i = 0; i < blocks_.size(); ++i) blocks_[i] |= other.blocks_[i];
  sig_ |= other.sig_;
}

std::vector<TermId> KeywordSet::ToTerms() const {
  std::vector<TermId> out;
  out.reserve(Count());
  for (size_t i = 0; i < blocks_.size(); ++i) {
    for (uint64_t b = blocks_[i]; b != 0; b &= b - 1) {
      out.push_back(static_cast<TermId>(i * 64 + std::countr_zero(b)));
    }
  }
  return out;
}

KeywordSet KeywordSet::FromBlocks(uint32_t universe_size,
                                  std::vector<uint64_t> blocks) {
  STPQ_CHECK(blocks.size() == BlockCount(universe_size));
  KeywordSet s(universe_size);
  s.blocks_ = std::move(blocks);
  s.sig_ = 0;
  for (uint64_t b : s.blocks_) s.sig_ |= b;
  return s;
}

}  // namespace stpq
