// PageSet: a dense bitmap over the pages of a memory region.
//
// The memory model tracks residency and CoW privatisation per 4 KiB page;
// PageSet is the underlying bit vector with the bulk operations those paths
// need (range set/clear, popcount, iteration over set bits). Page p lives in
// bit p % 64 of word p / 64, and the word operations let a caller transition
// the 64 pages of one word at once; bits past size() are always clear.
#ifndef FIREWORKS_SRC_MEM_PAGE_SET_H_
#define FIREWORKS_SRC_MEM_PAGE_SET_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/check.h"

namespace fwmem {

class PageSet {
 public:
  static constexpr uint64_t kWordBits = 64;

  explicit PageSet(uint64_t num_pages);

  uint64_t size() const { return num_pages_; }
  size_t num_words() const { return words_.size(); }

  // Grows the region (new pages start clear). Shrinking is not supported.
  void Grow(uint64_t new_num_pages);

  bool Test(uint64_t page) const {
    FW_DCHECK(page < num_pages_);
    return (words_[page / kWordBits] >> (page % kWordBits)) & 1;
  }
  void Set(uint64_t page) {
    FW_DCHECK(page < num_pages_);
    OrWord(page / kWordBits, 1ULL << (page % kWordBits));
  }
  void Clear(uint64_t page) {
    FW_DCHECK(page < num_pages_);
    AndNotWord(page / kWordBits, 1ULL << (page % kWordBits));
  }

  // The bits of pages [64 * wi, 64 * wi + 64).
  uint64_t Word(size_t wi) const { return words_[wi]; }
  // Sets / clears the bits of `mask` in word wi; the mask must not reach past
  // size().
  void OrWord(size_t wi, uint64_t mask) {
    FW_DCHECK((mask & ~ValidBits(wi)) == 0);
    uint64_t& w = words_[wi];
    count_ += static_cast<uint64_t>(std::popcount(mask & ~w));
    w |= mask;
  }
  void AndNotWord(size_t wi, uint64_t mask) {
    uint64_t& w = words_[wi];
    count_ -= static_cast<uint64_t>(std::popcount(w & mask));
    w &= ~mask;
  }

  // The bits of word wi that fall inside [first, end).
  static uint64_t RangeMask(size_t wi, uint64_t first, uint64_t end) {
    const uint64_t lo = wi * kWordBits;
    const uint64_t from = first > lo ? first - lo : 0;
    const uint64_t to = end <= lo ? 0 : std::min(end - lo, kWordBits);
    if (from >= to) {
      return 0;
    }
    const uint64_t upto = to == kWordBits ? ~0ULL : (1ULL << to) - 1;
    return upto & ~((1ULL << from) - 1);
  }

  // Sets/clears [first, first + count); clamps to the region size.
  void SetRange(uint64_t first, uint64_t count);
  void ClearRange(uint64_t first, uint64_t count);
  void ClearAll();

  // Number of set bits.
  uint64_t Count() const { return count_; }
  // Number of set bits in [first, first + count).
  uint64_t CountRange(uint64_t first, uint64_t count) const;

  // Calls fn(page) for every set bit in ascending order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      for (uint64_t w = words_[wi]; w != 0; w &= w - 1) {
        fn(wi * kWordBits + static_cast<uint64_t>(std::countr_zero(w)));
      }
    }
  }

  // this |= other (sizes must match).
  void UnionWith(const PageSet& other);

 private:
  // The bits of word wi that lie inside the region.
  uint64_t ValidBits(size_t wi) const { return RangeMask(wi, 0, num_pages_); }

  uint64_t num_pages_;
  uint64_t count_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace fwmem

#endif  // FIREWORKS_SRC_MEM_PAGE_SET_H_
