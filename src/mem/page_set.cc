#include "src/mem/page_set.h"

#include <algorithm>

namespace fwmem {

PageSet::PageSet(uint64_t num_pages)
    : num_pages_(num_pages), words_((num_pages + kWordBits - 1) / kWordBits, 0) {}

void PageSet::Grow(uint64_t new_num_pages) {
  FW_CHECK(new_num_pages >= num_pages_);
  num_pages_ = new_num_pages;
  words_.resize((new_num_pages + kWordBits - 1) / kWordBits, 0);
}

void PageSet::SetRange(uint64_t first, uint64_t count) {
  const uint64_t end = std::min(first + count, num_pages_);
  for (uint64_t wi = first / kWordBits; wi * kWordBits < end; ++wi) {
    OrWord(wi, RangeMask(wi, first, end));
  }
}

void PageSet::ClearRange(uint64_t first, uint64_t count) {
  const uint64_t end = std::min(first + count, num_pages_);
  for (uint64_t wi = first / kWordBits; wi * kWordBits < end; ++wi) {
    AndNotWord(wi, RangeMask(wi, first, end));
  }
}

void PageSet::ClearAll() {
  std::fill(words_.begin(), words_.end(), 0);
  count_ = 0;
}

uint64_t PageSet::CountRange(uint64_t first, uint64_t count) const {
  const uint64_t end = std::min(first + count, num_pages_);
  uint64_t n = 0;
  for (uint64_t wi = first / kWordBits; wi * kWordBits < end; ++wi) {
    n += static_cast<uint64_t>(std::popcount(words_[wi] & RangeMask(wi, first, end)));
  }
  return n;
}

void PageSet::UnionWith(const PageSet& other) {
  FW_CHECK(other.num_pages_ == num_pages_);
  uint64_t count = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= other.words_[i];
    count += static_cast<uint64_t>(std::popcount(words_[i]));
  }
  count_ = count;
}

}  // namespace fwmem
