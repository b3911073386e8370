#include "src/mem/address_space.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/base/check.h"

namespace fwmem {
namespace {

// Converts a fraction in [0,1] to a strict-less-than hash threshold. The
// double→u64 cast of 1.0 * 2^64 would overflow, so saturate explicitly.
uint64_t FractionThreshold(double fraction) {
  if (fraction >= 1.0) {
    return UINT64_MAX;
  }
  return static_cast<uint64_t>(fraction * 18446744073709551616.0 /* 2^64 */);
}

constexpr uint64_t kPageGolden = 0x9E3779B97F4A7C15ULL;

// Deterministic per-page hash used to pick pseudo-random page subsets; takes
// page * kPageGolden so a caller walking consecutive pages can add instead of
// multiply.
uint64_t MixPage(uint64_t salt, uint64_t page_times_golden) {
  uint64_t z = salt ^ page_times_golden;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// The pages of `range` (one run of bits of bitmap word wi) whose hash falls
// below `threshold`. Walks the run from its top page down, shifting each
// verdict in at the bottom: no branch and no variable shift per page.
uint64_t SelectedPages(uint64_t salt, uint64_t threshold, size_t wi, uint64_t range) {
  if (range == 0) {
    return 0;
  }
  const int from = std::countr_zero(range);
  const int top = static_cast<int>(PageSet::kWordBits) - 1 - std::countl_zero(range);
  uint64_t golden = (wi * PageSet::kWordBits + static_cast<uint64_t>(top)) * kPageGolden;
  uint64_t mask = 0;
  for (int bit = top; bit >= from; --bit, golden -= kPageGolden) {
    mask = mask + mask + static_cast<uint64_t>(MixPage(salt, golden) < threshold);
  }
  return mask << from;
}

}  // namespace

FaultCounts& FaultCounts::operator+=(const FaultCounts& o) {
  major_faults += o.major_faults;
  minor_shared += o.minor_shared;
  zero_fills += o.zero_fills;
  cow_copies += o.cow_copies;
  fresh_writes += o.fresh_writes;
  already_mapped += o.already_mapped;
  return *this;
}

SnapshotImage::SnapshotImage(HostMemory& host, std::string name,
                             std::vector<SegmentLayout> segments, PageSet valid)
    : name_(std::move(name)),
      segments_(std::move(segments)),
      valid_(std::move(valid)),
      backing_(host, valid_.size()) {}

AddressSpace::AddressSpace(HostMemory& host)
    : host_(host), resident_shared_(0), private_(0), zero_(0), image_touched_(0) {}

AddressSpace::AddressSpace(HostMemory& host, std::shared_ptr<SnapshotImage> image)
    : host_(host),
      image_(std::move(image)),
      segments_(image_->segments()),
      total_pages_(image_->total_pages()),
      resident_shared_(total_pages_),
      private_(total_pages_),
      zero_(total_pages_),
      image_touched_(total_pages_),
      guest_identity_(image_->guest_identity()) {}

AddressSpace::~AddressSpace() { Unmap(); }

void AddressSpace::GrowTo(uint64_t pages) {
  resident_shared_.Grow(pages);
  private_.Grow(pages);
  zero_.Grow(pages);
  image_touched_.Grow(pages);
  total_pages_ = pages;
}

SegmentId AddressSpace::AddSegment(const std::string& name, uint64_t bytes) {
  FW_CHECK(!unmapped_);
  const uint64_t pages = fwbase::PagesFor(bytes);
  segments_.push_back(SegmentLayout{name, total_pages_, pages});
  GrowTo(total_pages_ + pages);
  return static_cast<SegmentId>(segments_.size() - 1);
}

SegmentId AddressSpace::SegmentByName(const std::string& name) const {
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].name == name) {
      return static_cast<SegmentId>(i);
    }
  }
  FW_CHECK_MSG(false, ("no segment named " + name).c_str());
  return 0;
}

bool AddressSpace::HasSegment(const std::string& name) const {
  for (const auto& s : segments_) {
    if (s.name == name) {
      return true;
    }
  }
  return false;
}

uint64_t AddressSpace::SegmentPages(SegmentId seg) const {
  FW_CHECK(seg < segments_.size());
  return segments_[seg].pages;
}

// The page-state machine, applied to up to 64 pages at once. With P, R, Z
// the private, resident-shared and zero-page bits of the word and V the
// image's valid bits:
//
//   read:  P|R|Z            already mapped
//          else V           resident-shared; major/minor by the page's refcount
//          else, imaged     zero page, no frame
//          else, fresh      private frame (a fresh space produced the content)
//   write: P                already mapped
//          R                copy-on-write: drop the shared ref, private frame
//          Z                private frame (fresh write)
//          else V           private frame (copy of a not-yet-resident page)
//          else             private frame (fresh write)
//
// Only pages whose refcount changes call into the backing store, one by one.
// The word's private frames are allocated after its CoW frees; since every
// page nets >= 0 frames, the host's running frame count still peaks at the
// end of the access, exactly as page-by-page accounting would.
void AddressSpace::AccessWord(size_t wi, uint64_t mask, bool write, FaultCounts& out) {
  const uint64_t base = wi * PageSet::kWordBits;
  const uint64_t valid = image_ != nullptr ? image_->ValidWord(wi) : 0;
  const uint64_t priv = private_.Word(wi);
  const uint64_t shared = resident_shared_.Word(wi);
  const uint64_t zero = zero_.Word(wi);

  if (!write) {
    const uint64_t mapped = mask & (priv | shared | zero);
    out.already_mapped += static_cast<uint64_t>(std::popcount(mapped));
    const uint64_t todo = mask & ~mapped;
    if (image_ == nullptr) {
      // Fresh space: a guest "reading" fresh content had to produce it first
      // (kernel decompression, file load into RAM) — private frame.
      const uint64_t n = static_cast<uint64_t>(std::popcount(todo));
      if (n != 0) {
        host_.AllocFrames(n);
        private_.OrWord(wi, todo);
        out.fresh_writes += n;
      }
      return;
    }
    const uint64_t from_image = todo & valid;
    for (uint64_t w = from_image; w != 0; w &= w - 1) {
      if (image_->backing().IncResident(base + static_cast<uint64_t>(std::countr_zero(w)))) {
        ++out.major_faults;
      } else {
        ++out.minor_shared;
      }
    }
    resident_shared_.OrWord(wi, from_image);
    image_touched_.OrWord(wi, from_image);
    // Image-backed space reading a page the image has no content for: shared
    // zero page, no frame charge.
    const uint64_t zero_fill = todo & ~valid;
    zero_.OrWord(wi, zero_fill);
    out.zero_fills += static_cast<uint64_t>(std::popcount(zero_fill));
    return;
  }

  out.already_mapped += static_cast<uint64_t>(std::popcount(mask & priv));
  const uint64_t todo = mask & ~priv;
  if (todo == 0) {
    return;
  }
  // Copy-on-write: drop the shared reference, take a private frame.
  const uint64_t cow_shared = todo & shared;
  for (uint64_t w = cow_shared; w != 0; w &= w - 1) {
    image_->backing().DecResident(base + static_cast<uint64_t>(std::countr_zero(w)));
  }
  resident_shared_.AndNotWord(wi, cow_shared);
  zero_.AndNotWord(wi, todo & zero);
  // A write to a not-yet-resident image page: the kernel still reads the
  // content, then immediately breaks the mapping private.
  const uint64_t cow_cold = todo & ~shared & ~zero & valid;
  image_touched_.OrWord(wi, cow_cold);
  const uint64_t n = static_cast<uint64_t>(std::popcount(todo));
  const uint64_t cow = static_cast<uint64_t>(std::popcount(cow_shared | cow_cold));
  host_.AllocFrames(n);
  private_.OrWord(wi, todo);
  out.cow_copies += cow;
  out.fresh_writes += n - cow;
}

FaultCounts AddressSpace::AccessRange(SegmentId seg, uint64_t first, uint64_t count,
                                      bool write) {
  FW_CHECK(!unmapped_);
  FW_CHECK(seg < segments_.size());
  FW_PROFILE_SCOPE_ID(host_.profiler(), host_.page_walk_scope());
  const auto& layout = segments_[seg];
  FW_CHECK_MSG(first + count <= layout.pages, "access beyond segment end");
  const uint64_t begin = layout.base_page + first;
  const uint64_t end = begin + count;
  FaultCounts out;
  for (uint64_t wi = begin / PageSet::kWordBits; wi * PageSet::kWordBits < end; ++wi) {
    AccessWord(wi, PageSet::RangeMask(wi, begin, end), write, out);
  }
  return out;
}

FaultCounts AddressSpace::Touch(SegmentId seg, uint64_t first, uint64_t count) {
  return AccessRange(seg, first, count, /*write=*/false);
}

FaultCounts AddressSpace::Dirty(SegmentId seg, uint64_t first, uint64_t count) {
  return AccessRange(seg, first, count, /*write=*/true);
}

FaultCounts AddressSpace::TouchBytes(SegmentId seg, uint64_t bytes) {
  const uint64_t pages = std::min(fwbase::PagesFor(bytes), SegmentPages(seg));
  return Touch(seg, 0, pages);
}

FaultCounts AddressSpace::DirtyBytes(SegmentId seg, uint64_t bytes) {
  const uint64_t pages = std::min(fwbase::PagesFor(bytes), SegmentPages(seg));
  return Dirty(seg, 0, pages);
}

FaultCounts AddressSpace::AccessRandomFraction(SegmentId seg, double fraction, uint64_t salt,
                                               bool write) {
  FW_CHECK(!unmapped_);
  FW_CHECK(fraction >= 0.0 && fraction <= 1.0);
  FW_CHECK(seg < segments_.size());
  FW_PROFILE_SCOPE_ID(host_.profiler(), host_.page_walk_scope());
  const auto& layout = segments_[seg];
  const uint64_t begin = layout.base_page;
  const uint64_t end = begin + layout.pages;
  const uint64_t threshold = FractionThreshold(fraction);
  FaultCounts out;
  for (uint64_t wi = begin / PageSet::kWordBits; wi * PageSet::kWordBits < end; ++wi) {
    uint64_t mask = PageSet::RangeMask(wi, begin, end);
    if (fraction < 1.0) {
      mask = SelectedPages(salt, threshold, wi, mask);
    }
    AccessWord(wi, mask, write, out);
  }
  return out;
}

FaultCounts AddressSpace::DirtyRandomFraction(SegmentId seg, double fraction, uint64_t salt) {
  return AccessRandomFraction(seg, fraction, salt, /*write=*/true);
}

FaultCounts AddressSpace::TouchRandomFraction(SegmentId seg, double fraction, uint64_t salt) {
  return AccessRandomFraction(seg, fraction, salt, /*write=*/false);
}

std::shared_ptr<SnapshotImage> AddressSpace::TakeSnapshot(const std::string& name) const {
  FW_CHECK(!unmapped_);
  PageSet valid(total_pages_);
  valid.UnionWith(resident_shared_);
  valid.UnionWith(private_);
  auto image = std::make_shared<SnapshotImage>(host_, name, segments_, std::move(valid));
  // The guest's identity record is memory content: it freezes into the image
  // with everything else, and every clone restored from the image inherits it.
  image->set_guest_identity(guest_identity_);
  return image;
}

void AddressSpace::Unmap() {
  if (unmapped_) {
    return;
  }
  FW_PROFILE_SCOPE_ID(host_.profiler(), host_.page_walk_scope());
  if (image_ != nullptr) {
    resident_shared_.ForEachSet([this](uint64_t page) { image_->backing().DecResident(page); });
  }
  host_.FreeFrames(private_.Count());
  resident_shared_.ClearAll();
  private_.ClearAll();
  zero_.ClearAll();
  unmapped_ = true;
}

uint64_t AddressSpace::rss_bytes() const {
  return (resident_shared_.Count() + private_.Count() + zero_.Count()) * fwbase::kPageSize;
}

uint64_t AddressSpace::uss_bytes() const { return private_.Count() * fwbase::kPageSize; }

double AddressSpace::pss_bytes() const {
  FW_PROFILE_SCOPE_ID(host_.profiler(), host_.page_walk_scope());
  double pss_pages = static_cast<double>(private_.Count());
  if (image_ != nullptr) {
    resident_shared_.ForEachSet([this, &pss_pages](uint64_t page) {
      pss_pages += 1.0 / static_cast<double>(image_->backing().ResidentRefs(page));
    });
  }
  return pss_pages * static_cast<double>(fwbase::kPageSize);
}

std::vector<SegmentStats> AddressSpace::PerSegmentStats() const {
  std::vector<SegmentStats> out;
  out.reserve(segments_.size());
  for (const auto& layout : segments_) {
    SegmentStats s;
    s.name = layout.name;
    s.pages = layout.pages;
    s.resident_shared = resident_shared_.CountRange(layout.base_page, layout.pages);
    s.private_pages = private_.CountRange(layout.base_page, layout.pages);
    s.zero_pages = zero_.CountRange(layout.base_page, layout.pages);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace fwmem
