// Unit & property tests for the host memory model: page sets, frame
// accounting, CoW snapshot mappings, and smem-style PSS/RSS/USS metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/mem/address_space.h"
#include "src/mem/backing_store.h"
#include "src/mem/host_memory.h"
#include "src/mem/page_set.h"

namespace fwmem {
namespace {

using fwbase::kPageSize;
using namespace fwbase::literals;

// ---------------------------------------------------------------------------
// PageSet.
// ---------------------------------------------------------------------------

TEST(PageSetTest, SetTestClear) {
  PageSet s(128);
  EXPECT_FALSE(s.Test(5));
  s.Set(5);
  EXPECT_TRUE(s.Test(5));
  EXPECT_EQ(s.Count(), 1u);
  s.Set(5);  // Idempotent.
  EXPECT_EQ(s.Count(), 1u);
  s.Clear(5);
  EXPECT_FALSE(s.Test(5));
  EXPECT_EQ(s.Count(), 0u);
}

TEST(PageSetTest, RangeOpsAndClamping) {
  PageSet s(100);
  s.SetRange(90, 50);  // Clamps at 100.
  EXPECT_EQ(s.Count(), 10u);
  EXPECT_TRUE(s.Test(99));
  s.ClearRange(95, 100);
  EXPECT_EQ(s.Count(), 5u);
}

TEST(PageSetTest, CountRange) {
  PageSet s(256);
  s.SetRange(10, 20);
  EXPECT_EQ(s.CountRange(0, 256), 20u);
  EXPECT_EQ(s.CountRange(15, 10), 10u);
  EXPECT_EQ(s.CountRange(0, 10), 0u);
}

TEST(PageSetTest, ForEachSetAscending) {
  PageSet s(200);
  s.Set(3);
  s.Set(64);
  s.Set(199);
  std::vector<uint64_t> seen;
  s.ForEachSet([&](uint64_t p) { seen.push_back(p); });
  EXPECT_EQ(seen, (std::vector<uint64_t>{3, 64, 199}));
}

TEST(PageSetTest, UnionWith) {
  PageSet a(128);
  PageSet b(128);
  a.SetRange(0, 10);
  b.SetRange(5, 10);
  a.UnionWith(b);
  EXPECT_EQ(a.Count(), 15u);
}

TEST(PageSetTest, GrowPreservesBits) {
  PageSet s(64);
  s.Set(63);
  s.Grow(1024);
  EXPECT_TRUE(s.Test(63));
  EXPECT_FALSE(s.Test(500));
  s.Set(1000);
  EXPECT_EQ(s.Count(), 2u);
}

TEST(PageSetTest, RangeMaskSelectsTheWordsShareOfARange) {
  EXPECT_EQ(PageSet::RangeMask(0, 0, 64), ~0ULL);
  EXPECT_EQ(PageSet::RangeMask(0, 3, 5), 0b11000ULL);
  EXPECT_EQ(PageSet::RangeMask(1, 60, 70), 0b111111ULL);
  EXPECT_EQ(PageSet::RangeMask(0, 60, 70), 0xFULL << 60);
  EXPECT_EQ(PageSet::RangeMask(2, 60, 70), 0u);
  EXPECT_EQ(PageSet::RangeMask(1, 70, 70), 0u);
}

// Word and range operations against a per-bit reference, on sizes whose last
// word is partial and with ranges that straddle word boundaries.
TEST(PageSetTest, WordAndRangeOpsMatchPerBitReference) {
  fwbase::Rng rng(7);
  for (const uint64_t size : {1u, 63u, 64u, 65u, 130u, 200u}) {
    PageSet s(size);
    std::vector<bool> ref(size, false);
    for (int op = 0; op < 400; ++op) {
      const uint64_t first = rng.UniformU64(size + 2);
      const uint64_t count = rng.UniformU64(size + 70);
      const size_t wi = rng.UniformU64(s.num_words());
      const uint64_t mask = rng.NextU64() & PageSet::RangeMask(wi, 0, size);
      switch (rng.UniformU64(6)) {
        case 0:
          s.SetRange(first, count);
          for (uint64_t p = first; p < first + count && p < size; ++p) {
            ref[p] = true;
          }
          break;
        case 1:
          s.ClearRange(first, count);
          for (uint64_t p = first; p < first + count && p < size; ++p) {
            ref[p] = false;
          }
          break;
        case 2:
          s.OrWord(wi, mask);
          for (uint64_t b = 0; b < 64; ++b) {
            if ((mask >> b) & 1) {
              ref[wi * 64 + b] = true;
            }
          }
          break;
        case 3:
          s.AndNotWord(wi, mask);
          for (uint64_t b = 0; b < 64; ++b) {
            if ((mask >> b) & 1) {
              ref[wi * 64 + b] = false;
            }
          }
          break;
        case 4:
          s.Set(first % size);
          ref[first % size] = true;
          break;
        default:
          s.Clear(first % size);
          ref[first % size] = false;
          break;
      }
      uint64_t total = 0;
      uint64_t in_range = 0;
      for (uint64_t p = 0; p < size; ++p) {
        ASSERT_EQ(s.Test(p), ref[p]) << "size " << size << " op " << op << " page " << p;
        ASSERT_EQ(((s.Word(p / 64) >> (p % 64)) & 1) != 0, ref[p]);
        total += ref[p] ? 1 : 0;
        in_range += (ref[p] && p >= first && p < first + count) ? 1 : 0;
      }
      ASSERT_EQ(s.Count(), total);
      ASSERT_EQ(s.CountRange(first, count), in_range);
    }
  }
}

// ---------------------------------------------------------------------------
// HostMemory.
// ---------------------------------------------------------------------------

TEST(HostMemoryTest, AllocFreeAccounting) {
  HostMemory host(1_GiB);
  host.AllocFrames(100);
  EXPECT_EQ(host.used_bytes(), 100 * kPageSize);
  host.FreeFrames(40);
  EXPECT_EQ(host.used_frames(), 60u);
  EXPECT_EQ(host.peak_used_bytes(), 100 * kPageSize);
  EXPECT_EQ(host.total_allocated_frames(), 100u);
  EXPECT_EQ(host.total_freed_frames(), 40u);
}

TEST(HostMemoryTest, SwapThreshold) {
  HostMemory host(100 * kPageSize, /*swap_start_fraction=*/0.6);
  host.AllocFrames(60);
  EXPECT_FALSE(host.swapping());
  host.AllocFrames(1);
  EXPECT_TRUE(host.swapping());
  EXPECT_EQ(host.swap_threshold_bytes(), 60 * kPageSize);
}

TEST(HostMemoryDeathTest, OverFreeAborts) {
  HostMemory host(1_GiB);
  host.AllocFrames(1);
  EXPECT_DEATH(host.FreeFrames(2), "freeing more frames");
}

// ---------------------------------------------------------------------------
// BackingStore.
// ---------------------------------------------------------------------------

TEST(BackingStoreTest, FirstTouchIsMajor) {
  HostMemory host(1_GiB);
  {
    BackingStore store(host, 10);
    EXPECT_TRUE(store.IncResident(0));
    EXPECT_EQ(host.used_frames(), 1u);
    EXPECT_FALSE(store.IncResident(0));  // Second mapper: minor.
    EXPECT_EQ(host.used_frames(), 1u);   // Still one frame.
    EXPECT_EQ(store.ResidentRefs(0), 2u);
    store.DecResident(0);
    EXPECT_EQ(host.used_frames(), 1u);
    store.DecResident(0);
    EXPECT_EQ(host.used_frames(), 0u);
  }
  EXPECT_EQ(host.used_frames(), 0u);
}

TEST(BackingStoreTest, DestructorReleasesResidentFrames) {
  HostMemory host(1_GiB);
  {
    BackingStore store(host, 10);
    store.IncResident(1);
    store.IncResident(2);
    EXPECT_EQ(host.used_frames(), 2u);
  }
  EXPECT_EQ(host.used_frames(), 0u);
}

// ---------------------------------------------------------------------------
// AddressSpace: fresh (cold-boot) spaces.
// ---------------------------------------------------------------------------

TEST(AddressSpaceTest, FreshSpaceTouchAllocatesPrivateFrames) {
  HostMemory host(1_GiB);
  AddressSpace space(host);
  const SegmentId seg = space.AddSegment("kernel", 16 * kPageSize);
  const FaultCounts fc = space.Touch(seg, 0, 16);
  EXPECT_EQ(fc.fresh_writes, 16u);
  EXPECT_EQ(space.uss_bytes(), 16 * kPageSize);
  EXPECT_EQ(space.rss_bytes(), 16 * kPageSize);
  EXPECT_DOUBLE_EQ(space.pss_bytes(), 16.0 * kPageSize);
  EXPECT_EQ(host.used_frames(), 16u);
}

TEST(AddressSpaceTest, RepeatAccessIsFree) {
  HostMemory host(1_GiB);
  AddressSpace space(host);
  const SegmentId seg = space.AddSegment("heap", 8 * kPageSize);
  space.Dirty(seg, 0, 8);
  const FaultCounts fc = space.Dirty(seg, 0, 8);
  EXPECT_EQ(fc.already_mapped, 8u);
  EXPECT_EQ(fc.Faults(), 0u);
  EXPECT_EQ(host.used_frames(), 8u);
}

TEST(AddressSpaceTest, UnmapReleasesEverything) {
  HostMemory host(1_GiB);
  auto space = std::make_unique<AddressSpace>(host);
  const SegmentId seg = space->AddSegment("heap", 32 * kPageSize);
  space->Dirty(seg, 0, 32);
  EXPECT_EQ(host.used_frames(), 32u);
  space.reset();
  EXPECT_EQ(host.used_frames(), 0u);
}

TEST(AddressSpaceTest, SegmentLookupByName) {
  HostMemory host(1_GiB);
  AddressSpace space(host);
  space.AddSegment("a", kPageSize);
  const SegmentId b = space.AddSegment("b", kPageSize);
  EXPECT_EQ(space.SegmentByName("b"), b);
  EXPECT_TRUE(space.HasSegment("a"));
  EXPECT_FALSE(space.HasSegment("zzz"));
}

TEST(AddressSpaceDeathTest, AccessBeyondSegmentAborts) {
  HostMemory host(1_GiB);
  AddressSpace space(host);
  const SegmentId seg = space.AddSegment("small", 4 * kPageSize);
  EXPECT_DEATH(space.Touch(seg, 0, 5), "beyond segment");
}

TEST(AddressSpaceDeathTest, AccessAfterUnmapAborts) {
  // Unmap is final: the destructor's Unmap would not free frames taken after
  // it, so every access path refuses an unmapped space.
  HostMemory host(1_GiB);
  AddressSpace space(host);
  const SegmentId seg = space.AddSegment("heap", 4 * kPageSize);
  space.Unmap();
  EXPECT_DEATH(space.Dirty(seg, 0, 1), "unmapped_");
  EXPECT_DEATH(space.DirtyRandomFraction(seg, 1.0, 1), "unmapped_");
  EXPECT_DEATH(space.TouchRandomFraction(seg, 0.5, 1), "unmapped_");
}

// ---------------------------------------------------------------------------
// Snapshot / restore: the CoW sharing paths of §3.3 and Fig. 4.
// ---------------------------------------------------------------------------

class SnapshotFixture : public ::testing::Test {
 protected:
  // Builds a "guest" with 64 OS pages + 32 runtime pages, snapshots it.
  void SetUp() override {
    source_ = std::make_unique<AddressSpace>(host_);
    os_ = source_->AddSegment("os", 64 * kPageSize);
    rt_ = source_->AddSegment("runtime", 32 * kPageSize);
    source_->Dirty(os_, 0, 64);
    source_->Dirty(rt_, 0, 32);
    image_ = source_->TakeSnapshot("post-boot");
    source_.reset();  // The source VM is torn down after snapshotting.
  }

  HostMemory host_{1_GiB};
  std::unique_ptr<AddressSpace> source_;
  SegmentId os_ = 0;
  SegmentId rt_ = 0;
  std::shared_ptr<SnapshotImage> image_;
};

TEST_F(SnapshotFixture, ImageRecordsValidPagesAndFileSize) {
  EXPECT_EQ(image_->valid_pages(), 96u);
  EXPECT_EQ(image_->file_bytes(), 96 * kPageSize);
  EXPECT_EQ(image_->segments().size(), 2u);
  EXPECT_EQ(host_.used_frames(), 0u);  // Nothing resident until a restore touches pages.
}

TEST_F(SnapshotFixture, FirstRestoreFaultsMajorSecondMinor) {
  AddressSpace vm1(host_, image_);
  const FaultCounts f1 = vm1.Touch(vm1.SegmentByName("os"), 0, 64);
  EXPECT_EQ(f1.major_faults, 64u);
  EXPECT_EQ(host_.used_frames(), 64u);

  AddressSpace vm2(host_, image_);
  const FaultCounts f2 = vm2.Touch(vm2.SegmentByName("os"), 0, 64);
  EXPECT_EQ(f2.minor_shared, 64u);
  EXPECT_EQ(f2.major_faults, 0u);
  // Shared pages charge one frame total.
  EXPECT_EQ(host_.used_frames(), 64u);
}

TEST_F(SnapshotFixture, PssSplitsSharedPagesEvenly) {
  AddressSpace vm1(host_, image_);
  AddressSpace vm2(host_, image_);
  vm1.Touch(0, 0, 64);
  vm2.Touch(0, 0, 64);
  EXPECT_DOUBLE_EQ(vm1.pss_bytes(), 32.0 * kPageSize);
  EXPECT_DOUBLE_EQ(vm2.pss_bytes(), 32.0 * kPageSize);
  EXPECT_EQ(vm1.rss_bytes(), 64 * kPageSize);
  EXPECT_EQ(vm1.uss_bytes(), 0u);
}

TEST_F(SnapshotFixture, CowOnWriteUnshares) {
  AddressSpace vm1(host_, image_);
  AddressSpace vm2(host_, image_);
  vm1.Touch(0, 0, 64);
  vm2.Touch(0, 0, 64);
  // vm1 writes 16 of its 64 shared pages.
  const FaultCounts fc = vm1.Dirty(0, 0, 16);
  EXPECT_EQ(fc.cow_copies, 16u);
  // 64 shared frames still resident (vm2 references all), plus 16 private.
  EXPECT_EQ(host_.used_frames(), 80u);
  EXPECT_EQ(vm1.uss_bytes(), 16 * kPageSize);
  // vm1: 16 private + 48 shared/2; vm2: 16 exclusive-shared + 48 shared/2.
  EXPECT_DOUBLE_EQ(vm1.pss_bytes(), (16 + 24) * static_cast<double>(kPageSize));
  EXPECT_DOUBLE_EQ(vm2.pss_bytes(), (16 + 24) * static_cast<double>(kPageSize));
}

TEST_F(SnapshotFixture, WriteToUnfaultedImagePageIsDirectCow) {
  AddressSpace vm(host_, image_);
  const FaultCounts fc = vm.Dirty(0, 0, 4);
  EXPECT_EQ(fc.cow_copies, 4u);
  EXPECT_EQ(vm.uss_bytes(), 4 * kPageSize);
  EXPECT_EQ(image_->backing().resident_pages(), 0u);
}

TEST_F(SnapshotFixture, ReadOfInvalidImagePageIsZeroFill) {
  AddressSpace vm(host_, image_);
  const SegmentId heap = vm.AddSegment("heap", 8 * kPageSize);
  const FaultCounts fc = vm.Touch(heap, 0, 8);
  EXPECT_EQ(fc.zero_fills, 8u);
  EXPECT_EQ(host_.used_frames(), 0u);             // Zero pages are free.
  EXPECT_EQ(vm.rss_bytes(), 8 * kPageSize);       // But count in RSS.
  const FaultCounts fw = vm.Dirty(heap, 0, 8);
  EXPECT_EQ(fw.fresh_writes, 8u);
  EXPECT_EQ(host_.used_frames(), 8u);
}

TEST_F(SnapshotFixture, UnmapOfRestoredVmReleasesSharedRefs) {
  auto vm1 = std::make_unique<AddressSpace>(host_, image_);
  auto vm2 = std::make_unique<AddressSpace>(host_, image_);
  vm1->Touch(0, 0, 64);
  vm2->Touch(0, 0, 64);
  vm1.reset();
  EXPECT_EQ(host_.used_frames(), 64u);  // vm2 keeps the cache warm.
  vm2.reset();
  EXPECT_EQ(host_.used_frames(), 0u);
}

TEST_F(SnapshotFixture, ResnapshotOfResumedVm) {
  // §6: periodically re-generating the snapshot (ASLR mitigation). A resumed
  // VM that dirtied pages can be re-snapshotted; the new image contains the
  // union of its resident and private pages.
  AddressSpace vm(host_, image_);
  vm.Touch(0, 0, 64);
  vm.Dirty(1, 0, 10);
  auto image2 = vm.TakeSnapshot("regen");
  EXPECT_EQ(image2->valid_pages(), 74u);
}

TEST_F(SnapshotFixture, PerSegmentStats) {
  AddressSpace vm(host_, image_);
  vm.Touch(0, 0, 64);
  vm.Dirty(1, 0, 8);
  const auto stats = vm.PerSegmentStats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "os");
  EXPECT_EQ(stats[0].resident_shared, 64u);
  EXPECT_EQ(stats[1].private_pages, 8u);
}

// ---------------------------------------------------------------------------
// DirtyRandomFraction: distinct sandboxes must dirty distinct subsets.
// ---------------------------------------------------------------------------

TEST_F(SnapshotFixture, RandomDirtySubsetsDifferBySalt) {
  AddressSpace vm1(host_, image_);
  AddressSpace vm2(host_, image_);
  const FaultCounts f1 = vm1.DirtyRandomFraction(0, 0.5, /*salt=*/111);
  const FaultCounts f2 = vm2.DirtyRandomFraction(0, 0.5, /*salt=*/222);
  // Roughly half the 64 pages each.
  EXPECT_GT(f1.NewPrivatePages(), 20u);
  EXPECT_LT(f1.NewPrivatePages(), 44u);
  EXPECT_GT(f2.NewPrivatePages(), 20u);
  EXPECT_LT(f2.NewPrivatePages(), 44u);
  // The same salt must reproduce the same subset.
  AddressSpace vm3(host_, image_);
  const FaultCounts f3 = vm3.DirtyRandomFraction(0, 0.5, /*salt=*/111);
  EXPECT_EQ(f3.NewPrivatePages(), f1.NewPrivatePages());
}

TEST(AddressSpaceTest, FractionZeroAndOne) {
  HostMemory host(1_GiB);
  AddressSpace space(host);
  const SegmentId seg = space.AddSegment("s", 32 * kPageSize);
  EXPECT_EQ(space.DirtyRandomFraction(seg, 0.0, 1).NewPrivatePages(), 0u);
  EXPECT_EQ(space.DirtyRandomFraction(seg, 1.0, 1).NewPrivatePages(), 32u);
}

// ---------------------------------------------------------------------------
// Property sweep: for any mix of sharers, the host frame count equals
// (#resident image pages) + (sum of private pages), and PSS sums to it.
// ---------------------------------------------------------------------------

class PssConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(PssConservationTest, PssSumsToHostFrames) {
  const int num_vms = GetParam();
  HostMemory host(4_GiB);
  std::shared_ptr<SnapshotImage> image;
  {
    AddressSpace src(host);
    const SegmentId seg = src.AddSegment("all", 256 * kPageSize);
    src.Dirty(seg, 0, 256);
    image = src.TakeSnapshot("img");
  }
  std::vector<std::unique_ptr<AddressSpace>> vms;
  for (int i = 0; i < num_vms; ++i) {
    vms.push_back(std::make_unique<AddressSpace>(host, image));
    // Each VM touches a random ~75% and dirties a random ~25%.
    vms.back()->TouchRandomFraction(0, 0.75, /*salt=*/1000 + i);
    vms.back()->DirtyRandomFraction(0, 0.25, /*salt=*/2000 + i);
  }
  double pss_sum = 0.0;
  uint64_t private_sum = 0;
  for (const auto& vm : vms) {
    pss_sum += vm->pss_bytes();
    private_sum += vm->private_pages();
  }
  const uint64_t expect_frames = image->backing().resident_pages() + private_sum;
  EXPECT_EQ(host.used_frames(), expect_frames);
  EXPECT_NEAR(pss_sum, static_cast<double>(host.used_bytes()), 1.0);
}

INSTANTIATE_TEST_SUITE_P(VmCounts, PssConservationTest, ::testing::Values(1, 2, 3, 5, 8, 16));

// ---------------------------------------------------------------------------
// Differential test: AddressSpace walks 64 pages a word at a time; this
// reference model is the page-by-page state machine it must reproduce, with
// its own per-page refcounts and frame counters.
// ---------------------------------------------------------------------------

struct RefHost {
  uint64_t used = 0;
  uint64_t peak = 0;
  uint64_t allocated = 0;
  uint64_t freed = 0;

  void Alloc() {
    ++used;
    ++allocated;
    peak = std::max(peak, used);
  }
  void Free() {
    --used;
    ++freed;
  }
};

// The image's page-cache refcounts, shared by every reference clone.
struct RefImage {
  std::vector<bool> valid;
  std::vector<uint32_t> refs;
};

uint64_t RefThreshold(double fraction) {
  if (fraction >= 1.0) {
    return UINT64_MAX;
  }
  return static_cast<uint64_t>(fraction * 18446744073709551616.0);
}

uint64_t RefMixPage(uint64_t salt, uint64_t page) {
  uint64_t z = salt ^ (page * 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class RefSpace {
 public:
  enum class State : uint8_t { kAbsent, kShared, kPrivate, kZero };

  // A restored space starts with the image's layout; a fresh one is empty.
  RefSpace(RefHost& host, RefImage* image, const std::vector<SegmentLayout>& layout)
      : host_(host), image_(image) {
    for (const auto& seg : layout) {
      AddSegment(seg.pages);
    }
  }

  void AddSegment(uint64_t pages) {
    bases_.push_back(state_.size());
    sizes_.push_back(pages);
    Grow(state_.size() + pages);
  }

  FaultCounts Access(size_t seg, uint64_t first, uint64_t count, bool write) {
    FaultCounts out;
    for (uint64_t i = first; i < first + count; ++i) {
      AccessPage(bases_[seg] + i, write, out);
    }
    return out;
  }

  FaultCounts AccessFraction(size_t seg, double fraction, uint64_t salt, bool write) {
    FaultCounts out;
    const uint64_t threshold = RefThreshold(fraction);
    for (uint64_t i = 0; i < sizes_[seg]; ++i) {
      const uint64_t page = bases_[seg] + i;
      if (fraction >= 1.0 || RefMixPage(salt, page) < threshold) {
        AccessPage(page, write, out);
      }
    }
    return out;
  }

  void Unmap() {
    for (uint64_t p = 0; p < state_.size(); ++p) {
      if (state_[p] == State::kShared) {
        Unref(p);
      } else if (state_[p] == State::kPrivate) {
        host_.Free();
      }
      state_[p] = State::kAbsent;
    }
  }

  uint64_t CountIn(State s) const {
    return static_cast<uint64_t>(std::count(state_.begin(), state_.end(), s));
  }
  uint64_t rss_bytes() const {
    return (state_.size() - CountIn(State::kAbsent)) * kPageSize;
  }
  uint64_t uss_bytes() const { return CountIn(State::kPrivate) * kPageSize; }
  double pss_bytes() const {
    double pages = static_cast<double>(CountIn(State::kPrivate));
    for (uint64_t p = 0; p < state_.size(); ++p) {
      if (state_[p] == State::kShared) {
        pages += 1.0 / static_cast<double>(image_->refs[p]);
      }
    }
    return pages * static_cast<double>(kPageSize);
  }
  const std::vector<bool>& touched() const { return touched_; }
  // The pages a snapshot of this space stores: resident and private ones.
  std::vector<bool> WithContent() const {
    std::vector<bool> out(state_.size());
    for (uint64_t p = 0; p < state_.size(); ++p) {
      out[p] = state_[p] == State::kShared || state_[p] == State::kPrivate;
    }
    return out;
  }
  size_t num_segments() const { return sizes_.size(); }
  uint64_t segment_pages(size_t seg) const { return sizes_[seg]; }

 private:
  void Grow(uint64_t pages) {
    state_.resize(pages, State::kAbsent);
    touched_.resize(pages, false);
  }
  bool ImageValid(uint64_t page) const {
    return image_ != nullptr && page < image_->valid.size() && image_->valid[page];
  }
  void Unref(uint64_t page) {
    if (--image_->refs[page] == 0) {
      host_.Free();
    }
  }
  void MakePrivate(uint64_t page) {
    host_.Alloc();
    state_[page] = State::kPrivate;
  }

  // The pre-word-walk AddressSpace::AccessPage, page by page.
  void AccessPage(uint64_t page, bool write, FaultCounts& out) {
    State& st = state_[page];
    if (st == State::kPrivate) {
      ++out.already_mapped;
      return;
    }
    if (!write) {
      if (st != State::kAbsent) {
        ++out.already_mapped;
      } else if (ImageValid(page)) {
        if (image_->refs[page]++ == 0) {
          host_.Alloc();
          ++out.major_faults;
        } else {
          ++out.minor_shared;
        }
        st = State::kShared;
        touched_[page] = true;
      } else if (image_ == nullptr) {
        MakePrivate(page);
        ++out.fresh_writes;
      } else {
        st = State::kZero;
        ++out.zero_fills;
      }
      return;
    }
    if (st == State::kShared) {
      Unref(page);
      MakePrivate(page);
      ++out.cow_copies;
    } else if (st == State::kZero || !ImageValid(page)) {
      MakePrivate(page);
      ++out.fresh_writes;
    } else {
      MakePrivate(page);
      touched_[page] = true;
      ++out.cow_copies;
    }
  }

  RefHost& host_;
  RefImage* image_;
  std::vector<uint64_t> bases_;
  std::vector<uint64_t> sizes_;
  std::vector<State> state_;
  std::vector<bool> touched_;
};

void ExpectSameCounts(const FaultCounts& got, const FaultCounts& want) {
  EXPECT_EQ(got.major_faults, want.major_faults);
  EXPECT_EQ(got.minor_shared, want.minor_shared);
  EXPECT_EQ(got.zero_fills, want.zero_fills);
  EXPECT_EQ(got.cow_copies, want.cow_copies);
  EXPECT_EQ(got.fresh_writes, want.fresh_writes);
  EXPECT_EQ(got.already_mapped, want.already_mapped);
}

// One live space and its reference twin.
struct Twin {
  std::unique_ptr<AddressSpace> space;
  std::unique_ptr<RefSpace> ref;
};

class WordWalkDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr uint64_t kSegmentPages[] = {1, 63, 64, 65, 130};
  static constexpr double kFractions[] = {0.0, 0.02, 0.5, 1.0};

  // One random access on `t`, applied to both sides.
  void RandomAccess(Twin& t) {
    const size_t seg = rng_.UniformU64(t.ref->num_segments());
    const uint64_t pages = t.ref->segment_pages(seg);
    const bool write = rng_.Chance(0.5);
    const auto sid = static_cast<SegmentId>(seg);
    FaultCounts got;
    FaultCounts want;
    if (rng_.Chance(0.5)) {
      const uint64_t first = rng_.UniformU64(pages + 1);
      const uint64_t count = rng_.UniformU64(pages - first + 1);
      got = write ? t.space->Dirty(sid, first, count) : t.space->Touch(sid, first, count);
      want = t.ref->Access(seg, first, count, write);
    } else {
      const double fraction = kFractions[rng_.UniformU64(4)];
      const uint64_t salt = rng_.UniformU64(4);  // Repeats, so selections overlap.
      got = write ? t.space->DirtyRandomFraction(sid, fraction, salt)
                  : t.space->TouchRandomFraction(sid, fraction, salt);
      want = t.ref->AccessFraction(seg, fraction, salt, write);
    }
    ExpectSameCounts(got, want);
  }

  void ExpectSameState(const std::vector<Twin*>& live) {
    for (const Twin* t : live) {
      EXPECT_EQ(t->space->rss_bytes(), t->ref->rss_bytes());
      EXPECT_EQ(t->space->uss_bytes(), t->ref->uss_bytes());
      EXPECT_EQ(t->space->pss_bytes(), t->ref->pss_bytes());
      const PageSet& touched = t->space->image_touched();
      ASSERT_EQ(touched.size(), t->ref->touched().size());
      for (uint64_t p = 0; p < touched.size(); ++p) {
        ASSERT_EQ(touched.Test(p), t->ref->touched()[p]) << "page " << p;
      }
    }
    if (image_ != nullptr) {
      for (uint64_t p = 0; p < ref_image_.refs.size(); ++p) {
        ASSERT_EQ(image_->backing().ResidentRefs(p), ref_image_.refs[p]) << "page " << p;
      }
    }
    EXPECT_EQ(host_.used_frames(), ref_host_.used);
    EXPECT_EQ(host_.peak_used_bytes(), ref_host_.peak * kPageSize);
    EXPECT_EQ(host_.total_allocated_frames(), ref_host_.allocated);
    EXPECT_EQ(host_.total_freed_frames(), ref_host_.freed);
  }

  Twin MakeFresh() {
    Twin t{std::make_unique<AddressSpace>(host_),
           std::make_unique<RefSpace>(ref_host_, nullptr, std::vector<SegmentLayout>{})};
    for (const uint64_t pages : kSegmentPages) {
      t.space->AddSegment("s" + std::to_string(pages), pages * kPageSize);
      t.ref->AddSegment(pages);
    }
    return t;
  }

  Twin MakeClone() {
    Twin t{std::make_unique<AddressSpace>(host_, image_),
           std::make_unique<RefSpace>(ref_host_, &ref_image_, image_->segments())};
    // A segment added after restore lies past the image's end.
    t.space->AddSegment("late", 65 * kPageSize);
    t.ref->AddSegment(65);
    return t;
  }

  fwbase::Rng rng_{GetParam()};
  HostMemory host_{1_GiB};
  RefHost ref_host_;
  std::shared_ptr<SnapshotImage> image_;
  RefImage ref_image_;
};

TEST_P(WordWalkDifferentialTest, FreshSpaceMatchesPageByPageModel) {
  Twin t = MakeFresh();
  for (int op = 0; op < 150; ++op) {
    RandomAccess(t);
    ExpectSameState({&t});
    ASSERT_FALSE(HasFailure()) << "seed " << GetParam() << " op " << op;
  }
  t.space->Unmap();
  t.ref->Unmap();
  ExpectSameState({});
}

TEST_P(WordWalkDifferentialTest, TwoClonesOfOneImageMatchPageByPageModel) {
  {
    // The source maps only part of its pages, so the image has holes that
    // clones read as zero pages.
    Twin src = MakeFresh();
    for (int op = 0; op < 6; ++op) {
      RandomAccess(src);
    }
    ExpectSameState({&src});
    image_ = src.space->TakeSnapshot("img");
    ref_image_.valid = src.ref->WithContent();
    ref_image_.refs.assign(ref_image_.valid.size(), 0);
    ASSERT_EQ(image_->total_pages(), ref_image_.valid.size());
    for (uint64_t p = 0; p < image_->total_pages(); ++p) {
      ASSERT_EQ(((image_->ValidWord(p / 64) >> (p % 64)) & 1) != 0, ref_image_.valid[p]);
    }
    src.space.reset();
    src.ref->Unmap();
  }
  Twin a = MakeClone();
  Twin b = MakeClone();
  ExpectSameState({&a, &b});
  for (int op = 0; op < 300; ++op) {
    if (op == 250) {
      a.space->Unmap();
      a.ref->Unmap();
    }
    Twin& t = (op >= 250 || rng_.Chance(0.5)) ? b : a;
    RandomAccess(t);
    if (op >= 250) {
      ExpectSameState({&b});
    } else {
      ExpectSameState({&a, &b});
    }
    ASSERT_FALSE(HasFailure()) << "seed " << GetParam() << " op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WordWalkDifferentialTest, ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace fwmem
