// Unit and property tests for derived datatypes.

#include "src/mpisim/datatype.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/mpisim/error.hpp"

namespace mpisim {
namespace {

TEST(DatatypeTest, BasicDouble) {
  Datatype t = double_type();
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.extent(), 8);
  EXPECT_TRUE(t.contiguous_layout());
  EXPECT_EQ(t.segment_count(), 1u);
  EXPECT_EQ(t.element_type(), BasicType::float64);
}

TEST(DatatypeTest, ContiguousCollapses) {
  Datatype t = Datatype::contiguous(10, double_type());
  EXPECT_EQ(t.size(), 80u);
  EXPECT_EQ(t.extent(), 80);
  EXPECT_TRUE(t.contiguous_layout());
  EXPECT_EQ(t.segment_count(), 1u);
}

TEST(DatatypeTest, VectorLayout) {
  // 3 blocks of 2 doubles, stride 4 doubles: |XX..|XX..|XX|
  Datatype t = Datatype::vector(3, 2, 4, double_type());
  EXPECT_EQ(t.size(), 48u);
  EXPECT_EQ(t.extent(), 2 * 4 * 8 + 2 * 8);
  EXPECT_FALSE(t.contiguous_layout());
  EXPECT_EQ(t.segment_count(), 3u);

  std::vector<Segment> segs = t.flatten(1);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].offset, 0);
  EXPECT_EQ(segs[0].length, 16u);
  EXPECT_EQ(segs[1].offset, 32);
  EXPECT_EQ(segs[2].offset, 64);
}

TEST(DatatypeTest, VectorWithPackedStrideIsContiguous) {
  Datatype t = Datatype::vector(4, 3, 3, double_type());
  EXPECT_TRUE(t.contiguous_layout());
  EXPECT_EQ(t.segment_count(), 1u);
  EXPECT_EQ(t.size(), 96u);
}

TEST(DatatypeTest, IndexedLayout) {
  std::vector<std::size_t> bl{2, 1, 3};
  std::vector<std::ptrdiff_t> disp{0, 4, 8};  // in elements
  Datatype t = Datatype::indexed(bl, disp, int32_type());
  EXPECT_EQ(t.size(), 6u * 4u);
  EXPECT_EQ(t.extent(), 11 * 4);
  EXPECT_EQ(t.segment_count(), 3u);
  std::vector<Segment> segs = t.flatten(1);
  EXPECT_EQ(segs[1].offset, 16);
  EXPECT_EQ(segs[1].length, 4u);
  EXPECT_EQ(segs[2].offset, 32);
  EXPECT_EQ(segs[2].length, 12u);
}

TEST(DatatypeTest, HindexedByteDisplacements) {
  std::vector<std::size_t> bl{1, 1};
  std::vector<std::ptrdiff_t> disp{3, 11};
  Datatype t = Datatype::hindexed(bl, disp, byte_type());
  std::vector<Segment> segs = t.flatten(1);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].offset, 3);
  EXPECT_EQ(segs[1].offset, 11);
  EXPECT_EQ(t.extent(), 12);
}

TEST(DatatypeTest, PackUnpackRoundTripVector) {
  Datatype t = Datatype::vector(4, 2, 5, double_type());
  std::vector<double> src(32);
  std::iota(src.begin(), src.end(), 0.0);
  std::vector<double> packed(t.size() / 8);
  t.pack(src.data(), 1, packed.data());
  EXPECT_DOUBLE_EQ(packed[0], 0.0);
  EXPECT_DOUBLE_EQ(packed[1], 1.0);
  EXPECT_DOUBLE_EQ(packed[2], 5.0);
  EXPECT_DOUBLE_EQ(packed[3], 6.0);

  std::vector<double> dst(32, -1.0);
  t.unpack(packed.data(), dst.data(), 1);
  for (std::size_t i = 0; i < 32; ++i) {
    const bool in_block = (i % 5) < 2 && i < 17;
    if (in_block) {
      EXPECT_DOUBLE_EQ(dst[i], static_cast<double>(i)) << i;
    }
    else
      EXPECT_DOUBLE_EQ(dst[i], -1.0) << i;
  }
}

TEST(DatatypeTest, SubarrayMatchesManualIndexing) {
  // 2D array 6x8 doubles, patch 3x4 at (2, 3), C order.
  const std::size_t sizes[] = {6, 8};
  const std::size_t subsizes[] = {3, 4};
  const std::size_t starts[] = {2, 3};
  Datatype t = Datatype::subarray(sizes, subsizes, starts, double_type());
  EXPECT_EQ(t.size(), 3u * 4u * 8u);
  EXPECT_EQ(t.segment_count(), 3u);

  std::vector<double> arr(48);
  std::iota(arr.begin(), arr.end(), 0.0);
  std::vector<double> packed(12);
  t.pack(arr.data(), 1, packed.data());
  std::size_t k = 0;
  for (std::size_t i = 2; i < 5; ++i)
    for (std::size_t j = 3; j < 7; ++j)
      EXPECT_DOUBLE_EQ(packed[k++], arr[i * 8 + j]);
}

TEST(DatatypeTest, Subarray3D) {
  const std::size_t sizes[] = {4, 5, 6};
  const std::size_t subsizes[] = {2, 3, 2};
  const std::size_t starts[] = {1, 1, 3};
  Datatype t = Datatype::subarray(sizes, subsizes, starts, int32_type());
  EXPECT_EQ(t.size(), 2u * 3u * 2u * 4u);
  EXPECT_EQ(t.segment_count(), 6u);

  std::vector<std::int32_t> arr(120);
  std::iota(arr.begin(), arr.end(), 0);
  std::vector<std::int32_t> packed(12);
  t.pack(arr.data(), 1, packed.data());
  std::size_t k = 0;
  for (std::size_t i = 1; i < 3; ++i)
    for (std::size_t j = 1; j < 4; ++j)
      for (std::size_t l = 3; l < 5; ++l)
        EXPECT_EQ(packed[k++], arr[i * 30 + j * 6 + l]);
}

TEST(DatatypeTest, SubarrayFullArrayIsContiguous) {
  const std::size_t sizes[] = {4, 6};
  const std::size_t subsizes[] = {4, 6};
  const std::size_t starts[] = {0, 0};
  Datatype t = Datatype::subarray(sizes, subsizes, starts, double_type());
  EXPECT_TRUE(t.contiguous_layout());
  EXPECT_EQ(t.size(), 24u * 8u);
}

TEST(DatatypeTest, SubarrayOutOfBoundsThrows) {
  const std::size_t sizes[] = {4, 4};
  const std::size_t subsizes[] = {2, 3};
  const std::size_t starts[] = {3, 0};
  EXPECT_THROW(Datatype::subarray(sizes, subsizes, starts, double_type()),
               MpiError);
}

TEST(DatatypeTest, MultipleInstancesAdvanceByExtent) {
  Datatype t = Datatype::vector(2, 1, 2, double_type());
  // extent = (2-1)*16 + 8 = 24 bytes; instance 1 starts at 24, and its
  // first block [24, 32) merges with instance 0's trailing block [16, 24).
  EXPECT_EQ(t.extent(), 24);
  std::vector<Segment> segs = t.flatten(2);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].offset, 0);
  EXPECT_EQ(segs[0].length, 8u);
  EXPECT_EQ(segs[1].offset, 16);
  EXPECT_EQ(segs[1].length, 16u);
  EXPECT_EQ(segs[2].offset, 40);
  EXPECT_EQ(segs[2].length, 8u);
}

TEST(DatatypeTest, NestedVectorOfVector) {
  Datatype inner = Datatype::vector(2, 1, 3, double_type());  // 2 segs
  Datatype outer = Datatype::hvector(3, 1, 64, inner);
  EXPECT_EQ(outer.segment_count(), 6u);
  EXPECT_EQ(outer.size(), 3u * 2u * 8u);
}

TEST(DatatypeTest, ZeroCountThrows) {
  EXPECT_THROW(Datatype::contiguous(0, double_type()), MpiError);
  EXPECT_THROW(Datatype::vector(1, 0, 1, double_type()), MpiError);
}

TEST(DatatypeTest, IndexedMismatchedSpansThrow) {
  std::vector<std::size_t> bl{1, 2};
  std::vector<std::ptrdiff_t> disp{0};
  EXPECT_THROW(Datatype::indexed(bl, disp, byte_type()), MpiError);
}

// Property: for any subarray, flattened segments are disjoint, ordered,
// and their total length equals size().
class SubarrayPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(SubarrayPropertyTest, SegmentsDisjointAndComplete) {
  auto [rows, cols, sr, sc] = GetParam();
  const std::size_t sizes[] = {static_cast<std::size_t>(rows),
                               static_cast<std::size_t>(cols)};
  const std::size_t subsizes[] = {static_cast<std::size_t>(rows - sr),
                                  static_cast<std::size_t>(cols - sc)};
  const std::size_t starts[] = {static_cast<std::size_t>(sr),
                                static_cast<std::size_t>(sc)};
  Datatype t = Datatype::subarray(sizes, subsizes, starts, double_type());

  std::vector<Segment> segs = t.flatten(1);
  std::size_t total = 0;
  std::ptrdiff_t prev_end = -1;
  for (const Segment& s : segs) {
    EXPECT_GT(s.offset, prev_end);
    prev_end = s.offset + static_cast<std::ptrdiff_t>(s.length) - 1;
    total += s.length;
  }
  EXPECT_EQ(total, t.size());
  EXPECT_LE(prev_end, t.extent() - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SubarrayPropertyTest,
    ::testing::Combine(::testing::Values(3, 8, 17), ::testing::Values(4, 9),
                       ::testing::Values(0, 1, 2), ::testing::Values(0, 1, 3)));

TEST(DatatypeTest, BasicTypesAreSharedHandles) {
  EXPECT_EQ(&byte_type(), &Datatype::basic(BasicType::byte_));
  EXPECT_EQ(&double_type(), &Datatype::basic(BasicType::float64));
  EXPECT_EQ(Datatype::basic(BasicType::uint64).size(), 8u);
  EXPECT_EQ(Datatype::basic(BasicType::float32).element_type(),
            BasicType::float32);
}

// A contiguous N-byte transfer is one run, not N per-element calls.
TEST(DatatypeTest, ContiguousTypesMakeOneCallback) {
  const std::size_t kBytes = 65536;
  for (const auto& [t, count] :
       {std::pair{Datatype::contiguous(kBytes, byte_type()), std::size_t{1}},
        std::pair{byte_type(), kBytes}}) {
    std::vector<Segment> seen;
    t.for_each_segment(count, [&](Segment s) { seen.push_back(s); });
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].offset, 0);
    EXPECT_EQ(seen[0].length, kBytes);
  }
}

// Blocks of a contiguous child that touch form one segment, so an indexed
// type whose blocks tile [0, size()) is contiguous.
TEST(DatatypeTest, TouchingIndexedBlocksAreOneSegment) {
  std::vector<std::size_t> bl{2, 2};
  std::vector<std::ptrdiff_t> disp{0, 2};
  Datatype t = Datatype::indexed(bl, disp, double_type());
  EXPECT_TRUE(t.contiguous_layout());
  EXPECT_EQ(t.segment_count(), 1u);
  std::vector<Segment> segs = t.flatten(1);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].offset, 0);
  EXPECT_EQ(segs[0].length, 32u);

  // Touching blocks after a gap merge with each other, not across the gap.
  std::vector<std::size_t> bl2{1, 2, 1};
  std::vector<std::ptrdiff_t> disp2{0, 3, 5};
  Datatype u = Datatype::indexed(bl2, disp2, int32_type());
  EXPECT_FALSE(u.contiguous_layout());
  EXPECT_EQ(u.segment_count(), 2u);
  EXPECT_EQ(u.flatten(1).size(), 2u);
}

// Over a noncontiguous child, segment_count() is an upper bound: runs that
// meet across child instances merge in flatten() but are counted apart.
TEST(DatatypeTest, SegmentCountBoundsNoncontiguousChildren) {
  Datatype t = Datatype::contiguous(2, Datatype::vector(2, 1, 2, double_type()));
  EXPECT_FALSE(t.contiguous_layout());
  EXPECT_EQ(t.segment_count(), 4u);
  std::vector<Segment> segs = t.flatten(1);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[1].offset, 16);
  EXPECT_EQ(segs[1].length, 16u);
}

// Property: for a table of layouts and counts 1-4, flatten() covers the
// same bytes in the same order as an element-by-element reference walk,
// with touching elements merged; pack() gathers exactly those bytes and
// unpack() scatters them back, touching nothing else.
struct LayoutCase {
  const char* name;
  Datatype type;
  std::vector<std::ptrdiff_t> elems;  // element byte offsets, one instance
};

std::vector<std::ptrdiff_t> elem_offsets(std::size_t esz,
                                         std::vector<std::ptrdiff_t> idx) {
  for (auto& i : idx) i *= static_cast<std::ptrdiff_t>(esz);
  return idx;
}

std::vector<LayoutCase> layout_cases() {
  std::vector<LayoutCase> out;
  out.push_back({"basic", double_type(), {0}});
  out.push_back({"contiguous", Datatype::contiguous(5, int32_type()),
                 elem_offsets(4, {0, 1, 2, 3, 4})});
  out.push_back({"vector", Datatype::vector(3, 2, 4, double_type()),
                 elem_offsets(8, {0, 1, 4, 5, 8, 9})});
  out.push_back({"packed_vector", Datatype::vector(2, 3, 3, int32_type()),
                 elem_offsets(4, {0, 1, 2, 3, 4, 5})});
  {
    std::vector<std::size_t> bl{2, 1, 3};
    std::vector<std::ptrdiff_t> d{0, 4, 8};
    out.push_back({"indexed", Datatype::indexed(bl, d, int32_type()),
                   elem_offsets(4, {0, 1, 4, 8, 9, 10})});
  }
  {
    std::vector<std::size_t> bl{1, 2, 1};
    std::vector<std::ptrdiff_t> d{0, 3, 5};
    out.push_back({"indexed_touching", Datatype::indexed(bl, d, double_type()),
                   elem_offsets(8, {0, 3, 4, 5})});
  }
  {
    std::vector<std::size_t> bl{1, 1};
    std::vector<std::ptrdiff_t> d{11, 3};
    out.push_back({"hindexed_descending", Datatype::hindexed(bl, d, byte_type()),
                   {11, 3}});
  }
  {
    const std::size_t sizes[] = {4, 3}, sub[] = {2, 3}, st[] = {1, 0};
    out.push_back({"subarray_full_rows",
                   Datatype::subarray(sizes, sub, st, double_type()),
                   elem_offsets(8, {3, 4, 5, 6, 7, 8})});
  }
  {
    const std::size_t sizes[] = {4, 5}, sub[] = {2, 2}, st[] = {1, 2};
    out.push_back({"subarray_partial_rows",
                   Datatype::subarray(sizes, sub, st, int32_type()),
                   elem_offsets(4, {7, 8, 12, 13})});
  }
  out.push_back({"vector_of_vector",
                 Datatype::hvector(3, 1, 64, Datatype::vector(2, 1, 3, double_type())),
                 {0, 24, 64, 88, 128, 152}});
  out.push_back({"contiguous_of_vector",
                 Datatype::contiguous(2, Datatype::vector(2, 1, 2, double_type())),
                 {0, 16, 24, 40}});
  return out;
}

TEST(DatatypeTest, FlattenPackUnpackMatchElementWalk) {
  for (const LayoutCase& c : layout_cases()) {
    const Datatype& t = c.type;
    const std::size_t esz = basic_type_size(t.element_type());
    ASSERT_EQ(c.elems.size() * esz, t.size()) << c.name;
    EXPECT_LE(t.flatten(1).size(), t.segment_count()) << c.name;
    for (std::size_t count = 1; count <= 4; ++count) {
      SCOPED_TRACE(std::string(c.name) + " x" + std::to_string(count));
      std::vector<Segment> ref;
      for (std::size_t i = 0; i < count; ++i) {
        for (std::ptrdiff_t e : c.elems) {
          const std::ptrdiff_t at = static_cast<std::ptrdiff_t>(i) * t.extent() + e;
          if (!ref.empty() &&
              ref.back().offset + static_cast<std::ptrdiff_t>(ref.back().length) == at)
            ref.back().length += esz;
          else
            ref.push_back({at, esz});
        }
      }
      const std::vector<Segment> segs = t.flatten(count);
      ASSERT_EQ(segs.size(), ref.size());
      for (std::size_t k = 0; k < ref.size(); ++k) {
        EXPECT_EQ(segs[k].offset, ref[k].offset) << k;
        EXPECT_EQ(segs[k].length, ref[k].length) << k;
      }

      const std::size_t span = count * static_cast<std::size_t>(t.extent());
      std::vector<std::uint8_t> src(span);
      std::iota(src.begin(), src.end(), std::uint8_t{1});
      std::vector<std::uint8_t> packed(count * t.size());
      t.pack(src.data(), count, packed.data());
      std::vector<std::uint8_t> want;
      for (const Segment& s : ref)
        want.insert(want.end(), src.begin() + s.offset,
                    src.begin() + s.offset + static_cast<std::ptrdiff_t>(s.length));
      EXPECT_EQ(packed, want);

      std::vector<std::uint8_t> back(span, 0);
      t.unpack(packed.data(), back.data(), count);
      std::vector<std::uint8_t> expect(span, 0);
      for (const Segment& s : ref)
        std::copy_n(src.begin() + s.offset, s.length, expect.begin() + s.offset);
      EXPECT_EQ(back, expect);
    }
  }
}

}  // namespace
}  // namespace mpisim
