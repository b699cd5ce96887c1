// Unit tests for the shared chunk/ring layout arithmetic.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/layout.hpp"

namespace gpupipe::core::layout {
namespace {

TEST(Layout, RoundUp) {
  EXPECT_EQ(round_up<std::int64_t>(0, 8), 0);
  EXPECT_EQ(round_up<std::int64_t>(1, 8), 8);
  EXPECT_EQ(round_up<std::int64_t>(8, 8), 8);
  EXPECT_EQ(round_up<std::int64_t>(9, 8), 16);
  EXPECT_EQ(round_up<Bytes>(513, 512), 1024);
  EXPECT_EQ(round_up<std::int64_t>(7, 1), 7);
}

TEST(Layout, UnitBytes) {
  ArraySpec slab{"a", MapType::To, nullptr, 8, {10, 20, 30}, SplitSpec{0, Affine{1, 0}, 1}};
  EXPECT_EQ(unit_bytes(slab), 20 * 30 * 8);  // one outermost slab
  ArraySpec cols{"b", MapType::To, nullptr, 4, {10, 20}, SplitSpec{1, Affine{1, 0}, 1}};
  EXPECT_EQ(unit_bytes(cols), 10 * 4);  // one column
}

TEST(Layout, Halo) {
  EXPECT_EQ(halo(1, 1), 0);  // window == stride: no overhang
  EXPECT_EQ(halo(3, 1), 2);  // stencil [k-1:3]
  EXPECT_EQ(halo(3, 4), 0);  // window inside the stride
}

TEST(Layout, RingLenAffine) {
  // No halo: one stride per in-flight stream.
  EXPECT_EQ(ring_len_affine(1, 1, 4, 2), 8);
  // Halo rounds up to whole strides so a chunk's window never wraps
  // mid-chunk.
  EXPECT_EQ(ring_len_affine(1, 3, 1, 2), 4);   // stride 1, halo 2
  EXPECT_EQ(ring_len_affine(1, 3, 4, 2), 12);  // stride 4, halo 2 -> one stride
  EXPECT_EQ(ring_len_affine(2, 2, 3, 1), 6);   // scale 2: stride 6, no halo
}

TEST(Layout, WindowOfCoversTheChunkRange) {
  ArraySpec a{"a", MapType::To, nullptr, 8, {32, 4}, SplitSpec{0, Affine{1, -1}, 3}};
  const auto [lo, hi] = window_of(a, 1, 5);  // iterations 1..4
  EXPECT_EQ(lo, 0);                          // 1 - 1
  EXPECT_EQ(hi, 6);                          // (4 - 1) + 3
}

TEST(Layout, RingLenForSpecMatchesAffineFormula) {
  ArraySpec a{"a", MapType::To, nullptr, 8, {64, 4}, SplitSpec{0, Affine{1, -1}, 3}};
  EXPECT_EQ(ring_len_for_spec(a, 1, 63, 4, 2), ring_len_affine(1, 3, 4, 2));
}

TEST(Layout, RingLenForSpecScansWindowFunctions) {
  // Rows 2k..2k+2 per iteration: windows overlap by one row.
  ArraySpec a{"a", MapType::To, nullptr, 8, {64, 4},
              SplitSpec{0, {}, 1, [](std::int64_t k) {
                          return std::pair<std::int64_t, std::int64_t>{2 * k, 2 * k + 3};
                        }}};
  // Two in-flight chunks of 4 iterations: [2i, 2i+3) for i in [lo, lo+8).
  const std::int64_t need = ring_len_for_spec(a, 0, 16, 4, 2);
  EXPECT_EQ(need, 2 * 7 + 3 - 0);  // window of iters [0,8): rows [0,17)
}

TEST(Layout, RingLenForSpecRejectsBadWindowFunctions) {
  ArraySpec outside{"a", MapType::To, nullptr, 8, {8, 4},
                    SplitSpec{0, {}, 1, [](std::int64_t k) {
                                return std::pair<std::int64_t, std::int64_t>{k, k + 9};
                              }}};
  EXPECT_THROW(ring_len_for_spec(outside, 0, 4, 1, 1), Error);

  ArraySpec decreasing{"a", MapType::To, nullptr, 8, {32, 4},
                       SplitSpec{0, {}, 1, [](std::int64_t k) {
                                   return std::pair<std::int64_t, std::int64_t>{10 - k,
                                                                                12 - k};
                                 }}};
  EXPECT_THROW(ring_len_for_spec(decreasing, 0, 4, 1, 1), Error);

  ArraySpec overlapping_out{"a", MapType::From, nullptr, 8, {32, 4},
                            SplitSpec{0, {}, 1, [](std::int64_t k) {
                                        return std::pair<std::int64_t, std::int64_t>{k,
                                                                                     k + 2};
                                      }}};
  EXPECT_THROW(ring_len_for_spec(overlapping_out, 0, 4, 1, 1), Error);
}

TEST(Layout, RingSegmentsWrapDecomposition) {
  // [6, 10) in a ring of 8 wraps into [6,8) + [0,2).
  const auto segs = ring_segments(6, 10, 8);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].slot, 6);
  EXPECT_EQ(segs[0].index, 6);
  EXPECT_EQ(segs[0].count, 2);
  EXPECT_EQ(segs[1].slot, 0);
  EXPECT_EQ(segs[1].index, 8);
  EXPECT_EQ(segs[1].count, 2);

  // Aligned ranges stay whole.
  const auto one = ring_segments(8, 12, 4);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].slot, 0);
  EXPECT_EQ(one[0].count, 4);
}

TEST(Layout, PartitionWeightedSplitsProportionally) {
  EXPECT_EQ(partition_weighted(100, {1.0, 1.0}, 4), (std::vector<std::int64_t>{48, 52}));
  EXPECT_EQ(partition_weighted(90, {2.0, 1.0}, 10), (std::vector<std::int64_t>{60, 30}));
  EXPECT_EQ(partition_weighted(7, {1.0}, 2), (std::vector<std::int64_t>{7}));
  // A loop shorter than one granule goes entirely to one part.
  EXPECT_EQ(partition_weighted(3, {1.0, 1.0, 1.0}, 4), (std::vector<std::int64_t>{0, 0, 3}));
  // Parts always sum to the total.
  const auto parts = partition_weighted(101, {3.0, 2.0, 1.0}, 8);
  std::int64_t sum = 0;
  for (auto p : parts) sum += p;
  EXPECT_EQ(sum, 101);
}

TEST(Layout, PartitionWeightedRejectsBadInputs) {
  EXPECT_THROW(partition_weighted(10, {}, 1), Error);
  EXPECT_THROW(partition_weighted(10, {1.0}, 0), Error);
  EXPECT_THROW(partition_weighted(10, {0.0, 0.0}, 1), Error);
  EXPECT_THROW(partition_weighted(-1, {1.0}, 1), Error);
  EXPECT_THROW(partition_weighted(10, {1.0, -0.5}, 1), Error);
}

TEST(Layout, PartitionWeightedNeverAssignsToZeroWeightParts) {
  // A disabled (weight 0) device gets nothing even when it is listed last
  // and a remainder is left over.
  EXPECT_EQ(partition_weighted(100, {1.0, 1.0, 0.0}, 4),
            (std::vector<std::int64_t>{48, 52, 0}));
  EXPECT_EQ(partition_weighted(10, {0.0, 1.0}, 4), (std::vector<std::int64_t>{0, 10}));
  // Many zero-weight parts, remainder larger than one granule.
  const auto parts = partition_weighted(103, {0.0, 3.0, 0.0, 1.0}, 8);
  EXPECT_EQ(parts[0], 0);
  EXPECT_EQ(parts[2], 0);
  EXPECT_EQ(parts[1] + parts[3], 103);
}

TEST(Layout, PartitionWeightedDoesNotStarveEarlyParts) {
  // Floor-rounding leaves every part short; the remainder is spread by
  // fractional share instead of dumped on the last part.
  EXPECT_EQ(partition_weighted(10, {1.0, 1.0, 1.0}, 1),
            (std::vector<std::int64_t>{3, 3, 4}));
  // Remainder worth several granules spreads across parts.
  const auto parts = partition_weighted(30, {1.0, 1.0, 1.0, 1.0}, 4);
  std::int64_t sum = 0;
  for (auto p : parts) {
    EXPECT_GE(p, 4);  // no part starves to zero
    sum += p;
  }
  EXPECT_EQ(sum, 30);
}

TEST(Layout, RingSegmentsRejectOversizedOrNegativeRanges) {
  // A range wider than the ring would revisit slots and emit overlapping
  // runs; the helper refuses instead.
  EXPECT_THROW(ring_segments(0, 9, 8), Error);
  EXPECT_THROW(ring_segments(4, 16, 8), Error);
  EXPECT_THROW(ring_segments(-1, 2, 8), Error);
  EXPECT_THROW(ring_segments(3, 2, 8), Error);
  // Exactly ring-sized ranges are fine.
  const auto segs = ring_segments(2, 10, 8);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].count + segs[1].count, 8);
}

TEST(Layout, WindowOfRejectsEmptyChunkRange) {
  ArraySpec a{"a", MapType::To, nullptr, 8, {32, 4}, SplitSpec{0, Affine{1, 0}, 1}};
  EXPECT_THROW(window_of(a, 3, 3), Error);
  EXPECT_THROW(window_of(a, 5, 3), Error);
}

TEST(Layout, RoundUpGuardsOverflowAndNegatives) {
  const std::int64_t top = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(round_up<std::int64_t>(top - 2, 8), Error);
  EXPECT_THROW(round_up<std::int64_t>(-1, 8), Error);
  EXPECT_THROW(round_up<std::int64_t>(5, 0), Error);
  // The largest representable multiple passes through unchanged.
  EXPECT_EQ(round_up<std::int64_t>(top - 7, 8), top - 7);
}

TEST(Layout, RingLenForSpecRejectsDegenerateInputs) {
  ArraySpec a{"a", MapType::To, nullptr, 8, {64, 4}, SplitSpec{0, Affine{1, -1}, 3}};
  // Empty loop range.
  EXPECT_THROW(ring_len_for_spec(a, 5, 5, 1, 1), Error);
  // Affine window stepping outside the array (range_of(0) starts at -1).
  EXPECT_THROW(ring_len_for_spec(a, 0, 8, 1, 1), Error);
}

}  // namespace
}  // namespace gpupipe::core::layout
