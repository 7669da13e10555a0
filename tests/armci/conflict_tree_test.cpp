// Unit and property tests for the blocked conflict tree (paper §VI-B).

#include "src/armci/conflict_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "src/armci/iov.hpp"

namespace armci {
namespace {

TEST(ConflictTreeTest, EmptyTreeHasNoConflicts) {
  ConflictTree t;
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.conflicts(0, 100));
}

TEST(ConflictTreeTest, DisjointRangesInsert) {
  ConflictTree t;
  EXPECT_TRUE(t.insert(0, 9));
  EXPECT_TRUE(t.insert(20, 29));
  EXPECT_TRUE(t.insert(10, 19));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(ConflictTreeTest, ExactOverlapRejected) {
  ConflictTree t;
  EXPECT_TRUE(t.insert(10, 20));
  EXPECT_FALSE(t.insert(10, 20));
  EXPECT_EQ(t.size(), 1u);
}

TEST(ConflictTreeTest, PartialOverlapsRejected) {
  ConflictTree t;
  ASSERT_TRUE(t.insert(10, 20));
  EXPECT_FALSE(t.insert(5, 10));    // touches lo
  EXPECT_FALSE(t.insert(20, 25));   // touches hi
  EXPECT_FALSE(t.insert(12, 18));   // inside
  EXPECT_FALSE(t.insert(5, 25));    // encloses
  EXPECT_TRUE(t.insert(21, 25));
  EXPECT_TRUE(t.insert(5, 9));
  EXPECT_EQ(t.size(), 3u);
}

TEST(ConflictTreeTest, AdjacentRangesAreDisjoint) {
  // Inclusive ranges: [0,9] and [10,19] do not overlap.
  ConflictTree t;
  EXPECT_TRUE(t.insert(0, 9));
  EXPECT_TRUE(t.insert(10, 19));
}

TEST(ConflictTreeTest, SingleByteRanges) {
  ConflictTree t;
  EXPECT_TRUE(t.insert(5, 5));
  EXPECT_FALSE(t.insert(5, 5));
  EXPECT_TRUE(t.insert(4, 4));
  EXPECT_TRUE(t.insert(6, 6));
}

TEST(ConflictTreeTest, InvalidRangeRejected) {
  ConflictTree t;
  EXPECT_FALSE(t.insert(10, 5));
  EXPECT_TRUE(t.empty());
}

TEST(ConflictTreeTest, FailedInsertLeavesTreeUsable) {
  ConflictTree t;
  ASSERT_TRUE(t.insert(100, 200));
  ASSERT_FALSE(t.insert(150, 250));
  EXPECT_TRUE(t.insert(300, 400));
  EXPECT_TRUE(t.conflicts(150, 160));
  EXPECT_FALSE(t.conflicts(201, 299));
  EXPECT_TRUE(t.check_invariants());
}

TEST(ConflictTreeTest, ClearEmptiesTree) {
  ConflictTree t;
  for (std::uintptr_t i = 0; i < 100; ++i) ASSERT_TRUE(t.insert(i * 10, i * 10 + 5));
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.insert(0, 1000000));
}

TEST(ConflictTreeTest, MoveTransfersOwnership) {
  ConflictTree a;
  ASSERT_TRUE(a.insert(1, 2));
  ConflictTree b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_TRUE(b.conflicts(1, 1));
  // A moved-from tree is a valid empty tree.
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(a.check_invariants());
  ConflictTree c;
  ASSERT_TRUE(c.insert(5, 6));
  c = std::move(b);
  EXPECT_TRUE(c.conflicts(1, 1));
  EXPECT_FALSE(c.conflicts(5, 6));
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.check_invariants());
  ASSERT_TRUE(a.insert(3, 4));
  EXPECT_EQ(a.size(), 1u);
}

TEST(ConflictTreeTest, SortedInsertFillsBlocks) {
  // Sorted insertion appends past the stored maximum every time: each
  // append to a full last block opens a fresh one, so the blocks end up
  // full rather than half-split.
  ConflictTree t;
  const int n = 1 << 14;
  for (int i = 0; i < n; ++i)
    ASSERT_TRUE(t.insert(static_cast<std::uintptr_t>(i) * 16,
                         static_cast<std::uintptr_t>(i) * 16 + 7));
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(t.blocks(), n / ConflictTree::kBlockCapacity);
}

// Property: the tree agrees with the naive O(N^2) scanner on random
// segment sets, both overlapping and disjoint.
class ConflictTreeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(ConflictTreeRandomTest, AgreesWithNaiveScan) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t bytes = 64;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng() % 200;
    // Dense address space => likely overlaps; sparse => likely disjoint.
    const std::uintptr_t space = (trial % 2 == 0) ? n * 80 : n * 8;
    std::vector<const void*> ptrs(n);
    for (auto& p : ptrs)
      p = reinterpret_cast<const void*>(0x10000 + rng() % space);
    const bool naive = iov_has_overlap_naive(ptrs, bytes);
    const bool tree = iov_has_overlap(ptrs, bytes);
    EXPECT_EQ(tree, naive) << "trial " << trial << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictTreeRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(ConflictTreeTest, RandomInsertKeepsInvariants) {
  std::mt19937_64 rng(42);
  ConflictTree t;
  std::size_t inserted = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::uintptr_t lo = rng() % 100000;
    const std::uintptr_t hi = lo + rng() % 50;
    if (t.insert(lo, hi)) ++inserted;
  }
  EXPECT_EQ(t.size(), inserted);
  EXPECT_TRUE(t.check_invariants());
}

// insert_merge/overlapping extend the tree for the RMA validity checker
// (src/mpisim/checker.cpp): epochs accumulate union access sets and report
// the stored range that an access collided with.

TEST(ConflictTreeMergeTest, MergeUnionsOverlappingRanges) {
  ConflictTree t;
  t.insert_merge(10, 20);
  t.insert_merge(15, 30);  // overlaps -> one node [10, 30]
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.conflicts(30, 30));
  EXPECT_FALSE(t.conflicts(31, 40));
  EXPECT_TRUE(t.check_invariants());
}

TEST(ConflictTreeMergeTest, MergeSwallowsSeveralNodes) {
  ConflictTree t;
  t.insert_merge(0, 9);
  t.insert_merge(20, 29);
  t.insert_merge(40, 49);
  t.insert_merge(5, 45);  // bridges all three
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.conflicts(0, 0));
  EXPECT_TRUE(t.conflicts(49, 49));
  EXPECT_FALSE(t.conflicts(50, 60));
  EXPECT_TRUE(t.check_invariants());
}

TEST(ConflictTreeMergeTest, MergeKeepsDisjointRangesSeparate) {
  ConflictTree t;
  t.insert_merge(0, 9);
  t.insert_merge(11, 19);  // a one-unit gap at 10
  EXPECT_EQ(t.size(), 2u);
  EXPECT_FALSE(t.conflicts(10, 10));
}

TEST(ConflictTreeMergeTest, OverlappingReportsStoredRange) {
  ConflictTree t;
  t.insert_merge(100, 200);
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  EXPECT_TRUE(t.overlapping(150, 160, &lo, &hi));
  EXPECT_EQ(lo, 100u);
  EXPECT_EQ(hi, 200u);
  EXPECT_FALSE(t.overlapping(201, 300, &lo, &hi));
}

TEST(ConflictTreeMergeTest, RandomMergeAgreesWithBitset) {
  // Property check: after arbitrary merges the tree's membership matches a
  // per-unit reference bitmap, and invariants hold throughout.
  std::mt19937_64 rng(7);
  ConflictTree t;
  std::vector<bool> ref(2000, false);
  for (int i = 0; i < 500; ++i) {
    const std::uintptr_t lo = rng() % 1900;
    const std::uintptr_t hi = lo + rng() % 90;
    t.insert_merge(lo, hi);
    for (std::uintptr_t u = lo; u <= hi; ++u) ref[u] = true;
  }
  EXPECT_TRUE(t.check_invariants());
  for (std::uintptr_t u = 0; u < ref.size(); ++u)
    EXPECT_EQ(t.conflicts(u, u), static_cast<bool>(ref[u])) << "unit " << u;
}

TEST(IovOverlapTest, DisjointVectorIsClean) {
  std::vector<const void*> ptrs;
  for (int i = 0; i < 1000; ++i)
    ptrs.push_back(reinterpret_cast<const void*>(0x1000 + i * 128));
  EXPECT_FALSE(iov_has_overlap(ptrs, 128));
  EXPECT_FALSE(iov_has_overlap_naive(ptrs, 128));
}

TEST(IovOverlapTest, OneDuplicateDetected) {
  std::vector<const void*> ptrs;
  for (int i = 0; i < 1000; ++i)
    ptrs.push_back(reinterpret_cast<const void*>(0x1000 + i * 128));
  ptrs.push_back(ptrs[500]);
  EXPECT_TRUE(iov_has_overlap(ptrs, 128));
}

TEST(IovOverlapTest, ZeroByteSegmentsNeverOverlap) {
  std::vector<const void*> ptrs(10, reinterpret_cast<const void*>(0x1000));
  EXPECT_FALSE(iov_has_overlap(ptrs, 0));
}

// ---- insert_coalesce / visit (happens-before shadow-store primitives) ----

TEST(ConflictTreeTest, CoalesceAbsorbsAdjacentRanges) {
  ConflictTree t;
  t.insert_coalesce(0, 9);
  t.insert_coalesce(20, 29);
  // Adjacent on both sides: [10, 19] must fuse all three into [0, 29].
  t.insert_coalesce(10, 19);
  EXPECT_EQ(t.size(), 1u);
  std::uintptr_t lo = 1, hi = 0;
  ASSERT_TRUE(t.overlapping(15, 15, &lo, &hi));
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 29u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(ConflictTreeTest, CoalesceAbsorbsAChainOfNeighbours) {
  ConflictTree t;
  // Ten separated singleton ranges; one spanning insert adjacent to the
  // first must absorb the whole chain once the gaps are bridged.
  for (std::uintptr_t i = 0; i < 10; ++i)
    t.insert_coalesce(i * 2, i * 2);  // 0, 2, 4, ..., 18 (gaps at odds)
  EXPECT_EQ(t.size(), 10u);
  for (std::uintptr_t i = 0; i < 9; ++i)
    t.insert_coalesce(i * 2 + 1, i * 2 + 1);  // fill the gaps one by one
  EXPECT_EQ(t.size(), 1u);
  std::uintptr_t lo = 1, hi = 0;
  ASSERT_TRUE(t.overlapping(0, 0, &lo, &hi));
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 18u);
}

TEST(ConflictTreeTest, CoalesceDoesNotFuseAcrossGaps) {
  ConflictTree t;
  t.insert_coalesce(0, 9);
  t.insert_coalesce(11, 19);  // gap at 10: must stay separate
  EXPECT_EQ(t.size(), 2u);
  EXPECT_FALSE(t.conflicts(10, 10));
}

TEST(ConflictTreeTest, CoalesceAtAddressSpaceBoundsDoesNotWrap) {
  ConflictTree t;
  const std::uintptr_t max = ~static_cast<std::uintptr_t>(0);
  t.insert_coalesce(0, 0);
  t.insert_coalesce(max, max);
  EXPECT_EQ(t.size(), 2u);
  t.insert_coalesce(2, max - 2);  // adjacent to neither end range
  EXPECT_EQ(t.size(), 3u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(ConflictTreeTest, VisitTraversesInAscendingOrder) {
  ConflictTree t;
  t.insert_coalesce(40, 49);
  t.insert_coalesce(0, 9);
  t.insert_coalesce(20, 29);
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> seen;
  t.visit([&](std::uintptr_t lo, std::uintptr_t hi) {
    seen.emplace_back(lo, hi);
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].first, 0u);
  EXPECT_EQ(seen[0].second, 9u);
  EXPECT_EQ(seen[1].first, 20u);
  EXPECT_EQ(seen[1].second, 29u);
  EXPECT_EQ(seen[2].first, 40u);
  EXPECT_EQ(seen[2].second, 49u);
}

TEST(ConflictTreeTest, VisitOnEmptyTreeIsANoOp) {
  ConflictTree t;
  int calls = 0;
  t.visit([&](std::uintptr_t, std::uintptr_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

// ---- Differential test against a naive interval-set oracle ----
//
// A std::map from lo to hi holding the same disjoint inclusive ranges,
// updated by brute force. Every operation's result and the full stored set
// are compared after each step, with the block invariants checked after
// every mutation. Ascending disjoint runs exercise insert_merge's
// single-search path; overlapping and touching runs exercise its absorb
// loop and insert_coalesce's adjacency rule.

using Range = std::pair<std::uintptr_t, std::uintptr_t>;

class Oracle {
 public:
  bool insert(std::uintptr_t lo, std::uintptr_t hi) {
    if (conflicts(lo, hi)) return false;
    set_[lo] = hi;
    return true;
  }

  /// Absorb every stored range overlapping [lo, hi] -- or, when
  /// \p touching, also ending just below lo or starting just above hi --
  /// growing the range to each union until nothing more qualifies, then
  /// store it.
  void absorb(std::uintptr_t lo, std::uintptr_t hi, bool touching) {
    for (bool grew = true; grew;) {
      grew = false;
      const std::uintptr_t plo = touching && lo != 0 ? lo - 1 : lo;
      const std::uintptr_t phi = touching && hi != UINTPTR_MAX ? hi + 1 : hi;
      for (auto it = set_.begin(); it != set_.end();) {
        if (overlaps(*it, plo, phi)) {
          lo = std::min(lo, it->first);
          hi = std::max(hi, it->second);
          it = set_.erase(it);
          grew = true;
        } else {
          ++it;
        }
      }
    }
    set_[lo] = hi;
  }

  bool conflicts(std::uintptr_t lo, std::uintptr_t hi) const {
    for (const auto& r : set_)
      if (overlaps(r, lo, hi)) return true;
    return false;
  }

  bool contains(const Range& r) const {
    auto it = set_.find(r.first);
    return it != set_.end() && it->second == r.second;
  }

  std::vector<Range> ranges() const { return {set_.begin(), set_.end()}; }

 private:
  static bool overlaps(const std::pair<const std::uintptr_t, std::uintptr_t>& r,
                       std::uintptr_t lo, std::uintptr_t hi) {
    return r.first <= hi && lo <= r.second;
  }

  std::map<std::uintptr_t, std::uintptr_t> set_;
};

std::vector<Range> stored(const ConflictTree& t) {
  std::vector<Range> out;
  t.visit([&](std::uintptr_t lo, std::uintptr_t hi) {
    out.emplace_back(lo, hi);
  });
  return out;
}

/// How the next range is placed relative to the previous one. `wide`
/// scatters short ranges over 256 KiB, with an occasional range of up to
/// 64 KiB: the store grows to many blocks and long unions cross several.
enum class Pattern { random, ascending_disjoint, ascending_touching, wide };

/// Block-level events a differential run went through.
struct BlockEvents {
  std::size_t max_blocks = 0;
  int merges_over_three_blocks = 0;  ///< an insert_merge dropped >= 2 blocks
  int coalesces_dropping_a_block = 0;
};

void run_differential(std::uint32_t seed, Pattern pattern, int steps,
                      BlockEvents* ev = nullptr) {
  BlockEvents unused;
  if (ev == nullptr) ev = &unused;
  SCOPED_TRACE("seed " + std::to_string(seed) + ", pattern " +
               std::to_string(static_cast<int>(pattern)));
  std::mt19937 rng(seed);
  auto pick = [&](std::uintptr_t lo, std::uintptr_t hi) {
    return std::uniform_int_distribution<std::uintptr_t>(lo, hi)(rng);
  };
  ConflictTree t;
  Oracle o;
  std::uintptr_t cursor = 0;
  for (int step = 0; step < steps; ++step) {
    std::uintptr_t lo = 0;
    std::uintptr_t len = pick(1, 24);
    switch (pattern) {
      case Pattern::random:
        lo = pick(0, 600);
        break;
      case Pattern::ascending_disjoint:
        lo = cursor + pick(2, 8);  // a gap of at least one byte
        break;
      case Pattern::ascending_touching:
        // Start inside, on, or just past the previous range's end.
        lo = cursor + 1 >= 4 ? cursor + 1 - pick(0, 4) : 0;
        break;
      case Pattern::wide:
        lo = pick(0, std::uintptr_t{1} << 18);
        if (pick(0, 99) == 0) len = pick(1, std::uintptr_t{1} << 16);
        break;
    }
    const std::uintptr_t hi = lo + len - 1;
    cursor = std::max(cursor, hi);

    const int op = static_cast<int>(pick(0, 9));
    const std::size_t blocks_before = t.blocks();
    if (op < 4) {
      t.insert_merge(lo, hi);
      o.absorb(lo, hi, /*touching=*/false);
      if (t.blocks() + 2 <= blocks_before) ++ev->merges_over_three_blocks;
    } else if (op < 6) {
      t.insert_coalesce(lo, hi);
      o.absorb(lo, hi, /*touching=*/true);
      if (t.blocks() < blocks_before) ++ev->coalesces_dropping_a_block;
    } else if (op < 8) {
      ASSERT_EQ(t.insert(lo, hi), o.insert(lo, hi)) << lo << ".." << hi;
    } else {
      ASSERT_EQ(t.conflicts(lo, hi), o.conflicts(lo, hi)) << lo << ".." << hi;
      std::uintptr_t olo = 0;
      std::uintptr_t ohi = 0;
      const bool hit = t.overlapping(lo, hi, &olo, &ohi);
      ASSERT_EQ(hit, o.conflicts(lo, hi)) << lo << ".." << hi;
      if (hit) {
        EXPECT_TRUE(o.contains({olo, ohi})) << olo << ".." << ohi;
        EXPECT_TRUE(olo <= hi && lo <= ohi) << olo << ".." << ohi;
      }
      continue;
    }
    ASSERT_TRUE(t.check_invariants()) << "after step " << step;
    ASSERT_EQ(stored(t), o.ranges()) << "after step " << step;
    ASSERT_EQ(t.size(), o.ranges().size());
    ev->max_blocks = std::max(ev->max_blocks, t.blocks());
  }
}

TEST(ConflictTreeDifferential, RandomMixedOperations) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed)
    run_differential(seed, Pattern::random, 1500);
}

TEST(ConflictTreeDifferential, AscendingDisjointRuns) {
  for (std::uint32_t seed = 11; seed <= 14; ++seed)
    run_differential(seed, Pattern::ascending_disjoint, 1500);
}

TEST(ConflictTreeDifferential, AscendingOverlappingAndTouchingRuns) {
  for (std::uint32_t seed = 21; seed <= 24; ++seed)
    run_differential(seed, Pattern::ascending_touching, 1500);
}

// The same oracle over a wide address space, long enough for the store to
// split into many blocks: long unions must cross and drop blocks, and
// touching chains must coalesce across block edges.
TEST(ConflictTreeDifferential, WideRandomOperationsCrossBlocks) {
  BlockEvents ev;
  for (std::uint32_t seed = 41; seed <= 44; ++seed)
    run_differential(seed, Pattern::wide, 4000, &ev);
  EXPECT_GE(ev.max_blocks, 8u);
  EXPECT_GT(ev.merges_over_three_blocks, 0);
  EXPECT_GT(ev.coalesces_dropping_a_block, 0);
}

// Full blocks [16 i, 16 i + 7], 4 * kBlockCapacity ranges: blocks 0..3.
ConflictTree four_full_blocks() {
  ConflictTree t;
  for (std::uintptr_t i = 0; i < 4 * ConflictTree::kBlockCapacity; ++i)
    t.insert(16 * i, 16 * i + 7);
  return t;
}

TEST(ConflictTreeBlocks, MergeAcrossThreeBlocksDropsTheMiddleOne) {
  constexpr std::uintptr_t cap = ConflictTree::kBlockCapacity;
  ConflictTree t = four_full_blocks();
  ASSERT_EQ(t.blocks(), 4u);
  // From the middle of block 0 to the middle of block 2.
  const std::uintptr_t lo = 16 * (cap / 2) + 3;
  const std::uintptr_t hi = 16 * (2 * cap + cap / 2) + 3;
  t.insert_merge(lo, hi);
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.blocks(), 3u);
  EXPECT_EQ(t.size(), 4 * cap - (2 * cap + 1) + 1);
  std::uintptr_t olo = 0;
  std::uintptr_t ohi = 0;
  ASSERT_TRUE(t.overlapping(hi, hi, &olo, &ohi));
  EXPECT_EQ(olo, 16 * (cap / 2));
  EXPECT_EQ(ohi, 16 * (2 * cap + cap / 2) + 7);
  EXPECT_FALSE(t.conflicts(ohi + 1, ohi + 8));
}

TEST(ConflictTreeBlocks, MergeOfEverythingLeavesOneBlock) {
  ConflictTree t = four_full_blocks();
  t.insert_merge(0, 16 * 4 * ConflictTree::kBlockCapacity);
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.blocks(), 1u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(ConflictTreeBlocks, MidBlockInsertIntoFullBlockSplits) {
  ConflictTree t = four_full_blocks();
  ASSERT_TRUE(t.insert(16 * 5 + 9, 16 * 5 + 12));  // a gap inside block 0
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.blocks(), 5u);
  EXPECT_TRUE(t.conflicts(16 * 5 + 10, 16 * 5 + 10));
}

// insert() keeps touching ranges apart; insert_coalesce must absorb such a
// chain in both directions, across the edge between two blocks.
TEST(ConflictTreeBlocks, CoalesceChainCrossesABlockEdge) {
  constexpr std::uintptr_t cap = ConflictTree::kBlockCapacity;
  for (const std::uintptr_t at : {cap - 1, cap}) {  // last of 0, first of 1
    ConflictTree t;
    for (std::uintptr_t i = 0; i < 2 * cap; ++i)
      ASSERT_TRUE(t.insert(10 * i, 10 * i + 9));
    ASSERT_EQ(t.blocks(), 2u);
    t.insert_coalesce(10 * at + 2, 10 * at + 3);
    EXPECT_TRUE(t.check_invariants());
    EXPECT_EQ(t.size(), 1u) << "at " << at;
    EXPECT_EQ(t.blocks(), 1u);
    std::uintptr_t lo = 1;
    std::uintptr_t hi = 0;
    ASSERT_TRUE(t.overlapping(0, 0, &lo, &hi));
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 20 * cap - 1);
  }
}

// insert_merge of a range that overlaps nothing builds exactly the tree
// insert() builds: same ranges, same blocks.
TEST(ConflictTreeDifferential, MergeWithoutOverlapMatchesInsert) {
  std::mt19937 rng(31);
  ConflictTree merged;
  ConflictTree inserted;
  std::vector<std::uintptr_t> slots(400);
  for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = 16 * i;
  std::shuffle(slots.begin(), slots.end(), rng);
  for (const std::uintptr_t lo : slots) {
    merged.insert_merge(lo, lo + 7);
    ASSERT_TRUE(inserted.insert(lo, lo + 7));
    ASSERT_EQ(merged.blocks(), inserted.blocks());
    ASSERT_TRUE(merged.check_invariants());
  }
  EXPECT_GT(merged.blocks(), 1u);
  EXPECT_EQ(stored(merged), stored(inserted));
  EXPECT_TRUE(merged.check_invariants());
}

}  // namespace
}  // namespace armci
