#ifndef MPISIM_CONFLICT_TREE_HPP
#define MPISIM_CONFLICT_TREE_HPP

/// \file conflict_tree.hpp
/// O(N log N) range overlap detection (paper §VI-B).
///
/// The batched and datatype (direct) IOV transfer methods are erroneous if
/// any two segments overlap; detecting that with a naive pairwise scan is
/// O(N^2), and NWChem IOV descriptors reach tens to hundreds of thousands of
/// segments. The paper's "auto" method instead inserts each segment's byte
/// range [lo..hi] into a search tree of disjoint ranges, merging the overlap
/// check into the insertion. Unlike an interval tree, the structure never
/// *stores* an overlapping range -- insertion simply fails, which is exactly
/// the signal the auto method needs to fall back to the conservative
/// transfer method.
///
/// The paper uses an AVL tree; this is a height-2 B+-tree with the same
/// overlap-rejecting check-and-insert. Disjoint ranges are kept sorted in
/// fixed-capacity blocks (one heap allocation per block, not per range)
/// under a list of block maxima. The first range whose hi reaches lo is
/// the only one that can overlap [lo, hi]: one binary search over the
/// maxima and one inside the block find it, and the new range goes in
/// right before it -- or, past the stored maximum, at the end of the last
/// block. A full block splits (an append opens a fresh block, so sorted
/// input leaves full blocks), and a block a union empties is dropped. A
/// query or insert costs O(log N + block).
///
/// The tree lives in mpisim (shared with the armci layer through a using
/// alias) because the RMA validity checker (checker.hpp) reuses it for its
/// per-epoch access-interval bookkeeping: the union-building insert_merge()
/// plus overlapping() give the checker O(log N) conflict queries over the
/// same structure the paper uses for IOV overlap detection.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mpisim {

/// Sorted store of disjoint address ranges with overlap-rejecting
/// insertion. Addresses are arbitrary uintptr_t values; ranges are
/// *inclusive* [lo, hi] to match the paper's formulation.
class ConflictTree {
 public:
  /// Ranges per block. A split leaves two blocks of half this size.
  static constexpr std::size_t kBlockCapacity = 64;

  ConflictTree() = default;
  /// A moved-from tree is empty.
  ConflictTree(ConflictTree&& o) noexcept
      : blocks_(std::move(o.blocks_)),
        spare_(std::move(o.spare_)),
        size_(std::exchange(o.size_, 0)) {}
  ConflictTree& operator=(ConflictTree&& o) noexcept {
    if (this != &o) {
      blocks_ = std::move(o.blocks_);
      o.blocks_.clear();
      spare_ = std::move(o.spare_);
      o.spare_.clear();
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  ConflictTree(const ConflictTree&) = delete;
  ConflictTree& operator=(const ConflictTree&) = delete;

  /// Insert [lo, hi] (inclusive; lo <= hi required). Returns true on
  /// success; returns false -- leaving the tree unchanged -- if the range
  /// overlaps any stored range. One search, check and insert merged.
  bool insert(std::uintptr_t lo, std::uintptr_t hi);

  /// Insert the union: any stored ranges overlapping [lo, hi] are removed
  /// and replaced by one range covering them all. Unlike insert(), this
  /// never fails -- it is the accumulation primitive of the RMA checker,
  /// which records coverage and must keep recording after an overlap.
  /// Without an overlap it costs one search, like insert().
  void insert_merge(std::uintptr_t lo, std::uintptr_t hi);

  /// insert_merge() that additionally absorbs stored ranges *adjacent* to
  /// [lo, hi] (other.hi + 1 == lo or hi + 1 == other.lo), and keeps
  /// absorbing neighbours adjacent to the grown union. Accumulation
  /// primitive of the happens-before shadow store (hb.hpp), which coalesces
  /// neighbouring same-class intervals to bound checker memory.
  void insert_coalesce(std::uintptr_t lo, std::uintptr_t hi);

  /// In-order traversal: invoke \p fn(lo, hi) for every stored range in
  /// ascending order.
  template <class Fn>
  void visit(Fn&& fn) const {
    for (const Block& b : blocks_)
      for (const Range& r : b.ranges) fn(r.lo, r.hi);
  }

  /// True if [lo, hi] overlaps a stored range (no insertion).
  bool conflicts(std::uintptr_t lo, std::uintptr_t hi) const;

  /// If [lo, hi] overlaps a stored range, copy the lowest such range into
  /// (*out_lo, *out_hi) and return true (diagnostics: the checker reports
  /// the previously recorded interval a new access collides with).
  bool overlapping(std::uintptr_t lo, std::uintptr_t hi,
                   std::uintptr_t* out_lo, std::uintptr_t* out_hi) const;

  /// Number of stored ranges.
  std::size_t size() const noexcept { return size_; }

  bool empty() const noexcept { return size_ == 0; }

  /// Remove all ranges. The blocks' buffers are kept for the blocks the
  /// tree opens next, so a tree that is filled and cleared over and over
  /// (an nb queue, a checker epoch) stops allocating once warm.
  void clear() noexcept;

  /// Number of blocks (diagnostics).
  std::size_t blocks() const noexcept { return blocks_.size(); }

  /// Internal invariant check for tests: no block is empty or over
  /// capacity, each block's maximum is its last hi, ranges are sorted and
  /// disjoint across blocks, and size() counts them.
  bool check_invariants() const;

 private:
  struct Range {
    std::uintptr_t lo;
    std::uintptr_t hi;
  };
  struct Block {
    std::uintptr_t max;  ///< ranges.back().hi
    std::vector<Range> ranges;
  };
  /// A range's place: block index and index within the block. The end
  /// position is one past the last range of the last block.
  struct Pos {
    std::size_t b;
    std::size_t i;
  };

  /// The first range whose hi >= lo, or the end position.
  Pos find(std::uintptr_t lo) const;
  Pos end_pos() const noexcept {
    if (blocks_.empty()) return {0, 0};
    return {blocks_.size() - 1, blocks_.back().ranges.size()};
  }
  bool at_end(Pos p) const noexcept {
    return blocks_.empty() || p.i == blocks_[p.b].ranges.size();
  }
  /// Insert \p r at \p p, splitting a full block first.
  void insert_at(Pos p, Range r);

  /// An empty range buffer for a block about to be opened: a spare one
  /// when clear() left some. Reserves room in spare_ for every live block
  /// plus the new one, so clear() can park them all without allocating.
  std::vector<Range> take_spare();
  /// insert_merge (touching == false) and insert_coalesce (true).
  void absorb(std::uintptr_t lo, std::uintptr_t hi, bool touching);

  std::vector<Block> blocks_;
  std::vector<std::vector<Range>> spare_;  ///< emptied, capacity kept
  std::size_t size_ = 0;
};

}  // namespace mpisim

#endif  // MPISIM_CONFLICT_TREE_HPP
