#ifndef MPISIM_CONFLICT_TREE_HPP
#define MPISIM_CONFLICT_TREE_HPP

/// \file conflict_tree.hpp
/// O(N log N) range overlap detection (paper §VI-B).
///
/// The batched and datatype (direct) IOV transfer methods are erroneous if
/// any two segments overlap; detecting that with a naive pairwise scan is
/// O(N^2), and NWChem IOV descriptors reach tens to hundreds of thousands of
/// segments. The paper's "auto" method instead inserts each segment's byte
/// range [lo..hi] into a self-balancing binary tree ordered such that every
/// node's left subtree lies entirely below lo and right subtree entirely
/// above hi; an overlap is detected during the (merged) check-and-insert
/// descent. Unlike an interval tree, the structure never *stores* an
/// overlapping range -- insertion simply fails, which is exactly the signal
/// the auto method needs to fall back to the conservative transfer method.
///
/// This implementation uses an AVL tree (Adelson-Velskii & Landis), as the
/// paper does, with the check and insert steps merged into one descent plus
/// the usual rebalancing on the way back up.
///
/// The tree lives in mpisim (shared with the armci layer through a using
/// alias) because the RMA validity checker (checker.hpp) reuses it for its
/// per-epoch access-interval bookkeeping: the union-building insert_merge()
/// plus overlapping() give the checker O(log N) conflict queries over the
/// same structure the paper uses for IOV overlap detection.

#include <cstddef>
#include <cstdint>
#include <functional>

namespace mpisim {

namespace detail {
struct CtNode;
}

/// Self-balancing tree of disjoint address ranges with overlap-rejecting
/// insertion. Addresses are arbitrary uintptr_t values; ranges are
/// *inclusive* [lo, hi] to match the paper's formulation.
class ConflictTree {
 public:
  ConflictTree() = default;
  ~ConflictTree();

  ConflictTree(ConflictTree&&) noexcept;
  ConflictTree& operator=(ConflictTree&&) noexcept;
  ConflictTree(const ConflictTree&) = delete;
  ConflictTree& operator=(const ConflictTree&) = delete;

  /// Insert [lo, hi] (inclusive; lo <= hi required). Returns true on
  /// success; returns false -- leaving the tree unchanged -- if the range
  /// overlaps any stored range. Single O(log N) descent.
  bool insert(std::uintptr_t lo, std::uintptr_t hi);

  /// Insert the union: any stored ranges overlapping [lo, hi] are removed
  /// and replaced by one range covering them all. Unlike insert(), this
  /// never fails -- it is the accumulation primitive of the RMA checker,
  /// which records coverage and must keep recording after an overlap.
  /// Without an overlap it costs one descent, like insert().
  void insert_merge(std::uintptr_t lo, std::uintptr_t hi);

  /// insert_merge() that additionally absorbs stored ranges *adjacent* to
  /// [lo, hi] (other.hi + 1 == lo or hi + 1 == other.lo). Accumulation
  /// primitive of the happens-before shadow store (hb.hpp), which coalesces
  /// neighbouring same-class intervals to bound checker memory.
  void insert_coalesce(std::uintptr_t lo, std::uintptr_t hi);

  /// In-order traversal: invoke \p fn(lo, hi) for every stored range in
  /// ascending order. Lets the happens-before detector union one coverage
  /// tree into another when merging access summaries.
  void visit(
      const std::function<void(std::uintptr_t, std::uintptr_t)>& fn) const;

  /// True if [lo, hi] overlaps a stored range (no insertion).
  bool conflicts(std::uintptr_t lo, std::uintptr_t hi) const;

  /// If [lo, hi] overlaps a stored range, copy that range into
  /// (*out_lo, *out_hi) and return true (diagnostics: the checker reports
  /// the previously recorded interval a new access collides with).
  bool overlapping(std::uintptr_t lo, std::uintptr_t hi,
                   std::uintptr_t* out_lo, std::uintptr_t* out_hi) const;

  /// Number of stored ranges.
  std::size_t size() const noexcept { return size_; }

  bool empty() const noexcept { return size_ == 0; }

  /// Remove all ranges.
  void clear() noexcept;

  /// Tree height (diagnostics; AVL guarantees O(log N)).
  int height() const noexcept;

  /// Internal invariant check for tests: AVL balance and ordering hold.
  bool check_invariants() const;

 private:
  detail::CtNode* root_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace mpisim

#endif  // MPISIM_CONFLICT_TREE_HPP
