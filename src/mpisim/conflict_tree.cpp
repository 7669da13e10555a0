#include "src/mpisim/conflict_tree.hpp"

#include <algorithm>
#include <utility>

namespace mpisim {

namespace {

/// Does a range ending at \p hi touch one starting at \p lo (hi + 1 == lo,
/// without wrapping at the top of the address space)?
constexpr bool touches(std::uintptr_t hi, std::uintptr_t lo) noexcept {
  return hi != static_cast<std::uintptr_t>(-1) && hi + 1 == lo;
}

}  // namespace

ConflictTree::Pos ConflictTree::find(std::uintptr_t lo) const {
  const auto bit = std::partition_point(
      blocks_.begin(), blocks_.end(),
      [lo](const Block& b) { return b.max < lo; });
  if (bit == blocks_.end()) return end_pos();
  // bit->max >= lo, so some range of this block qualifies.
  const auto rit = std::partition_point(
      bit->ranges.begin(), bit->ranges.end(),
      [lo](const Range& r) { return r.hi < lo; });
  return {static_cast<std::size_t>(bit - blocks_.begin()),
          static_cast<std::size_t>(rit - bit->ranges.begin())};
}

std::vector<ConflictTree::Range> ConflictTree::take_spare() {
  const std::size_t parked = spare_.size() + blocks_.size() + 1;
  if (spare_.capacity() < parked) spare_.reserve(2 * parked);
  if (spare_.empty()) return {};
  std::vector<Range> out = std::move(spare_.back());
  spare_.pop_back();
  return out;
}

void ConflictTree::insert_at(Pos p, Range r) {
  ++size_;
  if (blocks_.empty()) {
    blocks_.push_back(Block{r.hi, take_spare()});
    blocks_.back().ranges.push_back(r);
    return;
  }
  if (blocks_[p.b].ranges.size() == kBlockCapacity) {
    // Split in half -- or, for an append to the full last block, open a
    // fresh one, so sorted insertion leaves full blocks behind.
    const std::size_t cut = p.i == kBlockCapacity ? p.i : kBlockCapacity / 2;
    std::vector<Range>& full = blocks_[p.b].ranges;
    Block tail;
    tail.ranges = take_spare();
    tail.ranges.reserve(kBlockCapacity);
    tail.ranges.assign(full.begin() + static_cast<std::ptrdiff_t>(cut),
                       full.end());
    tail.max = blocks_[p.b].max;
    full.resize(cut);
    blocks_[p.b].max = full.back().hi;
    blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(p.b) + 1,
                   std::move(tail));
    if (p.i >= cut) {
      ++p.b;
      p.i -= cut;
    }
  }
  Block& blk = blocks_[p.b];
  blk.ranges.insert(blk.ranges.begin() + static_cast<std::ptrdiff_t>(p.i), r);
  blk.max = blk.ranges.back().hi;
}

bool ConflictTree::insert(std::uintptr_t lo, std::uintptr_t hi) {
  if (lo > hi) return false;
  // Merged check-and-insert (paper §VI-B): the first range reaching lo is
  // the only candidate overlap; if it starts past hi, [lo, hi] goes in
  // right before it.
  const Pos p = find(lo);
  if (!at_end(p) && blocks_[p.b].ranges[p.i].lo <= hi) return false;
  insert_at(p, {lo, hi});
  return true;
}

void ConflictTree::insert_merge(std::uintptr_t lo, std::uintptr_t hi) {
  absorb(lo, hi, /*touching=*/false);
}

void ConflictTree::insert_coalesce(std::uintptr_t lo, std::uintptr_t hi) {
  absorb(lo, hi, /*touching=*/true);
}

void ConflictTree::absorb(std::uintptr_t lo, std::uintptr_t hi,
                          bool touching) {
  if (lo > hi) return;
  // Does a stored range qualify for the union with [lo, hi]?
  const auto joins_above = [&](const Range& r) {
    return r.lo <= hi || (touching && touches(hi, r.lo));
  };
  // Widen the probe by one below (clamped at 0) so a touching neighbour is
  // found too, but store only the union of the ranges actually found.
  Pos first = find(touching && lo != 0 ? lo - 1 : lo);
  if (at_end(first) || !joins_above(blocks_[first.b].ranges[first.i])) {
    insert_at(first, {lo, hi});  // nothing to absorb: one search
    return;
  }
  lo = std::min(lo, blocks_[first.b].ranges[first.i].lo);
  // Re-probe around the grown range: a stored range may touch the lo of
  // the range just absorbed (insert() and insert_merge() keep touching
  // ranges apart), so walk down while one does.
  while (touching && (first.b > 0 || first.i > 0)) {
    const Pos prev = first.i > 0
                         ? Pos{first.b, first.i - 1}
                         : Pos{first.b - 1,
                               blocks_[first.b - 1].ranges.size() - 1};
    const Range& r = blocks_[prev.b].ranges[prev.i];
    if (!touches(r.hi, lo)) break;
    lo = r.lo;
    first = prev;
  }
  // Absorb upward: erase each range after the first that joins the
  // (growing) union. The blocks this empties are consecutive; drop them at
  // once, then write the union over the first range.
  hi = std::max(hi, blocks_[first.b].ranges[first.i].hi);
  std::size_t b = first.b;
  for (std::size_t i = first.i + 1; b < blocks_.size(); ++b, i = 0) {
    std::vector<Range>& rs = blocks_[b].ranges;
    std::size_t j = i;
    while (j < rs.size() && joins_above(rs[j])) {
      hi = std::max(hi, rs[j].hi);
      ++j;
    }
    rs.erase(rs.begin() + static_cast<std::ptrdiff_t>(i),
             rs.begin() + static_cast<std::ptrdiff_t>(j));
    size_ -= j - i;
    if (i < rs.size()) break;  // a range that stays follows the union
  }
  blocks_.erase(
      blocks_.begin() + static_cast<std::ptrdiff_t>(first.b) + 1,
      blocks_.begin() + static_cast<std::ptrdiff_t>(std::max(b, first.b + 1)));
  Block& head = blocks_[first.b];
  head.ranges[first.i] = {lo, hi};
  head.max = head.ranges.back().hi;
}

bool ConflictTree::conflicts(std::uintptr_t lo, std::uintptr_t hi) const {
  std::uintptr_t olo = 0;
  std::uintptr_t ohi = 0;
  return overlapping(lo, hi, &olo, &ohi);
}

bool ConflictTree::overlapping(std::uintptr_t lo, std::uintptr_t hi,
                               std::uintptr_t* out_lo,
                               std::uintptr_t* out_hi) const {
  if (lo > hi) return false;
  const Pos p = find(lo);
  if (at_end(p)) return false;
  const Range& r = blocks_[p.b].ranges[p.i];
  if (r.lo > hi) return false;
  *out_lo = r.lo;
  *out_hi = r.hi;
  return true;
}

void ConflictTree::clear() noexcept {
  // take_spare() reserved a slot for every live block: no allocation here.
  for (Block& b : blocks_) {
    b.ranges.clear();
    spare_.push_back(std::move(b.ranges));
  }
  blocks_.clear();
  size_ = 0;
}

bool ConflictTree::check_invariants() const {
  std::size_t n = 0;
  bool any = false;
  std::uintptr_t prev_hi = 0;
  for (const Block& b : blocks_) {
    if (b.ranges.empty() || b.ranges.size() > kBlockCapacity) return false;
    if (b.max != b.ranges.back().hi) return false;
    for (const Range& r : b.ranges) {
      if (r.lo > r.hi) return false;
      if (any && r.lo <= prev_hi) return false;
      any = true;
      prev_hi = r.hi;
    }
    n += b.ranges.size();
  }
  return n == size_;
}

}  // namespace mpisim
