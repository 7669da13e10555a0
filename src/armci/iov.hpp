#ifndef ARMCI_IOV_HPP
#define ARMCI_IOV_HPP

/// \file iov.hpp
/// I/O-vector analysis used by the auto transfer method (paper §VI-B).
///
/// The batched and direct IOV methods are erroneous when segments overlap
/// (or span different GMRs); the auto method scans the descriptor first and
/// falls back to the conservative method when either condition holds.

#include <cstddef>
#include <span>

namespace armci {

/// O(N log N) overlap detection over \p n segments of \p bytes bytes each,
/// using the conflict tree (paper §VI-B).
bool iov_has_overlap(std::span<const void* const> ptrs, std::size_t bytes);

/// Naive O(N^2) pairwise scan; ablation baseline for bench_conflict_tree.
bool iov_has_overlap_naive(std::span<const void* const> ptrs,
                           std::size_t bytes);

}  // namespace armci

#endif  // ARMCI_IOV_HPP
