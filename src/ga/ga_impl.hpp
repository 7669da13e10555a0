#ifndef GA_GA_IMPL_HPP
#define GA_GA_IMPL_HPP

/// \file ga_impl.hpp
/// Internal shared state of a GlobalArray (used by the implementation
/// files ga.cpp / ga_gather.cpp; not part of the public API).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/ga/distribution.hpp"
#include "src/ga/ga.hpp"
#include "src/mpisim/runtime.hpp"

namespace ga::detail {

struct GaImpl {
  std::string name;
  ElemType type = ElemType::dbl;
  std::vector<std::int64_t> dims;
  Distribution dist;
  std::vector<void*> bases;  ///< per absolute process id (null: no block)
  Patch my_patch;
  int access_depth = 0;

  /// Fault-tolerance policy fixed at create()/rebuild().
  Resilience resilience = Resilience::none;
  /// Distribution rank -> absolute process id. Empty = identity (the
  /// initial world distribution); rebuild() installs the survivor list.
  std::vector<int> procs;
  /// Primary block size in bytes per distribution rank. Replicated arrays
  /// append distribution rank r's replica to the allocation of its buddy
  /// (r + 1) % nprocs, at offset block_bytes[buddy].
  std::vector<std::size_t> block_bytes;

  /// Buffers a patch transfer (ga.cpp region_xfer_issue) reuses, so a
  /// steady stream of put/get/acc/nb_get calls allocates nothing here once
  /// warm. Each rank owns its GaImpl, so nothing else touches them.
  struct XferScratch {
    std::vector<OwnedPatch> owners;  ///< the region's per-owner sub-patches
    Patch block;                     ///< the owner's whole block
    std::vector<std::size_t> buf_strides;  ///< caller buffer, bytes
    std::vector<std::size_t> rem_strides;  ///< owner block, bytes
    armci::StridedSpec spec;
  };
  XferScratch xfer;
};

/// Number of distribution ranks the array is laid out over.
inline int dist_nprocs(const GaImpl& ga) noexcept {
  return ga.procs.empty() ? mpisim::nranks()
                          : static_cast<int>(ga.procs.size());
}

/// Absolute process id of distribution rank \p r.
inline int abs_proc(const GaImpl& ga, int r) noexcept {
  return ga.procs.empty() ? r : ga.procs[static_cast<std::size_t>(r)];
}

/// Distribution rank of absolute process \p proc, -1 if not in the map.
inline int dist_rank_of(const GaImpl& ga, int proc) noexcept {
  if (ga.procs.empty()) return proc < mpisim::nranks() ? proc : -1;
  for (std::size_t i = 0; i < ga.procs.size(); ++i)
    if (ga.procs[i] == proc) return static_cast<int>(i);
  return -1;
}

/// True when the array keeps buddy replicas and has enough ranks for the
/// buddy ring to be meaningful.
inline bool replicated(const GaImpl& ga) noexcept {
  return ga.resilience == Resilience::replicate && dist_nprocs(ga) >= 2;
}

/// Buddy (replica holder) of distribution rank \p r.
inline int buddy_of(const GaImpl& ga, int r) noexcept {
  return (r + 1) % dist_nprocs(ga);
}

/// Record a multi-owner GA access in armci::stats(): \p owners is the
/// access's fan-out, \p batches how many of its per-owner ops the
/// aggregation engine deferred (vs executed eagerly). No-op for owners < 2.
void count_multi_owner(int owners, std::uint64_t batches);

}  // namespace ga::detail

#endif  // GA_GA_IMPL_HPP
