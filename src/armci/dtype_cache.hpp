#ifndef ARMCI_DTYPE_CACHE_HPP
#define ARMCI_DTYPE_CACHE_HPP

/// \file dtype_cache.hpp
/// LRU cache of derived datatypes for the direct strided/IOV paths.
///
/// GA applications move the same block shape over and over (every patch of
/// a regularly distributed array has identical counts/strides), so the
/// direct transfer methods rebuild byte-identical subarray/hindexed types
/// for every call. This cache keys the built Datatype handle on the shape
/// alone -- counts, strides, block lengths, displacements, element type --
/// which is exactly the information the constructors consume; base
/// addresses and target displacements are *not* part of the key (callers
/// rebase displacement lists so types are position-independent). Datatype
/// handles are immutable shared values, so returning a cached handle is
/// semantically identical to building a fresh one.
///
/// Capacity comes from Options::dt_cache_capacity; 0 disables the cache
/// (every lookup builds, no counters recorded). Hits/misses land in
/// Stats::dt_cache_hits / dt_cache_misses.

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/armci/stats.hpp"
#include "src/armci/types.hpp"
#include "src/mpisim/datatype.hpp"

namespace armci {

class DatatypeCache {
 public:
  /// Shrink-or-grow the entry budget; evicts LRU entries when shrinking.
  void set_capacity(std::size_t cap);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return lru_.size(); }

  /// The direct-method datatype for one side of a strided transfer
  /// (make_strided_type), keyed on (strides, spec.count, elem).
  mpisim::Datatype strided_type(std::span<const std::size_t> strides,
                                const StridedSpec& spec,
                                mpisim::BasicType elem, Stats& stats);

  /// An hindexed type for one side of a direct IOV transfer, keyed on
  /// (blocklens, displacements, elem). Displacements should be rebased so
  /// the lowest one is 0, making the type reusable at any base address.
  mpisim::Datatype hindexed_type(std::span<const std::size_t> blocklens,
                                 std::span<const std::ptrdiff_t> displs_bytes,
                                 mpisim::BasicType elem, Stats& stats);

 private:
  /// Flattened shape key. `words` starts with the tag so strided and
  /// hindexed shapes can never collide.
  struct Key {
    std::vector<std::uint64_t> words;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  using Entry = std::pair<Key, mpisim::Datatype>;

  /// Cached handle for the shape in probe_, or build() on a miss (which
  /// copies probe_ into the new entry). A template so a lookup never wraps
  /// \p build in an allocating std::function; only dtype_cache.cpp
  /// instantiates it.
  template <class Build>
  mpisim::Datatype get_or_build(Stats& stats, Build&& build);

  std::size_t capacity_ = 64;
  /// The key of the lookup in progress, rebuilt in place so a hit
  /// allocates nothing.
  Key probe_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
};

}  // namespace armci

#endif  // ARMCI_DTYPE_CACHE_HPP
