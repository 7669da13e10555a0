#include "src/armci/dtype_cache.hpp"

#include <utility>

#include "src/armci/strided.hpp"

namespace armci {

namespace {

constexpr std::uint64_t kTagStrided = 1;
constexpr std::uint64_t kTagHindexed = 2;

}  // namespace

std::size_t DatatypeCache::KeyHash::operator()(const Key& k) const noexcept {
  // FNV-1a over the shape words: cheap, and the keys are short.
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t w : k.words) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

void DatatypeCache::set_capacity(std::size_t cap) {
  capacity_ = cap;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

template <class Build>
mpisim::Datatype DatatypeCache::get_or_build(Stats& stats, Build&& build) {
  if (capacity_ == 0) return build();
  auto it = index_.find(probe_);
  if (it != index_.end()) {
    ++stats.dt_cache_hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  ++stats.dt_cache_misses;
  mpisim::Datatype dt = build();
  lru_.emplace_front(probe_, dt);
  index_.emplace(lru_.front().first, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  return dt;
}

mpisim::Datatype DatatypeCache::strided_type(
    std::span<const std::size_t> strides, const StridedSpec& spec,
    mpisim::BasicType elem, Stats& stats) {
  std::vector<std::uint64_t>& w = probe_.words;
  w.clear();
  w.push_back(kTagStrided);
  w.push_back(static_cast<std::uint64_t>(elem));
  w.push_back(static_cast<std::uint64_t>(spec.stride_levels));
  w.insert(w.end(), spec.count.begin(), spec.count.end());
  w.insert(w.end(), strides.begin(), strides.end());
  return get_or_build(
      stats, [&] { return make_strided_type(strides, spec, elem); });
}

mpisim::Datatype DatatypeCache::hindexed_type(
    std::span<const std::size_t> blocklens,
    std::span<const std::ptrdiff_t> displs_bytes, mpisim::BasicType elem,
    Stats& stats) {
  std::vector<std::uint64_t>& w = probe_.words;
  w.clear();
  w.push_back(kTagHindexed);
  w.push_back(static_cast<std::uint64_t>(elem));
  w.insert(w.end(), blocklens.begin(), blocklens.end());
  for (std::ptrdiff_t d : displs_bytes)
    w.push_back(static_cast<std::uint64_t>(d));
  return get_or_build(stats, [&] {
    return mpisim::Datatype::hindexed(blocklens, displs_bytes,
                                      mpisim::Datatype::basic(elem));
  });
}

}  // namespace armci
