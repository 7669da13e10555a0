#ifndef PERFBENCH_RNG_HPP
#define PERFBENCH_RNG_HPP

/// \file rng.hpp
/// Seeded generator for the benchmark's op streams (splitmix64): the same
/// --seed always yields the same inputs, independent of the host.

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64 finalizer: a bijective 64-bit mix.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  /// Stream \p stream of seed \p seed (independent per stream).
  Rng(std::uint64_t seed, std::uint64_t stream)
      : state_(mix64(seed) ^ mix64(stream + 0x5851f42d4c957f2dull)) {}

  std::uint64_t next() { return mix64(state_ += 0x9e3779b97f4a7c15ull); }

  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

 private:
  std::uint64_t state_;
};

/// Fisher-Yates shuffle of \p v.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

/// \p n draws from [0, 1) in random order, stratified over \p strata equal
/// intervals (the same count falls in each). Op-stream properties drawn
/// this way keep nearly the same distribution under every seed, so the
/// seed mostly reorders and relocates the work rather than changing how
/// much of it there is; within a stratum the draws stay uniform, so order
/// statistics still vary continuously with the seed.
inline std::vector<double> stratified(std::size_t n, std::size_t strata,
                                      Rng& rng) {
  std::vector<double> u(n);
  for (std::size_t j = 0; j < n; ++j)
    u[j] = (static_cast<double>(j % strata) + rng.unit()) /
           static_cast<double>(strata);
  shuffle(u, rng);
  return u;
}

}  // namespace perfbench

#endif  // PERFBENCH_RNG_HPP
