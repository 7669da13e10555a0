// Ablation A1 (paper §VI-B): IOV overlap detection cost -- the conflict
// tree's O(N log N) check-and-insert versus the naive O(N^2)
// pairwise scan, over descriptor sizes up to NWChem scale (hundreds of
// thousands of segments). This is a real-wall-clock benchmark: the scan is
// local CPU work, not modeled communication.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench/report.hpp"
#include "src/armci/iov.hpp"

namespace {

/// Wall time per iteration of each benchmark's latest invocation, in first-
/// run order. google-benchmark invokes a benchmark function several times
/// while it sizes the iteration count (the first a cold one-iteration
/// probe); only the final invocation's figure is reported.
std::vector<std::pair<std::string, double>>& wall_points() {
  static std::vector<std::pair<std::string, double>> points;
  return points;
}

/// Record approximate wall time per iteration into the bench report (the
/// precise statistics remain google-benchmark's console/JSON output): one
/// point per benchmark name, overwritten by each later invocation.
class WallPoint {
 public:
  WallPoint(const char* what, std::size_t n)
      : name_(std::string(what) + "/n:" + std::to_string(n)),
        start_(std::chrono::steady_clock::now()) {}

  void close(benchmark::IterationCount iters) {
    const std::chrono::duration<double> secs =
        std::chrono::steady_clock::now() - start_;
    if (iters <= 0) return;
    const double per_iter = secs.count() / static_cast<double>(iters);
    auto& points = wall_points();
    auto it = std::find_if(points.begin(), points.end(),
                           [&](const auto& p) { return p.first == name_; });
    if (it != points.end())
      it->second = per_iter;
    else
      points.emplace_back(name_, per_iter);
  }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

std::vector<const void*> make_segments(std::size_t n, std::size_t bytes,
                                       bool shuffled) {
  std::vector<const void*> ptrs(n);
  for (std::size_t i = 0; i < n; ++i)
    ptrs[i] = reinterpret_cast<const void*>(0x100000 + i * bytes * 2);
  if (shuffled) {
    std::mt19937_64 rng(12345);
    std::shuffle(ptrs.begin(), ptrs.end(), rng);
  }
  return ptrs;
}

void BM_ConflictTree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t bytes = 64;
  const auto ptrs = make_segments(n, bytes, /*shuffled=*/true);
  WallPoint point("ConflictTree", n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(armci::iov_has_overlap(ptrs, bytes));
  }
  point.close(state.iterations());
  state.SetComplexityN(state.range(0));
}

void BM_NaiveScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t bytes = 64;
  const auto ptrs = make_segments(n, bytes, /*shuffled=*/true);
  WallPoint point("NaiveScan", n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(armci::iov_has_overlap_naive(ptrs, bytes));
  }
  point.close(state.iterations());
  state.SetComplexityN(state.range(0));
}

// Sorted (in-order) insertion: the adversarial case a non-balancing tree
// degrades on; for the blocked tree it is the append-only fast path.
void BM_ConflictTreeSorted(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t bytes = 64;
  const auto ptrs = make_segments(n, bytes, /*shuffled=*/false);
  WallPoint point("ConflictTreeSorted", n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(armci::iov_has_overlap(ptrs, bytes));
  }
  point.close(state.iterations());
  state.SetComplexityN(state.range(0));
}

}  // namespace

BENCHMARK(BM_ConflictTree)->RangeMultiplier(4)->Range(16, 1 << 17)
    ->Complexity(benchmark::oNLogN);
BENCHMARK(BM_ConflictTreeSorted)->RangeMultiplier(4)->Range(16, 1 << 17)
    ->Complexity(benchmark::oNLogN);
// The naive scan is capped at 2^13 segments; beyond that the quadratic cost
// dominates the whole benchmark run (that is the point of the ablation).
BENCHMARK(BM_NaiveScan)->RangeMultiplier(4)->Range(16, 1 << 13)
    ->Complexity(benchmark::oNSquared);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  for (const auto& [name, secs] : wall_points())
    bench::Reporter::instance().add_point(name, secs, "s_per_iter");
  bench::write_report("bench_conflict_tree");
  benchmark::Shutdown();
  return 0;
}
