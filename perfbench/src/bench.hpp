#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

/// \file bench.hpp
/// Shared pieces of the two-clock benchmark: the per-repetition result,
/// the host/virtual phase stamps every workload takes, resource-usage
/// probes, percentiles, and the per-layer counter snapshot a traced
/// repetition reads through the layers' public functions.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/armci/metrics.hpp"
#include "src/armci/stats.hpp"
#include "src/mpisim/trace.hpp"

namespace perfbench {

class SpanLog;

/// Every workload runs this many ranks (one rank thread per core on the
/// reference machine; main() flags hosts with fewer cores).
inline constexpr int kRanks = 4;

/// What one repetition (one mpisim::run) of a workload measured.
struct RepResult {
  double setup_s = 0.0;     ///< host: run() called -> last rank past barrier 1
  double setup_cpu_s = 0.0; ///< rank threads' CPU, start to past barrier 1
  double wall_s = 0.0;      ///< host wall of the timed phase
  double user_s = 0.0;      ///< process user CPU over the timed phase
  double sys_s = 0.0;       ///< process system CPU over the timed phase
  double ctx_switches = 0;  ///< process context switches, timed phase
  double rank_cpu_util = 0; ///< mean over ranks of thread CPU / wall
  double virt_s = 0.0;      ///< virtual seconds of the timed phase
  double skew_virt_s = 0.0; ///< spread of rank clocks at timed-phase end
  /// Per-op virtual latency samples (ns), with a weight each (1 unless the
  /// workload can only observe a mean over several ops).
  std::vector<double> op_virt_ns;
  std::vector<double> op_weight;
  /// Their weighted median and 99th percentile, and the sample count.
  double op_p50_ns = 0.0;
  double op_p99_ns = 0.0;
  std::size_t op_samples = 0;
  std::uint64_t ops = 0;     ///< workload ops attempted in the timed phase
  std::uint64_t failed = 0;  ///< ops that raised or failed verification
  std::vector<std::string> errors;  ///< first few failure descriptions
  /// Per-layer metrics: layer counters in every repetition, span-derived
  /// ones in traced repetitions only.
  std::map<std::string, double> layer;
};

/// One repetition of a workload; \p spans is null for an untraced run.
/// With \p setup_only the repetition tears down right after set-up and
/// reports only the set-up fields.
using RepFn = std::function<RepResult(SpanLog* spans, bool setup_only)>;

RepFn make_am_dht(std::uint64_t seed);
RepFn make_rma_mix(std::uint64_t seed);
RepFn make_ccsd(std::uint64_t seed);

/// Host steady-clock time in seconds.
double host_now_s();

/// getrusage() snapshot: CPU seconds and context switches.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctx_switches = 0.0;
};
Usage usage_self();
Usage usage_thread();

/// Host and virtual stamps of one repetition, written by each rank into
/// its own slot (mpisim::run's join orders them before fill()).
class PhaseStamps {
 public:
  /// Main thread, immediately before mpisim::run.
  void run_called();
  /// Each rank, after leaving the first barrier.
  void setup_done();
  /// Each rank, right after the barrier that opens the timed phase.
  void timed_begin();
  /// Each rank, when its own timed work is done (before the closing
  /// barrier): stamps its virtual end time and thread CPU.
  void timed_end();
  /// Each rank, after the barrier that closes the timed phase.
  void timed_closed();
  /// Copy the set-up measurements into \p out.
  void fill_setup(RepResult& out) const;
  /// Copy the set-up and timed-phase measurements into \p out.
  void fill(RepResult& out) const;

 private:
  struct Rank {
    double setup_host = 0, begin_host = 0, end_host = 0, closed_host = 0;
    double begin_virt = 0, end_virt = 0;
    double cpu_begin = 0, cpu_end = 0;
    double setup_cpu = 0;
  };
  double run_called_ = 0.0;
  Usage self_begin_, self_end_;
  std::array<Rank, kRanks> rank_{};
};

/// Nearest-rank percentile \p p in [0, 1] of unweighted samples.
double percentile(std::vector<double> v, double p);

/// Percentile of weighted samples: the smallest value whose cumulative
/// weight reaches p of the total.
double weighted_percentile(const std::vector<double>& v,
                           const std::vector<double>& w, double p);

/// Median of \p v (mean of the two middle values for even sizes).
double median(std::vector<double> v);

/// Per-layer counters of one rank, read at the end of the timed phase
/// through armci::stats(), armci::metrics() and mpisim::tracer().
struct LayerSnap {
  armci::Stats stats;
  std::array<std::array<std::uint64_t, armci::LatencyHistogram::kBuckets>,
             armci::kOpClassCount>
      buckets{};
  std::array<double, armci::kOpClassCount> max_ns{};
  mpisim::WinStats win;

  /// Take the calling rank's snapshot.
  static LayerSnap take();
};

/// Fold the ranks' snapshots into the armci.*, mpisim.* and ga.* layer
/// metrics of \p out (counts summed over ranks, histograms merged).
void add_layer_counters(const std::vector<LayerSnap>& snaps, double ops,
                        RepResult& out);

/// Reset the calling rank's layer counters at the start of a timed phase.
void reset_layer_counters();

/// Record a verification failure: bumps \p failed and keeps the first few
/// descriptions.
void note_failure(RepResult& r, const std::string& what);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HPP
