#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "perfbench/src/bench.hpp"
#include "src/armci/armci.hpp"
#include "src/mpisim/runtime.hpp"

namespace perfbench {

double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

Usage usage_of(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

}  // namespace

Usage usage_self() { return usage_of(RUSAGE_SELF); }
Usage usage_thread() { return usage_of(RUSAGE_THREAD); }

void PhaseStamps::run_called() { run_called_ = host_now_s(); }

void PhaseStamps::setup_done() {
  Rank& me = rank_[static_cast<std::size_t>(mpisim::rank())];
  me.setup_host = host_now_s();
  const Usage t = usage_thread();
  me.setup_cpu = t.user_s + t.sys_s;
}

void PhaseStamps::timed_begin() {
  const int r = mpisim::rank();
  Rank& me = rank_[static_cast<std::size_t>(r)];
  if (r == 0) self_begin_ = usage_self();
  const Usage t = usage_thread();
  me.cpu_begin = t.user_s + t.sys_s;
  me.begin_virt = mpisim::clock().now_ns();
  me.begin_host = host_now_s();
}

void PhaseStamps::timed_end() {
  Rank& me = rank_[static_cast<std::size_t>(mpisim::rank())];
  me.end_host = host_now_s();
  me.end_virt = mpisim::clock().now_ns();
  const Usage t = usage_thread();
  me.cpu_end = t.user_s + t.sys_s;
}

void PhaseStamps::timed_closed() {
  const int r = mpisim::rank();
  rank_[static_cast<std::size_t>(r)].closed_host = host_now_s();
  if (r == 0) self_end_ = usage_self();
}

void PhaseStamps::fill_setup(RepResult& out) const {
  double setup_end = 0;
  out.setup_cpu_s = 0;
  for (const Rank& r : rank_) {
    setup_end = std::max(setup_end, r.setup_host);
    out.setup_cpu_s += r.setup_cpu;
  }
  out.setup_s = setup_end - run_called_;
}

void PhaseStamps::fill(RepResult& out) const {
  fill_setup(out);
  double begin = rank_[0].begin_host, closed = 0;
  double virt = 0, vend_min = rank_[0].end_virt, vend_max = 0, util = 0;
  for (const Rank& r : rank_) {
    begin = std::min(begin, r.begin_host);
    closed = std::max(closed, r.closed_host);
    virt = std::max(virt, r.end_virt - r.begin_virt);
    vend_min = std::min(vend_min, r.end_virt);
    vend_max = std::max(vend_max, r.end_virt);
    const double wall = r.end_host - r.begin_host;
    if (wall > 0) util += (r.cpu_end - r.cpu_begin) / wall;
  }
  out.wall_s = closed - begin;
  out.user_s = self_end_.user_s - self_begin_.user_s;
  out.sys_s = self_end_.sys_s - self_begin_.sys_s;
  out.ctx_switches = self_end_.ctx_switches - self_begin_.ctx_switches;
  out.rank_cpu_util = util / kRanks;
  out.virt_s = virt * 1e-9;
  out.skew_virt_s = (vend_max - vend_min) * 1e-9;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto idx =
      static_cast<std::size_t>(std::max(0.0, std::ceil(p * n) - 1));
  return v[std::min(idx, v.size() - 1)];
}

double weighted_percentile(const std::vector<double>& v,
                           const std::vector<double>& w, double p) {
  if (v.empty()) return 0.0;
  std::vector<std::size_t> order(v.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  double total = 0;
  for (double x : w) total += x;
  double acc = 0;
  for (std::size_t i : order) {
    acc += w[i];
    if (acc >= p * total) return v[i];
  }
  return v[order.back()];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

LayerSnap LayerSnap::take() {
  LayerSnap s;
  s.stats = armci::stats();
  const armci::MetricsRegistry& m = armci::metrics();
  for (int c = 0; c < armci::kOpClassCount; ++c) {
    const auto& h = m.op(static_cast<armci::OpClass>(c)).latency;
    const auto ci = static_cast<std::size_t>(c);
    for (int b = 0; b < armci::LatencyHistogram::kBuckets; ++b)
      s.buckets[ci][static_cast<std::size_t>(b)] = h.bucket(b);
    s.max_ns[ci] = h.max_ns();
  }
  for (const auto& [id, w] : mpisim::tracer().win_stats()) {
    s.win.exclusive_locks += w.exclusive_locks;
    s.win.shared_locks += w.shared_locks;
    s.win.lock_alls += w.lock_alls;
    s.win.flushes += w.flushes;
    s.win.epochs += w.epochs;
  }
  return s;
}

void reset_layer_counters() {
  armci::reset_stats();
  mpisim::tracer().clear();
}

namespace {

/// Percentile of a log2-bucketed histogram, with the semantics of
/// armci::LatencyHistogram::percentile (upper bucket edge, clamped to max).
double bucket_percentile(
    const std::array<std::uint64_t, armci::LatencyHistogram::kBuckets>& b,
    double max_ns, double p) {
  std::uint64_t total = 0;
  for (std::uint64_t x : b) total += x;
  if (total == 0) return 0.0;
  const double want = p * static_cast<double>(total);
  std::uint64_t acc = 0;
  for (int i = 0; i < armci::LatencyHistogram::kBuckets; ++i) {
    acc += b[static_cast<std::size_t>(i)];
    if (static_cast<double>(acc) >= want)
      return std::min(std::ldexp(1.0, i + 1), max_ns);
  }
  return max_ns;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void add_layer_counters(const std::vector<LayerSnap>& snaps, double ops,
                        RepResult& out) {
  armci::Stats sum;
  mpisim::WinStats win;
  std::array<std::array<std::uint64_t, armci::LatencyHistogram::kBuckets>,
             armci::kOpClassCount>
      buckets{};
  std::array<double, armci::kOpClassCount> max_ns{};
  for (const LayerSnap& s : snaps) {
    sum.coalesced_epochs += s.stats.coalesced_epochs;
    sum.flushed_queues += s.stats.flushed_queues;
    sum.overlap_comm_ns += s.stats.overlap_comm_ns;
    sum.overlap_hidden_ns += s.stats.overlap_hidden_ns;
    sum.rma_conflicts += s.stats.rma_conflicts;
    sum.ga_multi_owner_ops += s.stats.ga_multi_owner_ops;
    sum.ga_owner_fanout += s.stats.ga_owner_fanout;
    sum.ga_nb_batches += s.stats.ga_nb_batches;
    sum.am_sent += s.stats.am_sent;
    sum.am_served += s.stats.am_served;
    win.exclusive_locks += s.win.exclusive_locks;
    win.flushes += s.win.flushes;
    win.epochs += s.win.epochs + s.win.lock_alls;
    for (std::size_t c = 0; c < buckets.size(); ++c) {
      for (std::size_t b = 0; b < buckets[c].size(); ++b)
        buckets[c][b] += s.buckets[c][b];
      max_ns[c] = std::max(max_ns[c], s.max_ns[c]);
    }
  }
  const std::pair<const char*, armci::OpClass> classes[] = {
      {"put", armci::OpClass::put},
      {"get", armci::OpClass::get},
      {"acc", armci::OpClass::acc},
      {"strided", armci::OpClass::strided},
      {"rmw", armci::OpClass::rmw},
  };
  for (const auto& [name, cls] : classes) {
    const auto c = static_cast<std::size_t>(cls);
    std::uint64_t count = 0;
    for (std::uint64_t x : buckets[c]) count += x;
    const std::string k = std::string("armci.") + name;
    out.layer[k + ".count"] = static_cast<double>(count);
    out.layer[k + ".virt_p50_us"] =
        bucket_percentile(buckets[c], max_ns[c], 0.50) * 1e-3;
    out.layer[k + ".virt_p99_us"] =
        bucket_percentile(buckets[c], max_ns[c], 0.99) * 1e-3;
  }
  out.layer["armci.nb_coalesce_ratio"] =
      ratio(static_cast<double>(sum.coalesced_epochs),
            static_cast<double>(sum.flushed_queues));
  out.layer["armci.overlap_efficiency"] =
      ratio(sum.overlap_hidden_ns, sum.overlap_comm_ns);
  out.layer["armci.rma_conflicts"] = static_cast<double>(sum.rma_conflicts);
  out.layer["mpisim.epochs_per_op"] =
      ratio(static_cast<double>(win.epochs), ops);
  out.layer["mpisim.exclusive_locks"] =
      static_cast<double>(win.exclusive_locks);
  out.layer["mpisim.flushes"] = static_cast<double>(win.flushes);
  out.layer["ga.multi_owner_ops"] =
      static_cast<double>(sum.ga_multi_owner_ops);
  out.layer["ga.mean_owner_fanout"] =
      ratio(static_cast<double>(sum.ga_owner_fanout),
            static_cast<double>(sum.ga_multi_owner_ops));
  out.layer["ga.nb_batches_per_op"] =
      ratio(static_cast<double>(sum.ga_nb_batches),
            static_cast<double>(sum.ga_multi_owner_ops));
  out.layer["am.sent"] = static_cast<double>(sum.am_sent);
  out.layer["am.served"] = static_cast<double>(sum.am_served);
}

void note_failure(RepResult& r, const std::string& what) {
  ++r.failed;
  if (r.errors.size() < 8) r.errors.push_back(what);
}

}  // namespace perfbench
