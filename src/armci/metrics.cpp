#include "src/armci/metrics.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string_view>

#include "src/armci/state.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/trace.hpp"

namespace armci {

const char* op_class_name(OpClass c) noexcept {
  static constexpr const char* kNames[] = {
      ARMCI_OP_CLASSES(MPISIM_COUNTER_NAME)};
  const auto i = static_cast<std::size_t>(c);
  return i < std::size(kNames) ? kNames[i] : "?";
}

namespace {

int bucket_of(double ns) noexcept {
  if (!(ns >= 1.0)) return 0;  // sub-ns and NaN land in the first bucket
  const auto n = static_cast<std::uint64_t>(ns);
  const int i = std::bit_width(n) - 1;
  return i >= LatencyHistogram::kBuckets ? LatencyHistogram::kBuckets - 1 : i;
}

double bucket_upper_ns(int i) noexcept {
  return std::ldexp(1.0, i + 1);  // 2^(i+1)
}

}  // namespace

void LatencyHistogram::record(double ns) noexcept {
  if (ns < 0.0) ns = 0.0;
  ++buckets_[static_cast<std::size_t>(bucket_of(ns))];
  ++count_;
  sum_ns_ += ns;
  if (ns > max_ns_) max_ns_ = ns;
}

double LatencyHistogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  auto target = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(count_)));
  if (target == 0) target = 1;
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += buckets_[static_cast<std::size_t>(i)];
    if (cum >= target) {
      const double upper = bucket_upper_ns(i);
      return upper < max_ns_ ? upper : max_ns_;
    }
  }
  return max_ns_;
}

void LatencyHistogram::reset() noexcept {
  buckets_.fill(0);
  count_ = 0;
  max_ns_ = 0.0;
  sum_ns_ = 0.0;
}

OpTimer::OpTimer(ProcState& st, OpClass cls, const char* name,
                 std::uint64_t arg)
    : st_(&st),
      cls_(cls),
      name_(name),
      arg_(arg),
      start_ns_(0.0),
      metrics_(st.metrics.enabled()),
      trace_(mpisim::tracer().enabled()) {
  if (metrics_ || trace_) start_ns_ = mpisim::clock().now_ns();
  if (trace_) mpisim::tracer().begin(mpisim::TraceCat::api, name_, arg_);
}

OpTimer::~OpTimer() {
  if (trace_) mpisim::tracer().end(mpisim::TraceCat::api, name_, arg_);
  if (metrics_)
    st_->metrics.record(cls_, mpisim::clock().now_ns() - start_ns_);
}

namespace {

/// Appends printf-formatted text of any length.
void append(std::string& out, const char* fmt, ...) {
  va_list ap, again;
  va_start(ap, fmt);
  va_copy(again, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(n) + 1);
  std::vsnprintf(out.data() + at, out.size() - at, fmt, again);
  out.pop_back();  // vsnprintf's terminating NUL
  va_end(again);
  va_end(ap);
}

/// Appends `"key":v,`. end_object() turns the last comma into a `}`.
void put(std::string& out, std::string_view key, std::uint64_t v) {
  out.append("\"").append(key).append("\":");
  const std::size_t at = out.size();
  out.resize(at + std::numeric_limits<std::uint64_t>::digits10 + 1);
  const auto r = std::to_chars(out.data() + at, out.data() + out.size(), v);
  out.resize(static_cast<std::size_t>(r.ptr - out.data()));
  out += ',';
}

/// Ends the object whose last field put() wrote, ready for the next one.
void end_object(std::string& out) {
  out.back() = '}';
  out += ',';
}

constexpr struct {
  std::string_view object, key;
  std::uint64_t Stats::*field;
} kStatsEntries[] = {
#define ARMCI_STATS_ENTRY(object, field) {#object, #field, &Stats::field},
    ARMCI_STATS_COUNTERS(ARMCI_STATS_ENTRY)
#undef ARMCI_STATS_ENTRY
};

}  // namespace

// Writes counter `name` of the snapshot named `counts` in scope.
#define ARMCI_PUT_COUNT(name) put(out, #name, counts.name);

std::string metrics_json() {
  ProcState& st = state();
  const Stats& s = stats();  // syncs rma_conflicts/rma_races from checkers
  const mpisim::Tracer& tr = mpisim::tracer();

  std::string out;
  out.reserve(2048);
  append(out, "{\"schema\":\"armci-metrics-v1\",\"rank\":%d,", mpisim::rank());

  // Stats counters (stats.hpp): the "counters" and "am" objects.
  std::string_view object;
  for (const auto& e : kStatsEntries) {
    if (e.object != object) {
      if (!object.empty()) end_object(out);
      object = e.object;
      out.append("\"").append(object).append("\":{");
    }
    put(out, e.key, s.*e.field);
  }
  end_object(out);

  // Per-op-class virtual-time latency summaries.
  out += "\"ops\":{";
  for (int c = 0; c < kOpClassCount; ++c) {
    const auto cls = static_cast<OpClass>(c);
    const LatencyHistogram& h = st.metrics.op(cls).latency;
    append(out,
           "%s\"%s\":{\"count\":%llu,\"mean_ns\":%.3f,\"p50_ns\":%.3f,"
           "\"p95_ns\":%.3f,\"max_ns\":%.3f}",
           c == 0 ? "" : ",", op_class_name(cls),
           (unsigned long long)h.count(), h.mean_ns(), h.percentile(0.50),
           h.percentile(0.95), h.max_ns());
  }
  out += "},";

  // Per-window lock/epoch counters, annotated with the owning GMR where
  // one is still live (mutex-set windows report with "gmr_id":null).
  out += "\"windows\":[";
  for (const auto& [win_id, counts] : tr.win_stats()) {
    out += '{';
    put(out, "win_id", win_id);
    const auto& gmrs = st.table.all();
    const auto owner = std::find_if(gmrs.begin(), gmrs.end(), [&](auto& g) {
      return g->win.valid() && g->win.id() == win_id;
    });
    if (owner != gmrs.end())
      put(out, "gmr_id", (*owner)->id);
    else
      out += "\"gmr_id\":null,";
    MPISIM_WIN_STATS(ARMCI_PUT_COUNT)
    end_object(out);
  }
  if (out.back() == ',') out.pop_back();
  out += "],";

  // RMA validity checker (mpisim checker.hpp): mode and this rank's
  // violation counters by class. All zero on a correct run.
  {
    const mpisim::RmaChecker& chk = mpisim::ctx().core().checker();
    const mpisim::RmaCheckCounts counts = chk.counts(mpisim::rank());
    append(out, "\"rma_check\":{\"mode\":\"%s\",",
           mpisim::rma_check_name(chk.mode()));
    MPISIM_RMA_VIOLATIONS(ARMCI_PUT_COUNT)
    end_object(out);
  }

  // Happens-before race detector (mpisim hb.hpp, MPISIM_RMA_CHECK=race):
  // this rank's race counters by class, plus summaries dropped by the
  // shadow-store cap. All zero on a correctly synchronized run.
  {
    const mpisim::HbRaceCounts counts =
        mpisim::ctx().core().hb().counts(mpisim::rank());
    out += "\"rma_race\":{";
    MPISIM_HB_RACES(ARMCI_PUT_COUNT)
    put(out, "overflow", counts.overflow);
    end_object(out);
  }

  // Survivable-mode recovery gauge: virtual time between the most recently
  // observed peer death and this rank noticing it (failure-aware site or
  // read failover). -1 until a death has been observed here.
  append(out, "\"recovery\":{\"detect_latency_ns\":%.3f},",
         mpisim::ctx().last_detect_latency_ns);

  // Cooperative progress engine (nb.hpp progress_tick): tick/retire
  // counters and the measured compute/communication overlap -- how much
  // virtual communication time the engine hid under application compute.
  append(out,
         "\"progress\":{\"enabled\":%s,\"ticks\":%llu,\"retires\":%llu,"
         "\"overlap_comm_ns\":%.3f,\"overlap_hidden_ns\":%.3f,"
         "\"overlap_efficiency\":%.6f},",
         st.opts.progress ? "true" : "false",
         (unsigned long long)s.progress_ticks,
         (unsigned long long)s.progress_retires, s.overlap_comm_ns,
         s.overlap_hidden_ns, s.overlap_efficiency());

  append(out, "\"trace\":{\"enabled\":%s,\"events\":%llu,\"dropped\":%llu}}",
         tr.enabled() ? "true" : "false",
         (unsigned long long)tr.total_events(),
         (unsigned long long)tr.dropped());
  return out;
}

#undef ARMCI_PUT_COUNT

}  // namespace armci
