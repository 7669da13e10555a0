// Tests for the observability layer: log-bucketed latency histograms with
// percentile queries, the per-rank virtual-time trace ring buffer (begin/end
// events around every one-sided op), per-window lock/epoch counters, and the
// JSON exporters (armci-metrics-v1 and Chrome trace_event), including a
// round trip of every counter table through armci-metrics-v1.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "src/armci/armci.hpp"
#include "src/armci/state.hpp"
#include "src/mpisim/checker.hpp"
#include "src/mpisim/hb.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/trace.hpp"

namespace armci {
namespace {

using mpisim::Platform;
using mpisim::RankTrace;
using mpisim::TraceEvent;

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogramTest, EmptyReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_ns(), 0.0);
  EXPECT_EQ(h.mean_ns(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.percentile(0.95), 0.0);
}

TEST(LatencyHistogramTest, SingleSampleClampsToExactMax) {
  LatencyHistogram h;
  h.record(5.0);  // bucket [4, 8): upper edge 8 must clamp to the true max
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile(0.5), 5.0);
  EXPECT_EQ(h.percentile(0.95), 5.0);
  EXPECT_EQ(h.max_ns(), 5.0);
  EXPECT_EQ(h.mean_ns(), 5.0);
}

TEST(LatencyHistogramTest, PercentileIsBucketUpperEdge) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(3.0);   // bucket [2, 4)
  for (int i = 0; i < 5; ++i) h.record(1000.0);  // bucket [512, 1024)
  EXPECT_EQ(h.count(), 105u);
  // ceil(0.50 * 105) = 53 and ceil(0.95 * 105) = 100 samples are reached
  // within the [2, 4) bucket, so both percentiles report its upper edge.
  EXPECT_EQ(h.percentile(0.50), 4.0);
  EXPECT_EQ(h.percentile(0.95), 4.0);
  // ceil(0.99 * 105) = 104 lands in [512, 1024); the 1024 edge clamps to
  // the exact maximum.
  EXPECT_EQ(h.percentile(0.99), 1000.0);
  EXPECT_EQ(h.max_ns(), 1000.0);
  EXPECT_DOUBLE_EQ(h.mean_ns(), (100.0 * 3.0 + 5.0 * 1000.0) / 105.0);
}

TEST(LatencyHistogramTest, SubNanosecondSamplesLandInFirstBucket) {
  LatencyHistogram h;
  h.record(0.25);
  h.record(0.0);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.percentile(0.5), 0.25);  // bucket edge 2.0 clamped to max
}

TEST(LatencyHistogramTest, ResetZeroesEverything) {
  LatencyHistogram h;
  h.record(100.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_ns(), 0.0);
  EXPECT_EQ(h.sum_ns(), 0.0);
  EXPECT_EQ(h.percentile(0.95), 0.0);
}

// ---------------------------------------------------------------------------
// Trace events from live operations
// ---------------------------------------------------------------------------

/// Number of balanced begin/end pairs of `name`, asserting every end comes
/// at or after its begin (virtual time never runs backwards within an op).
int matched_pairs(const std::vector<TraceEvent>& events, const char* name) {
  int pairs = 0;
  std::vector<double> begins;
  for (const TraceEvent& e : events) {
    if (std::strcmp(e.name, name) != 0) continue;
    if (e.phase == 'B') {
      begins.push_back(e.ts_ns);
    } else if (e.phase == 'E') {
      if (begins.empty()) {
        ADD_FAILURE() << "unmatched end event for " << name;
        continue;
      }
      EXPECT_GE(e.ts_ns, begins.back()) << name;
      begins.pop_back();
      ++pairs;
    }
  }
  EXPECT_TRUE(begins.empty()) << "unmatched begin event for " << name;
  return pairs;
}

TEST(TraceTest, EveryOneSidedOpEmitsBeginEndPairs) {
  mpisim::run(2, Platform::infiniband, [] {
    Options o;
    o.metrics = true;
    o.trace = true;
    init(o);
    std::vector<void*> bases = malloc_world(1024);
    create_mutexes(1);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<char> local(256);
      std::iota(local.begin(), local.end(), 0);
      put(local.data(), bases[1], 64, 1);
      get(bases[1], local.data(), 64, 1);
      const double one = 1.0;
      double d[4] = {1, 2, 3, 4};
      acc(AccType::float64, &one, d, bases[1], 32, 1);

      StridedSpec s;
      s.stride_levels = 1;
      s.count = {32, 4};
      s.src_strides = {32};
      s.dst_strides = {64};
      put_strided(local.data(), bases[1], s, 1);

      Giov g;
      g.bytes = 16;
      for (int i = 0; i < 4; ++i) {
        g.src.push_back(local.data() + i * 16);
        g.dst.push_back(static_cast<char*>(bases[1]) + 512 + i * 32);
      }
      put_iov({&g, 1}, 1);

      std::int64_t old = 0;
      rmw(RmwOp::fetch_and_add_long, &old, bases[1], 1, 1);
      lock(0, 0);
      unlock(0, 0);

      const std::vector<TraceEvent> ev = mpisim::tracer().events();
      EXPECT_EQ(matched_pairs(ev, "armci.put"), 1);
      EXPECT_EQ(matched_pairs(ev, "armci.get"), 1);
      EXPECT_EQ(matched_pairs(ev, "armci.acc"), 1);
      EXPECT_EQ(matched_pairs(ev, "armci.put_strided"), 1);
      EXPECT_EQ(matched_pairs(ev, "armci.put_iov"), 1);
      EXPECT_EQ(matched_pairs(ev, "armci.rmw"), 1);
      EXPECT_EQ(matched_pairs(ev, "armci.lock"), 1);
      // Two mutex round-trips: the MPI-2 backend implements rmw through
      // the queueing-mutex protocol, plus the explicit lock()/unlock().
      EXPECT_EQ(matched_pairs(ev, "qmutex.lock"), 2);
      EXPECT_EQ(matched_pairs(ev, "qmutex.unlock"), 2);
      // Backend hooks nest inside the API pairs: 3 contiguous transfers.
      EXPECT_EQ(matched_pairs(ev, "mpi.contig"), 3);
      EXPECT_GE(matched_pairs(ev, "win.lock_excl"), 3);
      EXPECT_EQ(mpisim::tracer().dropped(), 0u);

      // Per-window counters: the data window saw exclusive epochs.
      std::uint64_t excl = 0, epochs = 0;
      for (const auto& [id, ws] : mpisim::tracer().win_stats()) {
        excl += ws.exclusive_locks;
        epochs += ws.epochs;
      }
      EXPECT_GE(excl, 3u);
      EXPECT_GE(epochs, 3u);

      // The registry recorded one latency sample per op class, each with
      // positive virtual duration on the InfiniBand profile.
      for (int c = 0; c < kOpClassCount; ++c) {
        const auto cls = static_cast<OpClass>(c);
        EXPECT_EQ(metrics().op(cls).latency.count(), 1u)
            << op_class_name(cls);
        EXPECT_GT(metrics().op(cls).latency.max_ns(), 0.0)
            << op_class_name(cls);
      }
    }
    barrier();
    destroy_mutexes();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST(TraceTest, DisabledByDefaultAndCostsNothing) {
  mpisim::run(2, Platform::ideal, [] {
    init({});
    std::vector<void*> bases = malloc_world(64);
    barrier();
    if (mpisim::rank() == 0) {
      char c = 1;
      put(&c, bases[1], 1, 1);
      EXPECT_FALSE(mpisim::tracer().enabled());
      EXPECT_TRUE(mpisim::tracer().events().empty());
      EXPECT_EQ(metrics().op(OpClass::put).latency.count(), 0u);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST(TraceTest, RingBufferOverwritesOldestAndCountsDrops) {
  mpisim::run(2, Platform::ideal, [] {
    Options o;
    o.trace = true;
    o.trace_capacity = 8;
    init(o);
    std::vector<void*> bases = malloc_world(64);
    barrier();
    if (mpisim::rank() == 0) {
      char c = 1;
      for (int i = 0; i < 16; ++i) put(&c, bases[1], 1, 1);
      EXPECT_EQ(mpisim::tracer().events().size(), 8u);
      EXPECT_GT(mpisim::tracer().total_events(), 8u);
      EXPECT_EQ(mpisim::tracer().dropped(),
                mpisim::tracer().total_events() - 8u);
      // Chronological order survives the wrap-around.
      double prev = -1.0;
      for (const TraceEvent& e : mpisim::tracer().events()) {
        EXPECT_GE(e.ts_ns, prev);
        prev = e.ts_ns;
      }
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST(TraceTest, ResetStatsClearsLatencyHistograms) {
  mpisim::run(2, Platform::ideal, [] {
    Options o;
    o.metrics = true;
    init(o);
    std::vector<void*> bases = malloc_world(64);
    barrier();
    if (mpisim::rank() == 0) {
      char c = 1;
      put(&c, bases[1], 1, 1);
      EXPECT_EQ(metrics().op(OpClass::put).latency.count(), 1u);
      reset_stats();
      EXPECT_EQ(metrics().op(OpClass::put).latency.count(), 0u);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// ---------------------------------------------------------------------------
// JSON exporters
// ---------------------------------------------------------------------------

/// Minimal structural JSON check: braces/brackets balance outside strings
/// and every string closes.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_str = false, esc = false;
  for (char c : s) {
    if (in_str) {
      if (esc)
        esc = false;
      else if (c == '\\')
        esc = true;
      else if (c == '"')
        in_str = false;
      continue;
    }
    if (c == '"')
      in_str = true;
    else if (c == '{' || c == '[')
      ++depth;
    else if (c == '}' || c == ']')
      if (--depth < 0) return false;
  }
  return depth == 0 && !in_str;
}

TEST(TraceJsonTest, ChromeTraceDocumentIsWellFormed) {
  RankTrace r0, r1;
  r0.rank = 0;
  r0.events.push_back({"armci.put", mpisim::TraceCat::api, 'B', 100.0, 64});
  r0.events.push_back({"armci.put", mpisim::TraceCat::api, 'E', 350.0, 64});
  r1.rank = 1;
  r1.events.push_back({"win.lock_excl", mpisim::TraceCat::window, 'B', 10.0,
                       1});
  r1.events.push_back({"win.lock_excl", mpisim::TraceCat::window, 'E', 20.0,
                       1});
  const std::string doc = mpisim::chrome_trace_json({r0, r1});
  EXPECT_TRUE(json_balanced(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(doc.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"window\""), std::string::npos);
  // 100 ns -> 0.1 us: timestamps are microseconds in the Chrome format.
  EXPECT_NE(doc.find("\"ts\":0.1"), std::string::npos);
}

TEST(TraceJsonTest, EmptyTraceIsStillValid) {
  const std::string doc = mpisim::chrome_trace_json({});
  EXPECT_TRUE(json_balanced(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceJsonTest, MetricsDocumentIsWellFormed) {
  mpisim::run(2, Platform::infiniband, [] {
    Options o;
    o.metrics = true;
    o.trace = true;
    init(o);
    std::vector<void*> bases = malloc_world(256);
    barrier();
    if (mpisim::rank() == 0) {
      char buf[64] = {};
      put(buf, bases[1], 64, 1);
      get(bases[1], buf, 32, 1);
      const std::string doc = metrics_json();
      EXPECT_TRUE(json_balanced(doc)) << doc;
      EXPECT_NE(doc.find("\"schema\":\"armci-metrics-v1\""),
                std::string::npos);
      EXPECT_NE(doc.find("\"rank\":0"), std::string::npos);
      EXPECT_NE(doc.find("\"put\":{\"count\":1"), std::string::npos);
      EXPECT_NE(doc.find("\"get\":{\"count\":1"), std::string::npos);
      EXPECT_NE(doc.find("\"windows\":["), std::string::npos);
      EXPECT_NE(doc.find("\"exclusive_locks\""), std::string::npos);
      EXPECT_NE(doc.find("\"trace\":{\"enabled\":true"), std::string::npos);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// ---------------------------------------------------------------------------
// Counter tables through armci-metrics-v1
// ---------------------------------------------------------------------------

#define ARMCI_TEST_ONE(...) +1
constexpr std::size_t kStatsCounters = 0 ARMCI_STATS_COUNTERS(ARMCI_TEST_ONE);

// Every uint64 field of a counter struct is a table entry, so a counter
// added beside the table rather than to it (and so never exported) fails
// to compile here. Stats keeps four fields outside its table, exported by
// the hand-written "progress" object: progress_ticks/progress_retires and
// the two overlap gauges.
static_assert(sizeof(Stats) == (kStatsCounters + 2) * sizeof(std::uint64_t) +
                                   2 * sizeof(double));
static_assert(sizeof(mpisim::WinStats) ==
              (0 MPISIM_WIN_STATS(ARMCI_TEST_ONE)) * sizeof(std::uint64_t));
static_assert(sizeof(mpisim::RmaCheckCounts) ==
              mpisim::kRmaViolationCount * sizeof(std::uint64_t));
static_assert(sizeof(mpisim::HbRaceCounts) ==
              (mpisim::kHbRaceCount + 1) * sizeof(std::uint64_t));  // overflow

/// The first JSON object in \p doc whose text follows \p prefix, from its
/// '{' to its '}' (counter objects are flat, so that is the next '}').
std::string object_after(const std::string& doc, const std::string& prefix) {
  std::size_t at = doc.find(prefix);
  if (at == std::string::npos) return {};
  at = doc.rfind('{', at + prefix.size() - 1);
  return doc.substr(at, doc.find('}', at) - at + 1);
}

std::string object_named(const std::string& doc, const char* name) {
  return object_after(doc, std::string("\"") + name + "\":{");
}

/// Walks one exported object in table order: each key must appear exactly
/// once, after the previous key, with the expected value.
class KeyWalk {
 public:
  explicit KeyWalk(std::string object) : object_(std::move(object)) {}

  void expect(const char* key, std::uint64_t value) {
    const std::string pattern = std::string("\"") + key + "\":";
    const std::size_t at = object_.find(pattern);
    ++keys_;
    if (at == std::string::npos) {
      ADD_FAILURE() << key << " missing from " << object_;
      return;
    }
    EXPECT_EQ(object_.find(pattern, at + 1), std::string::npos)
        << key << " repeated in " << object_;
    EXPECT_TRUE(at > last_) << key << " out of table order in " << object_;
    last_ = at;
    EXPECT_EQ(std::strtoull(object_.c_str() + at + pattern.size(), nullptr,
                            10),
              value)
        << key;
  }

  /// The object holds the walked keys plus \p others, and nothing else.
  void expect_no_other_keys(std::size_t others = 0) const {
    std::size_t keys = 0;
    for (std::size_t at = object_.find("\":"); at != std::string::npos;
         at = object_.find("\":", at + 1))
      ++keys;
    EXPECT_EQ(keys, keys_ + others) << object_;
  }

 private:
  std::string object_;
  std::size_t last_ = 0;
  std::size_t keys_ = 0;
};

// Every Stats counter at UINT64_MAX needs 20 digits: the export must stay
// well-formed JSON and keep every key however wide its numbers get.
TEST(MetricsJsonTest, MaxCountersStayWellFormed) {
  mpisim::run(1, Platform::infiniband, [] {
    init(Options{});
    Stats& s = state().stats;
#define ARMCI_TEST_SET_MAX(object, field) s.field = UINT64_MAX;
    ARMCI_STATS_COUNTERS(ARMCI_TEST_SET_MAX)
#undef ARMCI_TEST_SET_MAX
    const std::string doc = metrics_json();  // re-syncs the two checker ones
    EXPECT_TRUE(json_balanced(doc)) << doc;
    EXPECT_NE(doc.find("\"trace\":{\"enabled\":false,"), std::string::npos)
        << doc;
#define ARMCI_TEST_FIND_KEY(object, field)                                  \
  EXPECT_NE(object_named(doc, #object).find("\"" #field "\":"),            \
            std::string::npos)                                             \
      << #field;
    ARMCI_STATS_COUNTERS(ARMCI_TEST_FIND_KEY)
#undef ARMCI_TEST_FIND_KEY
    EXPECT_NE(doc.find("\"puts\":18446744073709551615,"), std::string::npos);
    EXPECT_NE(doc.find("\"am_terminations\":18446744073709551615}"),
              std::string::npos);
    finalize();
  });
}

// Each table entry gets a distinct value; each key must come back exactly
// once, in table order, with that value, in its object.
TEST(MetricsJsonTest, EveryCounterRoundTripsOnceInItsObject) {
  mpisim::run(1, Platform::infiniband, [] {
    Options o;
    o.trace = true;  // the windows array lists the tracer's WinStats
    init(o);
    ProcState& st = state();
    std::uint64_t next = 1000;
#define ARMCI_TEST_SET(object, field) st.stats.field = ++next;
    ARMCI_STATS_COUNTERS(ARMCI_TEST_SET)
#undef ARMCI_TEST_SET
    // stats() reports these two as the checker's total (0 here) minus the
    // baseline, so a baseline of -v reads back as v.
    st.rma_conflicts_baseline = 0 - st.stats.rma_conflicts;
    st.rma_races_baseline = 0 - st.stats.rma_races;
    constexpr std::uint64_t kWinId = 1u << 30;  // no real window's id
    mpisim::WinStats& counts = mpisim::tracer().win(kWinId);
#define ARMCI_TEST_SET_WIN(name) counts.name = ++next;
    MPISIM_WIN_STATS(ARMCI_TEST_SET_WIN)
#undef ARMCI_TEST_SET_WIN

    const std::string doc = metrics_json();
    ASSERT_TRUE(json_balanced(doc)) << doc;
    std::uint64_t want = 1000;
    KeyWalk counters(object_named(doc, "counters"));
    KeyWalk am(object_named(doc, "am"));
#define ARMCI_TEST_WALK(object, field) object.expect(#field, ++want);
    ARMCI_STATS_COUNTERS(ARMCI_TEST_WALK)
#undef ARMCI_TEST_WALK
    counters.expect_no_other_keys();
    am.expect_no_other_keys();

    KeyWalk win(object_after(doc, "{\"win_id\":" + std::to_string(kWinId)));
    win.expect("win_id", kWinId);
#define ARMCI_TEST_WALK_WIN(name) win.expect(#name, ++want);
    MPISIM_WIN_STATS(ARMCI_TEST_WALK_WIN)
#undef ARMCI_TEST_WALK_WIN
    win.expect_no_other_keys(1);  // "gmr_id":null

    // The checkers' counters only move on a violation: all read 0 here.
#define ARMCI_TEST_WALK_ZERO(name) walk.expect(#name, 0);
    {
      KeyWalk walk(object_named(doc, "rma_check"));
      MPISIM_RMA_VIOLATIONS(ARMCI_TEST_WALK_ZERO)
      walk.expect_no_other_keys(1);  // "mode"
    }
    {
      KeyWalk walk(object_named(doc, "rma_race"));
      MPISIM_HB_RACES(ARMCI_TEST_WALK_ZERO)
      walk.expect("overflow", 0);
      walk.expect_no_other_keys();
    }
#undef ARMCI_TEST_WALK_ZERO
    finalize();
  });
}

}  // namespace
}  // namespace armci
