// ccsd: the paper's Fig. 6 application, nwproxy's CCSD sweep followed by
// the (T) phase, on the cray_xe6 profile over Backend::mpi. It is the one
// workload that loads ga (multi-owner strided patches, nb pipelining), the
// AtomicCounter rmw contention and modeled compute with progress overlap.
// One CCSD iteration keeps the amplitudes checkable against
// nwproxy::ccsd_reference_value.

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/bench.hpp"
#include "perfbench/src/rng.hpp"
#include "perfbench/src/spans.hpp"
#include "src/armci/armci.hpp"
#include "src/mpisim/comm.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/nwproxy/ccsd.hpp"

namespace perfbench {

namespace {

constexpr int kSamples = 32;  ///< amplitude elements checked per repetition

nwproxy::CcsdParams params() {
  nwproxy::CcsdParams p;
  p.no = 8;
  p.nv = 96;
  p.tile = 16;
  p.iterations = 1;
  p.mix = 1.0;  // after one sweep, t2 equals the serial reference exactly
  return p;
}

struct Inputs {
  nwproxy::CcsdParams p;
  std::vector<std::pair<std::int64_t, std::int64_t>> samples;  ///< (row, col)
  std::vector<double> expect;
};

Inputs generate(std::uint64_t seed) {
  Inputs in;
  in.p = params();
  Rng rng(seed, 0x63637364ull);
  const auto rows = static_cast<std::uint64_t>(in.p.no * in.p.no);
  const auto cols = static_cast<std::uint64_t>(in.p.nv * in.p.nv);
  for (int i = 0; i < kSamples; ++i) {
    const auto r = static_cast<std::int64_t>(rng.below(rows));
    const auto c = static_cast<std::int64_t>(rng.below(cols));
    in.samples.emplace_back(r, c);
    in.expect.push_back(nwproxy::ccsd_reference_value(
        in.p, r, c, &nwproxy::Amplitudes::ref_value));
  }
  return in;
}

}  // namespace

RepFn make_ccsd(std::uint64_t seed) {
  auto in = std::make_shared<const Inputs>(generate(seed));
  return [in](SpanLog* spans, bool setup_only) {
    RepResult res;
    PhaseStamps stamps;
    struct RankOut {
      nwproxy::PhaseResult ccsd, triples;
      double ccsd_virt_ns = 0, triples_virt_ns = 0;
      std::uint64_t bad = 0;
      std::vector<std::string> errors;
    };
    std::vector<RankOut> out(kRanks);
    std::vector<LayerSnap> snaps(kRanks);

    mpisim::Config cfg;
    cfg.nranks = kRanks;
    cfg.platform = mpisim::Platform::cray_xe6;
    stamps.run_called();
    mpisim::run(cfg, [&] {
      const int me = mpisim::rank();
      RankOut& mine = out[static_cast<std::size_t>(me)];
      const auto fail = [&mine](const std::string& what) {
        ++mine.bad;
        if (mine.errors.size() < 4) mine.errors.push_back("ccsd: " + what);
      };
      armci::Options opts;
      opts.backend = armci::Backend::mpi;
      opts.metrics = opts.trace = spans != nullptr;
      {
        SpanScope s(spans, "armci.init", Layer::armci);
        armci::init(opts);
      }
      armci::barrier();
      stamps.setup_done();
      if (setup_only) {
        armci::finalize();
        return;
      }

      nwproxy::Amplitudes t2;
      armci::barrier();
      reset_layer_counters();
      stamps.timed_begin();
      {
        SpanScope timed(spans, "bench.timed", Layer::bench);
        double v0 = mpisim::clock().now_ns();
        {
          SpanScope s(spans, "nwproxy.run_ccsd", Layer::nwproxy);
          mine.ccsd = nwproxy::run_ccsd(in->p, t2);
        }
        mine.ccsd_virt_ns = mpisim::clock().now_ns() - v0;
        v0 = mpisim::clock().now_ns();
        {
          SpanScope s(spans, "nwproxy.run_triples", Layer::nwproxy);
          mine.triples = nwproxy::run_triples(in->p, t2);
        }
        mine.triples_virt_ns = mpisim::clock().now_ns() - v0;
        stamps.timed_end();
        SpanScope s(spans, "armci.barrier", Layer::armci);
        armci::barrier();
      }
      stamps.timed_closed();
      snaps[static_cast<std::size_t>(me)] = LayerSnap::take();

      // Every task ran exactly once, and seeded amplitude elements match
      // the serial reference of one sweep.
      const std::int64_t mine_tasks[2] = {mine.ccsd.my_tasks,
                                          mine.triples.my_tasks};
      std::int64_t tasks[2] = {0, 0};
      mpisim::world().allreduce(mine_tasks, tasks, 2,
                                mpisim::BasicType::int64, mpisim::Op::sum);
      if (tasks[0] != mine.ccsd.total_tasks ||
          tasks[1] != mine.triples.total_tasks)
        fail("ranks ran " + std::to_string(tasks[0]) + "+" +
             std::to_string(tasks[1]) + " tasks, expected " +
             std::to_string(mine.ccsd.total_tasks) + "+" +
             std::to_string(mine.triples.total_tasks));
      for (int i = me; i < kSamples; i += kRanks) {
        const auto [r, c] = in->samples[static_cast<std::size_t>(i)];
        ga::Patch one;
        one.lo = {r, c};
        one.hi = {r, c};
        double got = 0.0;
        {
          SpanScope s(spans, "ga.get", Layer::ga);
          t2.array().get(one, &got);
        }
        const double want = in->expect[static_cast<std::size_t>(i)];
        if (!(std::fabs(got - want) <= 1e-10 * (1.0 + std::fabs(want))))
          fail("t2(" + std::to_string(r) + "," + std::to_string(c) + ") = " +
               std::to_string(got) + ", reference " + std::to_string(want));
      }
      armci::barrier();
      t2.destroy();
      armci::finalize();
    });

    if (setup_only) {
      stamps.fill_setup(res);
      return res;
    }
    stamps.fill(res);
    const RankOut& r0 = out[0];
    res.virt_s = r0.ccsd.virtual_seconds + r0.triples.virtual_seconds;
    res.ops = static_cast<std::uint64_t>(r0.ccsd.total_tasks +
                                         r0.triples.total_tasks);
    // nwproxy runs its task loops internally, so a task's virtual latency
    // is observable only as its rank's phase mean: each rank-phase mean is
    // one sample, weighted by the tasks it covers.
    for (const RankOut& r : out) {
      if (r.ccsd.my_tasks > 0) {
        res.op_virt_ns.push_back(r.ccsd_virt_ns /
                                 static_cast<double>(r.ccsd.my_tasks));
        res.op_weight.push_back(static_cast<double>(r.ccsd.my_tasks));
      }
      if (r.triples.my_tasks > 0) {
        res.op_virt_ns.push_back(r.triples_virt_ns /
                                 static_cast<double>(r.triples.my_tasks));
        res.op_weight.push_back(static_cast<double>(r.triples.my_tasks));
      }
      res.failed += r.bad;
      for (const auto& e : r.errors)
        if (res.errors.size() < 8) res.errors.push_back(e);
    }
    add_layer_counters(snaps, static_cast<double>(res.ops), res);
    if (spans != nullptr) {
      const double mean_virt =
          r0.ccsd.virtual_seconds_mean + r0.triples.virtual_seconds_mean;
      res.layer["nwproxy.ccsd.virt_s"] = r0.ccsd.virtual_seconds;
      res.layer["nwproxy.triples.virt_s"] = r0.triples.virtual_seconds;
      res.layer["nwproxy.ccsd.host_s"] =
          median(spans->host_ns("nwproxy.run_ccsd")) * 1e-9;
      res.layer["nwproxy.triples.host_s"] =
          median(spans->host_ns("nwproxy.run_triples")) * 1e-9;
      res.layer["nwproxy.imbalance"] =
          mean_virt > 0 ? res.virt_s / mean_virt : 0.0;
    }
    return res;
  };
}

}  // namespace perfbench
