// Two-clock benchmark: the command-line program.
//
//     perfbench --workload am_dht|rma_mix|ccsd --seed N --seconds S
//               --trace 0|1 [--span-file PATH]
//
// Generates the workload's inputs from the seed, then repeats the workload
// (one mpisim::run per repetition) until S host seconds have passed, and
// prints each metric by name with its unit; the last stdout line is one
// JSON object {correct, attempted, failed, metrics}. --trace 0 reports the
// end-to-end metrics with Options::metrics/trace off. --trace 1 alternates
// untraced and traced repetitions and reports the per-layer metrics: spans
// and layer counters from the traced ones, OS counters from the untraced
// ones, and their wall-time ratio as bench.trace_overhead.

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.hpp"
#include "perfbench/src/spans.hpp"
#include "src/mpisim/checker.hpp"
#include "src/mpisim/runtime.hpp"

namespace {

using perfbench::Layer;
using perfbench::median;
using perfbench::RepResult;

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"}, {"host_cpu_s", "s"},     {"peak_rss_mb", "MB"},
    {"virt_s", "s"},  {"op_virt_p50_us", "us"}, {"op_virt_p99_us", "us"},
};

const Metric kPerLayer[] = {
    {"mpisim.setup_host_s", "s"},
    {"mpisim.ctx_switches_per_op", "count"},
    {"mpisim.sys_cpu_share", "ratio"},
    {"mpisim.rank_cpu_util", "ratio"},
    {"mpisim.epochs_per_op", "count"},
    {"mpisim.exclusive_locks", "count"},
    {"mpisim.flushes", "count"},
    {"mpisim.rank_skew_virt_us", "us"},
    {"armci.put.count", "count"},
    {"armci.put.virt_p50_us", "us"},
    {"armci.put.virt_p99_us", "us"},
    {"armci.get.count", "count"},
    {"armci.get.virt_p50_us", "us"},
    {"armci.get.virt_p99_us", "us"},
    {"armci.acc.count", "count"},
    {"armci.acc.virt_p50_us", "us"},
    {"armci.acc.virt_p99_us", "us"},
    {"armci.strided.count", "count"},
    {"armci.strided.virt_p50_us", "us"},
    {"armci.strided.virt_p99_us", "us"},
    {"armci.rmw.count", "count"},
    {"armci.rmw.virt_p50_us", "us"},
    {"armci.rmw.virt_p99_us", "us"},
    {"armci.put.host_p50_us", "us"},
    {"armci.put.host_p99_us", "us"},
    {"armci.get.host_p50_us", "us"},
    {"armci.get.host_p99_us", "us"},
    {"armci.acc.host_p50_us", "us"},
    {"armci.acc.host_p99_us", "us"},
    {"armci.strided.host_p50_us", "us"},
    {"armci.strided.host_p99_us", "us"},
    {"armci.nb_coalesce_ratio", "ratio"},
    {"armci.overlap_efficiency", "ratio"},
    {"armci.barrier.virt_us", "us"},
    {"armci.barrier.host_ms", "ms"},
    {"armci.rma_conflicts", "count"},
    {"armci.self_host_ms", "ms"},
    {"armci.self_virt_us", "us"},
    {"ga.multi_owner_ops", "count"},
    {"ga.mean_owner_fanout", "count"},
    {"ga.nb_batches_per_op", "count"},
    {"am.rpc.virt_p50_us", "us"},
    {"am.rpc.virt_p99_us", "us"},
    {"am.rpc.host_p50_us", "us"},
    {"am.rpc.host_p99_us", "us"},
    {"am.rpc_issue.host_p50_us", "us"},
    {"am.handler.host_p50_us", "us"},
    {"am.quiesce.virt_us", "us"},
    {"am.quiesce.host_ms", "ms"},
    {"am.sent", "count"},
    {"am.served", "count"},
    {"am.self_host_ms", "ms"},
    {"am.self_virt_us", "us"},
    {"nwproxy.ccsd.virt_s", "s"},
    {"nwproxy.triples.virt_s", "s"},
    {"nwproxy.ccsd.host_s", "s"},
    {"nwproxy.triples.host_s", "s"},
    {"nwproxy.imbalance", "ratio"},
    {"nwproxy.self_host_ms", "ms"},
    {"nwproxy.self_virt_us", "us"},
    {"bench.host_ops_per_s", "1/s"},
    {"bench.trace_overhead", "ratio"},
    {"bench.op_virt_samples", "count"},
    {"bench.self_host_ms", "ms"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_file;
};

/// Repetitions a run makes at least, however short --seconds is.
constexpr std::size_t kMinReps = 3;

/// Set-up-only repetitions a run makes first. A set-up takes about a
/// millisecond, so a run samples it many more times than a full
/// repetition fits (a ccsd repetition takes seconds).
constexpr int kSetupProbes = 50;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload am_dht|rma_mix|ccsd "
               "--seed N --seconds S --trace 0|1 [--span-file PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds must be > 0");
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      a.trace = v[0] == '1';
    } else if (k == "--span-file") {
      a.span_file = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Metrics a traced repetition derives from its spans.
void add_span_metrics(const perfbench::SpanLog& log, RepResult& r) {
  using perfbench::percentile;
  auto& m = r.layer;
  const auto host_us = [&](std::vector<const char*> names, double p) {
    std::vector<double> all;
    for (const char* n : names) {
      auto v = log.host_ns(n);
      all.insert(all.end(), v.begin(), v.end());
    }
    return percentile(all, p) * 1e-3;
  };
  for (const char* op : {"put", "get", "acc"}) {
    const std::string span = std::string("armci.") + op;
    m[span + ".host_p50_us"] = host_us({span.c_str()}, 0.50);
    m[span + ".host_p99_us"] = host_us({span.c_str()}, 0.99);
  }
  m["armci.strided.host_p50_us"] =
      host_us({"armci.put_strided", "armci.get_strided"}, 0.50);
  m["armci.strided.host_p99_us"] =
      host_us({"armci.put_strided", "armci.get_strided"}, 0.99);
  m["armci.barrier.virt_us"] = mean(log.virt_ns("armci.barrier")) * 1e-3;
  m["armci.barrier.host_ms"] = mean(log.host_ns("armci.barrier")) * 1e-6;
  m["am.rpc.virt_p50_us"] = percentile(log.virt_ns("am.rpc"), 0.50) * 1e-3;
  m["am.rpc.virt_p99_us"] = percentile(log.virt_ns("am.rpc"), 0.99) * 1e-3;
  m["am.rpc.host_p50_us"] = host_us({"am.rpc"}, 0.50);
  m["am.rpc.host_p99_us"] = host_us({"am.rpc"}, 0.99);
  m["am.rpc_issue.host_p50_us"] = host_us({"am.rpc_issue"}, 0.50);
  m["am.quiesce.virt_us"] = mean(log.virt_ns("am.quiesce")) * 1e-3;
  m["am.quiesce.host_ms"] = mean(log.host_ns("am.quiesce")) * 1e-6;
  const auto self = log.self_time();
  for (int l = 0; l < perfbench::kLayerCount; ++l) {
    const std::string name = perfbench::layer_name(static_cast<Layer>(l));
    const auto li = static_cast<std::size_t>(l);
    m[name + ".self_host_ms"] = self.host_ns[li] * 1e-6;
    m[name + ".self_virt_us"] = self.virt_ns[li] * 1e-3;
  }
}

/// Reduce the repetition's per-op samples to its percentiles and release
/// them, so memory does not grow with the number of repetitions.
void summarize_ops(RepResult& r) {
  r.op_p50_ns = perfbench::weighted_percentile(r.op_virt_ns, r.op_weight, 0.50);
  r.op_p99_ns = perfbench::weighted_percentile(r.op_virt_ns, r.op_weight, 0.99);
  r.op_samples = r.op_virt_ns.size();
  std::vector<double>().swap(r.op_virt_ns);
  std::vector<double>().swap(r.op_weight);
}

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  perfbench::RepFn rep;
  if (args.workload == "am_dht")
    rep = perfbench::make_am_dht(args.seed);
  else if (args.workload == "rma_mix")
    rep = perfbench::make_rma_mix(args.seed);
  else if (args.workload == "ccsd")
    rep = perfbench::make_ccsd(args.seed);
  else
    usage(("unknown workload " + args.workload).c_str());

  // Run environment, recorded beside every result.
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const char* check_env = std::getenv("MPISIM_RMA_CHECK");
  const char* progress_env = std::getenv("MPISIM_PROGRESS");
  const char* platform = args.workload == "ccsd" ? "cray_xe6" : "infiniband";
  const bool oversubscribed = perfbench::kRanks > nproc;
  std::printf(
      "env {\"nproc\": %ld, \"build_type\": \"%s\", \"nranks\": %d, "
      "\"platform\": \"%s\", \"backend\": \"mpi\", \"rma_check\": \"%s\", "
      "\"progress\": \"%s\", \"oversubscribed\": %s}\n",
      nproc, PERFBENCH_BUILD_TYPE, perfbench::kRanks, platform,
      check_env ? check_env
                : mpisim::rma_check_name(mpisim::Config{}.rma_check),
      progress_env ? progress_env : "off", oversubscribed ? "true" : "false");
  if (oversubscribed)
    std::printf("WARNING: %d rank threads on %ld cores; host-time metrics "
                "measure the host scheduler\n",
                perfbench::kRanks, nproc);

  std::vector<RepResult> plain, traced;
  std::unique_ptr<perfbench::SpanLog> last_log;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::vector<double> setup_cpu, setup_wall;  // probes and untraced reps
  const double t0 = perfbench::host_now_s();
  bool probes_ok = true;
  try {
    for (int i = 0; i < kSetupProbes; ++i) {
      const RepResult r = rep(nullptr, /*setup_only=*/true);
      setup_cpu.push_back(r.setup_cpu_s);
      setup_wall.push_back(r.setup_s);
    }
  } catch (const std::exception& e) {
    ++failed;
    errors.push_back(std::string("set-up raised: ") + e.what());
    probes_ok = false;
  }
  for (int i = 0; probes_ok; ++i) {
    const bool with_spans = args.trace && i % 2 == 1;
    const std::size_t done = args.trace ? traced.size() : plain.size();
    if (done >= kMinReps &&
        perfbench::host_now_s() - t0 >= args.seconds && !with_spans)
      break;
    auto log = with_spans
                   ? std::make_unique<perfbench::SpanLog>(perfbench::kRanks)
                   : nullptr;
    RepResult r;
    try {
      r = rep(log.get(), /*setup_only=*/false);
    } catch (const std::exception& e) {
      ++failed;
      errors.push_back(std::string("repetition raised: ") + e.what());
      break;
    }
    // Layer-level correctness: no RMA conflicts, every AM request served.
    if (r.layer["armci.rma_conflicts"] != 0)
      perfbench::note_failure(r, "armci reported RMA conflicts");
    if (r.layer["am.sent"] != r.layer["am.served"])
      perfbench::note_failure(r, "am.sent != am.served");
    summarize_ops(r);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf(
        "rep %d%s: setup %.6f s (cpu %.6f s), wall %.4f s, cpu %.4f s "
        "(sys %.4f), virt %.9f s, ops %llu, failed %llu, maxrss %ld KB\n",
        i, with_spans ? " traced" : "", r.setup_s, r.setup_cpu_s, r.wall_s,
        r.user_s + r.sys_s, r.sys_s, r.virt_s,
        static_cast<unsigned long long>(r.ops),
        static_cast<unsigned long long>(r.failed), ru.ru_maxrss);
    attempted += r.ops;
    failed += r.failed;
    for (auto& e : r.errors)
      if (errors.size() < 8) errors.push_back(e);
    if (with_spans) {
      add_span_metrics(*log, r);
      last_log = std::move(log);
      traced.push_back(std::move(r));
    } else {
      setup_cpu.push_back(r.setup_cpu_s);
      setup_wall.push_back(r.setup_s);
      plain.push_back(std::move(r));
    }
  }

  // rma_mix's virtual time does not depend on host scheduling, so every
  // repetition -- traced or not -- must agree bit for bit.
  if (args.workload == "rma_mix" && !plain.empty()) {
    for (const auto* set : {&plain, &traced})
      for (const RepResult& r : *set)
        if (r.virt_s != plain.front().virt_s) {
          ++failed;
          errors.push_back("rma_mix virtual time differs between "
                           "repetitions: " + fmt(r.virt_s) + " vs " +
                           fmt(plain.front().virt_s));
        }
  }

  const auto med = [](const std::vector<RepResult>& reps, auto get) {
    std::vector<double> v;
    for (const RepResult& r : reps) v.push_back(get(r));
    return median(v);
  };
  // Wall-clock throughput is reported but not gated: on a shared VM it
  // moved by up to 2.5x between runs of the same code.
  const double host_ops_per_s = med(plain, [](const RepResult& r) {
    return static_cast<double>(r.ops) / r.wall_s;
  });
  std::map<std::string, double> out;
  if (!args.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    // Set-up is gated in CPU seconds: its wall time is a few collective
    // wake-ups, which under hypervisor steal moved 2-10x between runs of
    // the same code (mpisim.setup_host_s still reports it).
    out["setup_s"] = median(setup_cpu);
    out["host_cpu_s"] =
        med(plain, [](const RepResult& r) { return r.user_s + r.sys_s; });
    out["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
    out["virt_s"] = med(plain, [](const RepResult& r) { return r.virt_s; });
    out["op_virt_p50_us"] =
        med(plain, [](const RepResult& r) { return r.op_p50_ns * 1e-3; });
    out["op_virt_p99_us"] =
        med(plain, [](const RepResult& r) { return r.op_p99_ns * 1e-3; });
  } else {
    // OS counters from the untraced repetitions, everything else from
    // the traced ones.
    out["mpisim.setup_host_s"] = median(setup_wall);
    out["bench.host_ops_per_s"] = host_ops_per_s;
    out["mpisim.ctx_switches_per_op"] = med(plain, [](const RepResult& r) {
      return r.ctx_switches / static_cast<double>(r.ops);
    });
    out["mpisim.sys_cpu_share"] = med(plain, [](const RepResult& r) {
      return r.sys_s / (r.user_s + r.sys_s);
    });
    out["mpisim.rank_cpu_util"] =
        med(plain, [](const RepResult& r) { return r.rank_cpu_util; });
    out["mpisim.rank_skew_virt_us"] =
        med(traced, [](const RepResult& r) { return r.skew_virt_s * 1e6; });
    out["bench.trace_overhead"] =
        med(traced, [](const RepResult& r) { return r.wall_s; }) /
        med(plain, [](const RepResult& r) { return r.wall_s; });
    out["bench.op_virt_samples"] = med(traced, [](const RepResult& r) {
      return static_cast<double>(r.op_samples);
    });
    for (const auto& m : kPerLayer) {
      if (out.count(m.name) != 0) continue;
      out[m.name] = med(traced, [&](const RepResult& r) {
        const auto it = r.layer.find(m.name);
        return it == r.layer.end() ? 0.0 : it->second;
      });
    }
    if (last_log != nullptr && !args.span_file.empty() &&
        !last_log->write_jsonl(args.span_file))
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   args.span_file.c_str());
  }

  const std::size_t reps = plain.size() + traced.size();
  std::printf("%s seed=%llu: %zu repetitions (%zu traced) in %.1f s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), reps,
              traced.size(), perfbench::host_now_s() - t0);
  if (!args.trace) {
    std::size_t samples = 0;
    for (const RepResult& r : plain) samples += r.op_samples;
    std::printf("op_virt samples: %zu over %zu repetitions\n", samples,
                plain.size());
    std::printf("info   %-30s %.6g 1/s (wall clock, not gated)\n",
                "host_ops_per_s", host_ops_per_s);
  }
  for (const auto& e : errors) std::printf("FAIL %s\n", e.c_str());

  const bool correct = failed == 0 && attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : args.trace ? std::vector<Metric>(std::begin(kPerLayer),
                                                         std::end(kPerLayer))
                                  : std::vector<Metric>(std::begin(kEndToEnd),
                                                         std::end(kEndToEnd))) {
    const double v = out[m.name];
    std::printf("metric %-30s %.6g %s\n", m.name, v, m.unit);
    if (!first) json += ", ";
    first = false;
    json += "\"" + std::string(m.name) + "\": {\"value\": " + fmt(v) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  const double fail_ratio =
      attempted > 0
          ? static_cast<double>(failed) / static_cast<double>(attempted)
          : 1.0;
  std::printf("metric %-30s %.6g %s\n", "fail_ratio", fail_ratio, "ratio");
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
