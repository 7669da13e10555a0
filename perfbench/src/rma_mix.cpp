// rma_mix: every rank streams a seeded mix of contiguous put/get/acc
// (8 B - 64 KiB) and 2-D put_strided/get_strided calls at its right-hand
// neighbour's window on Backend::mpi, with no compute and no AM traffic.
// It loads the armci backend's per-op epoch mapping and mpisim's windows,
// datatypes and checker; each target window has a single origin, so a
// sequential replay of that origin's stream is an exact oracle for the
// final window and for every get.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.hpp"
#include "perfbench/src/rng.hpp"
#include "perfbench/src/spans.hpp"
#include "src/armci/armci.hpp"
#include "src/mpisim/runtime.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kPitch = 8192;                // window row bytes
constexpr std::size_t kRows = 64;                   // window rows
constexpr std::size_t kWinBytes = kPitch * kRows;   // 512 KiB per rank
constexpr std::size_t kPoolBytes = 16 * kPitch;     // local source rows
constexpr int kOpsPerRank = 1500;
constexpr std::size_t kStrata = 32;  // see stratified()

enum class Kind : std::uint8_t { put, get, acc, put_s, get_s };

struct Op {
  Kind kind = Kind::put;
  std::size_t dst = 0;    ///< byte offset in the target window
  std::size_t local = 0;  ///< byte offset in the local pool / buffer
  std::size_t bytes = 0;  ///< contiguous size, or strided row size
  std::size_t rows = 1;   ///< strided row count
};

/// Accumulate scale. Only the identity: armci scales other values into a
/// heap temporary whose page alignment, and so its modeled registration
/// cost, varies between runs.
constexpr std::int64_t kScale = 1;

struct Inputs {
  std::vector<std::vector<Op>> ops;            ///< per origin rank
  std::vector<std::vector<std::int64_t>> pool; ///< per origin: source data
};

/// Page-aligned local buffer. The network model charges on-demand
/// registration per 4-KiB host page an origin buffer touches, so a buffer
/// whose alignment varied with the heap would make virtual time vary from
/// run to run.
class PageBuffer {
 public:
  explicit PageBuffer(std::size_t bytes)
      : p_(static_cast<unsigned char*>(std::aligned_alloc(4096, bytes))) {
    if (p_ == nullptr) throw std::bad_alloc();
  }
  ~PageBuffer() { std::free(p_); }
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;
  unsigned char* data() const noexcept { return p_; }

 private:
  unsigned char* p_;
};

std::int64_t initial_word(int rank, std::size_t i) {
  const std::uint64_t h = mix64(static_cast<std::uint64_t>(rank) << 32 ^ i);
  return static_cast<std::int64_t>(h % 2001) - 1000;
}

/// Log-uniform size in [8, 8 << max_log2] bytes for \p u in [0, 1), a
/// multiple of 8.
std::size_t log_size(double u, int max_log2) {
  return 8 * static_cast<std::size_t>(std::llround(std::exp2(u * max_log2)));
}

Inputs generate(std::uint64_t seed) {
  Inputs in;
  for (int r = 0; r < kRanks; ++r) {
    Rng rng(seed, 0x726d61ull + static_cast<std::uint64_t>(r));
    std::vector<std::int64_t> pool(kPoolBytes / 8);
    for (auto& w : pool) w = rng.range(-(1 << 20), 1 << 20);
    // Exact mix (25% put, 25% get, 20% acc, 15% put_s, 15% get_s) with
    // stratified sizes and row counts per kind, in seeded order.
    const std::pair<Kind, int> mix[] = {{Kind::put, 25}, {Kind::get, 25},
                                        {Kind::acc, 20}, {Kind::put_s, 15},
                                        {Kind::get_s, 15}};
    std::vector<Op> ops;
    for (const auto& [kind, pct] : mix) {
      const auto n = static_cast<std::size_t>(kOpsPerRank * pct / 100);
      const bool strided = kind == Kind::put_s || kind == Kind::get_s;
      const std::vector<double> size_u = stratified(n, kStrata, rng);
      const std::vector<double> rows_u = stratified(n, kStrata, rng);
      for (std::size_t j = 0; j < n; ++j) {
        Op op;
        op.kind = kind;
        if (strided) {
          op.bytes = log_size(size_u[j], 9);  // 8 B .. 4 KiB rows
          op.rows = 1 + static_cast<std::size_t>(rows_u[j] * 16);
          const std::size_t row0 = rng.below(kRows - op.rows + 1);
          const std::size_t col = 8 * rng.below((kPitch - op.bytes) / 8 + 1);
          op.dst = row0 * kPitch + col;
          op.local = 8 * rng.below((kPitch - op.bytes) / 8 + 1);
        } else {
          op.bytes = log_size(size_u[j], 13);  // 8 B .. 64 KiB
          op.dst = 8 * rng.below((kWinBytes - op.bytes) / 8 + 1);
          op.local = 8 * rng.below((kPoolBytes - op.bytes) / 8 + 1);
        }
        ops.push_back(op);
      }
    }
    shuffle(ops, rng);
    in.ops.push_back(std::move(ops));
    in.pool.push_back(std::move(pool));
  }
  return in;
}

/// Checksum of rows x bytes at \p base with row pitch \p pitch.
std::uint64_t checksum(const unsigned char* base, std::size_t rows,
                       std::size_t bytes, std::size_t pitch) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t r = 0; r < rows; ++r) {
    const unsigned char* row = base + r * pitch;
    for (std::size_t i = 0; i < bytes; i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, row + i, 8);
      h = (h ^ w) * 0x100000001b3ull;
    }
  }
  return h;
}

armci::StridedSpec spec_of(const Op& op) {
  armci::StridedSpec s;
  s.stride_levels = 1;
  s.count = {op.bytes, op.rows};
  s.src_strides = {kPitch};
  s.dst_strides = {kPitch};
  return s;
}

/// Sequential replay of \p origin's stream on a copy of its target's
/// initial window: checks every get checksum the origin recorded and the
/// final window; returns the number of mismatches.
std::uint64_t replay_and_check(const Inputs& in, int origin, int target,
                               const std::vector<std::uint64_t>& get_sums,
                               const unsigned char* window,
                               std::vector<std::string>& errors) {
  std::vector<std::int64_t> shadow(kWinBytes / 8);
  for (std::size_t i = 0; i < shadow.size(); ++i)
    shadow[i] = initial_word(target, i);
  auto* sh = reinterpret_cast<unsigned char*>(shadow.data());
  const auto* pool = reinterpret_cast<const unsigned char*>(
      in.pool[static_cast<std::size_t>(origin)].data());
  const auto& ops = in.ops[static_cast<std::size_t>(origin)];
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case Kind::put:
        std::memcpy(sh + op.dst, pool + op.local, op.bytes);
        break;
      case Kind::acc:
        for (std::size_t w = 0; w < op.bytes / 8; ++w) {
          std::int64_t src = 0;
          std::memcpy(&src, pool + op.local + 8 * w, 8);
          shadow[op.dst / 8 + w] += kScale * src;
        }
        break;
      case Kind::put_s:
        for (std::size_t r = 0; r < op.rows; ++r)
          std::memcpy(sh + op.dst + r * kPitch, pool + op.local + r * kPitch,
                      op.bytes);
        break;
      case Kind::get:
      case Kind::get_s: {
        const std::size_t rows = op.kind == Kind::get ? 1 : op.rows;
        if (checksum(sh + op.dst, rows, op.bytes, kPitch) != get_sums[i]) {
          ++bad;
          if (errors.size() < 4)
            errors.push_back("rma_mix: get " + std::to_string(i) +
                             " of rank " + std::to_string(origin) +
                             " read wrong data");
        }
        break;
      }
    }
  }
  if (std::memcmp(sh, window, kWinBytes) != 0) {
    ++bad;
    errors.push_back("rma_mix: final window of rank " +
                     std::to_string(target) + " differs from the replay");
  }
  return bad;
}

const char* span_name(Kind k) {
  switch (k) {
    case Kind::put: return "armci.put";
    case Kind::get: return "armci.get";
    case Kind::acc: return "armci.acc";
    case Kind::put_s: return "armci.put_strided";
    case Kind::get_s: return "armci.get_strided";
  }
  return "?";
}

}  // namespace

RepFn make_rma_mix(std::uint64_t seed) {
  auto in = std::make_shared<const Inputs>(generate(seed));
  return [in](SpanLog* spans, bool setup_only) {
    RepResult res;
    PhaseStamps stamps;
    std::vector<std::vector<double>> lat(kRanks);
    std::vector<std::vector<std::uint64_t>> sums(kRanks);
    std::vector<std::uint64_t> bad(kRanks, 0);
    std::vector<std::vector<std::string>> errors(kRanks);
    std::vector<LayerSnap> snaps(kRanks);

    mpisim::Config cfg;
    cfg.nranks = kRanks;
    cfg.platform = mpisim::Platform::infiniband;
    stamps.run_called();
    mpisim::run(cfg, [&] {
      const int me = mpisim::rank();
      const auto mi = static_cast<std::size_t>(me);
      const int target = (me + 1) % kRanks;
      armci::Options opts;
      opts.backend = armci::Backend::mpi;
      opts.metrics = opts.trace = spans != nullptr;
      std::vector<void*> bases;
      {
        SpanScope s(spans, "armci.init", Layer::armci);
        armci::init(opts);
      }
      {
        SpanScope s(spans, "armci.malloc_world", Layer::armci);
        bases = armci::malloc_world(kWinBytes);
      }
      auto* mine = static_cast<std::int64_t*>(bases[mi]);
      armci::access_begin(mine);
      for (std::size_t i = 0; i < kWinBytes / 8; ++i)
        mine[i] = initial_word(me, i);
      armci::access_end(mine);
      armci::barrier();
      stamps.setup_done();
      if (setup_only) {
        armci::finalize();
        return;
      }

      const auto& ops = in->ops[mi];
      PageBuffer source(kPoolBytes), local(kPoolBytes);
      std::memcpy(source.data(), in->pool[mi].data(), kPoolBytes);
      const unsigned char* pool = source.data();
      auto& my_sums = sums[mi];
      my_sums.assign(ops.size(), 0);
      auto& my_lat = lat[mi];
      my_lat.reserve(ops.size());
      auto* tgt = static_cast<unsigned char*>(
          bases[static_cast<std::size_t>(target)]);

      armci::barrier();
      reset_layer_counters();
      stamps.timed_begin();
      {
        SpanScope timed(spans, "bench.timed", Layer::bench);
        for (std::size_t i = 0; i < ops.size(); ++i) {
          const Op& op = ops[i];
          const double v0 = mpisim::clock().now_ns();
          {
            SpanScope s(spans, span_name(op.kind), Layer::armci, i + 1);
            switch (op.kind) {
              case Kind::put:
                armci::put(pool + op.local, tgt + op.dst, op.bytes, target);
                break;
              case Kind::get:
                armci::get(tgt + op.dst, local.data(), op.bytes, target);
                break;
              case Kind::acc:
                armci::acc(armci::AccType::int64, &kScale, pool + op.local,
                           tgt + op.dst, op.bytes, target);
                break;
              case Kind::put_s:
                armci::put_strided(pool + op.local, tgt + op.dst, spec_of(op),
                                   target);
                break;
              case Kind::get_s:
                armci::get_strided(tgt + op.dst, local.data() + op.local,
                                   spec_of(op), target);
                break;
            }
          }
          my_lat.push_back(mpisim::clock().now_ns() - v0);
          if (op.kind == Kind::get)
            my_sums[i] = checksum(local.data(), 1, op.bytes, kPitch);
          else if (op.kind == Kind::get_s)
            my_sums[i] =
                checksum(local.data() + op.local, op.rows, op.bytes, kPitch);
        }
        stamps.timed_end();
        SpanScope s(spans, "armci.barrier", Layer::armci);
        armci::barrier();
      }
      stamps.timed_closed();
      snaps[mi] = LayerSnap::take();

      // Verify this rank's window against its single origin's stream.
      const int origin = (me + kRanks - 1) % kRanks;
      armci::access_begin(mine);
      bad[mi] += replay_and_check(*in, origin, me,
                                  sums[static_cast<std::size_t>(origin)],
                                  reinterpret_cast<unsigned char*>(mine),
                                  errors[mi]);
      armci::access_end(mine);
      armci::barrier();
      armci::free(mine);
      armci::finalize();
    });

    if (setup_only) {
      stamps.fill_setup(res);
      return res;
    }
    stamps.fill(res);
    for (int r = 0; r < kRanks; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      res.ops += in->ops[ri].size();
      res.op_virt_ns.insert(res.op_virt_ns.end(), lat[ri].begin(),
                            lat[ri].end());
      res.failed += bad[ri];
      for (auto& e : errors[ri])
        if (res.errors.size() < 8) res.errors.push_back(e);
    }
    res.op_weight.assign(res.op_virt_ns.size(), 1.0);
    add_layer_counters(snaps, static_cast<double>(res.ops), res);
    return res;
  };
}

}  // namespace perfbench
