// am_dht: DHT-shaped active-message traffic on the infiniband profile.
// Every rank is a shard server and a closed-loop client: gets and
// fetch-and-add ops are rpc round trips to the key's owner; puts are
// fire-and-forget delegates replicated to the owner and its buddy and
// acknowledged collectively by am::quiesce. It loads mpisim's scheduler
// and two-sided channel and the am layer, and makes no ARMCI RMA calls.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "perfbench/src/bench.hpp"
#include "perfbench/src/rng.hpp"
#include "perfbench/src/spans.hpp"
#include "src/am/am.hpp"
#include "src/armci/armci.hpp"
#include "src/mpisim/comm.hpp"
#include "src/mpisim/runtime.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kPutKeysPerClient = 512;
constexpr std::uint64_t kPutKeys = kPutKeysPerClient * kRanks;
constexpr std::uint64_t kFmaKeys = 1024;
constexpr int kOpsPerClient = 6000;
constexpr std::uint64_t kReplica = 1;
constexpr std::size_t kMaxValue = 512;  ///< put values are 8..512 bytes

enum class Kind : std::uint8_t { get, put, fma };

struct Op {
  Kind kind = Kind::get;
  std::uint64_t key = 0;  ///< global key (put: one of the client's own)
  std::uint64_t ver = 0;  ///< put version
  std::int64_t delta = 0; ///< fma increment
};

/// Handler argument (POD); a put's value bytes follow it.
struct Arg {
  std::uint64_t slot = 0;
  std::uint64_t role = 0;  ///< 0 primary table, kReplica buddy table
  std::uint64_t ver = 0;   ///< put version
  std::int64_t delta = 0;  ///< fetch-add increment
};

/// A stored put value. A get replies with the version followed by the
/// value bytes.
struct Slot {
  std::uint64_t ver = 0;
  std::size_t len = 0;
  std::array<std::uint8_t, kMaxValue> bytes{};
};

int owner(std::uint64_t key) { return static_cast<int>(key % kRanks); }
int buddy(std::uint64_t key) { return (owner(key) + 1) % kRanks; }
std::uint64_t slot(std::uint64_t key) { return key / kRanks; }

/// Version \p ver of put key \p key has a length and bytes derived from
/// (key, ver), so every read is checkable on its own. The varying length
/// spreads the rpc round trips' virtual latency over the payload cost.
std::size_t value_len(std::uint64_t key, std::uint64_t ver) {
  return 8 * (1 + mix64(key * 0x10001ull + ver) % (kMaxValue / 8));
}

std::uint64_t value_word(std::uint64_t key, std::uint64_t ver,
                         std::size_t i) {
  return mix64(key << 24 ^ ver << 12 ^ i);
}

/// Write version \p ver of \p key to \p out; returns its length.
std::size_t write_value(std::uint64_t key, std::uint64_t ver,
                        std::uint8_t* out) {
  const std::size_t len = value_len(key, ver);
  for (std::size_t i = 0; i < len / 8; ++i) {
    const std::uint64_t w = value_word(key, ver, i);
    std::memcpy(out + 8 * i, &w, 8);
  }
  return len;
}

constexpr std::uint64_t kAnyVersion = ~std::uint64_t{0};

/// True when \p reply (version, then value bytes) is a value some put of
/// \p key wrote -- version \p want_ver unless that is kAnyVersion.
bool reply_ok(std::uint64_t key, std::span<const std::uint8_t> reply,
              std::uint64_t want_ver = kAnyVersion) {
  if (reply.size() < 8) return false;
  std::uint64_t ver = 0;
  std::memcpy(&ver, reply.data(), 8);
  if (want_ver != kAnyVersion && ver != want_ver) return false;
  const std::size_t len = reply.size() - 8;
  if (len != value_len(key, ver)) return false;
  for (std::size_t i = 0; i < len / 8; ++i) {
    std::uint64_t w = 0;
    std::memcpy(&w, reply.data() + 8 + 8 * i, 8);
    if (w != value_word(key, ver, i)) return false;
  }
  return true;
}

struct Inputs {
  std::vector<std::vector<Op>> ops;  ///< per client rank
  /// Final version of each client's put keys and each fma key's delta sum.
  std::vector<std::uint64_t> final_ver;  ///< indexed by global put key
  std::vector<std::int64_t> fma_sum;     ///< indexed by fma key
};

Inputs generate(std::uint64_t seed) {
  Inputs in;
  in.final_ver.assign(kPutKeys, 0);
  in.fma_sum.assign(kFmaKeys, 0);
  for (int r = 0; r < kRanks; ++r) {
    Rng rng(seed, 0x6468ull + static_cast<std::uint64_t>(r));
    // Exact mix, seeded order: 50% get, 25% put, 25% fetch-add.
    std::vector<Kind> kinds(kOpsPerClient, Kind::get);
    for (int i = 0; i < kOpsPerClient / 4; ++i) {
      kinds[static_cast<std::size_t>(2 * i)] = Kind::put;
      kinds[static_cast<std::size_t>(2 * i + 1)] = Kind::fma;
    }
    shuffle(kinds, rng);
    // Each kind's ops spread over the owners in exact shares, in seeded
    // order, so a seed cannot skew the servers' load.
    std::array<std::vector<std::uint64_t>, 3> owners;
    for (std::size_t k = 0; k < owners.size(); ++k) {
      const auto n = static_cast<std::size_t>(
          std::count(kinds.begin(), kinds.end(), static_cast<Kind>(k)));
      for (std::size_t j = 0; j < n; ++j) owners[k].push_back(j % kRanks);
      shuffle(owners[k], rng);
    }
    std::array<std::size_t, 3> next{};
    std::vector<Op> ops(kOpsPerClient);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      Op& op = ops[i];
      op.kind = kinds[i];
      const auto k = static_cast<std::size_t>(op.kind);
      const std::uint64_t o = owners[k][next[k]++];
      if (op.kind == Kind::get) {
        op.key = o + kRanks * rng.below(kPutKeys / kRanks);
      } else if (op.kind == Kind::put) {
        op.key = static_cast<std::uint64_t>(r) * kPutKeysPerClient + o +
                 kRanks * rng.below(kPutKeysPerClient / kRanks);
        op.ver = ++in.final_ver[op.key];
      } else {
        op.key = o + kRanks * rng.below(kFmaKeys / kRanks);
        op.delta = rng.range(1, 9);
        in.fma_sum[op.key] += op.delta;
      }
    }
    in.ops.push_back(std::move(ops));
  }
  return in;
}

/// One rank's shard: primary and buddy-replica put tables, fma counters.
struct Store {
  std::vector<Slot> primary, replica;
  std::vector<std::int64_t> counters;
};

}  // namespace

RepFn make_am_dht(std::uint64_t seed) {
  auto in = std::make_shared<const Inputs>(generate(seed));
  return [in](SpanLog* spans, bool setup_only) {
    RepResult res;
    PhaseStamps stamps;
    std::vector<std::vector<double>> lat(kRanks);
    std::vector<std::vector<double>> handler_ns(kRanks);
    std::vector<std::uint64_t> bad(kRanks, 0);
    std::vector<std::vector<std::string>> errors(kRanks);
    std::vector<LayerSnap> snaps(kRanks);
    const auto fail = [&](int r, const std::string& what) {
      const auto ri = static_cast<std::size_t>(r);
      ++bad[ri];
      if (errors[ri].size() < 4) errors[ri].push_back("am_dht: " + what);
    };

    mpisim::Config cfg;
    cfg.nranks = kRanks;
    cfg.platform = mpisim::Platform::infiniband;
    stamps.run_called();
    mpisim::run(cfg, [&] {
      const int me = mpisim::rank();
      const auto mi = static_cast<std::size_t>(me);
      armci::Options opts;
      opts.metrics = opts.trace = spans != nullptr;
      {
        SpanScope s(spans, "armci.init", Layer::armci);
        armci::init(opts);
      }
      {
        SpanScope s(spans, "am.init", Layer::am);
        am::init();
      }

      Store store;
      const std::uint64_t slots = kPutKeys / kRanks;
      store.primary.resize(slots);
      store.replica.resize(slots);
      store.counters.assign(kFmaKeys / kRanks, 0);
      for (std::uint64_t s = 0; s < slots; ++s) {
        // Slot s of this rank holds key s*n + me; its replica table holds
        // the keys of its predecessor, whose buddy it is.
        const std::uint64_t pk = s * kRanks + mi;
        const std::uint64_t rk =
            s * kRanks + static_cast<std::uint64_t>((me + kRanks - 1) % kRanks);
        Slot& p = store.primary[s];
        Slot& q = store.replica[s];
        p.len = write_value(pk, 0, p.bytes.data());
        q.len = write_value(rk, 0, q.bytes.data());
      }
      auto& my_handler_ns = handler_ns[mi];
      const bool traced = spans != nullptr;
      // Handlers time their own bodies in the traced run: a control that
      // should stay flat whatever the layers below do.
      const auto timed_body = [&my_handler_ns, traced](auto&& body) {
        const double t0 = traced ? host_now_s() : 0.0;
        const std::size_t n = body();
        if (traced) my_handler_ns.push_back((host_now_s() - t0) * 1e9);
        return n;
      };
      const int h_put = am::register_handler(
          [&](int, const void* a, std::size_t bytes, void*, std::size_t) {
            return timed_body([&] {
              Arg arg;
              std::memcpy(&arg, a, sizeof arg);
              Slot& s = (arg.role == kReplica ? store.replica
                                              : store.primary)[arg.slot];
              if (arg.ver > s.ver) {
                s.ver = arg.ver;
                s.len = std::min(bytes - sizeof arg, kMaxValue);
                std::memcpy(s.bytes.data(),
                            static_cast<const std::uint8_t*>(a) + sizeof arg,
                            s.len);
              }
              return std::size_t{0};
            });
          });
      const int h_get = am::register_handler(
          [&](int, const void* a, std::size_t, void* reply, std::size_t) {
            return timed_body([&] {
              Arg arg;
              std::memcpy(&arg, a, sizeof arg);
              const Slot& s = (arg.role == kReplica ? store.replica
                                                    : store.primary)[arg.slot];
              auto* out = static_cast<std::uint8_t*>(reply);
              std::memcpy(out, &s.ver, 8);
              std::memcpy(out + 8, s.bytes.data(), s.len);
              return 8 + s.len;
            });
          });
      const int h_fma = am::register_handler(
          [&](int, const void* a, std::size_t, void* reply, std::size_t) {
            return timed_body([&] {
              Arg arg;
              std::memcpy(&arg, a, sizeof arg);
              std::int64_t& c = store.counters[arg.slot];
              std::memcpy(reply, &c, sizeof c);
              c += arg.delta;
              return sizeof c;
            });
          });
      armci::barrier();
      stamps.setup_done();
      if (setup_only) {
        am::finalize();
        armci::finalize();
        return;
      }

      const auto& ops = in->ops[mi];
      std::array<std::uint8_t, sizeof(Arg) + kMaxValue> put_buf{};
      auto& my_lat = lat[mi];
      my_lat.reserve(ops.size());
      const auto rpc = [&](std::uint64_t op_id, int target, int handler,
                           const void* arg, std::size_t bytes) {
        SpanScope s(spans, "am.rpc", Layer::am, op_id);
        am::Handle h;
        {
          SpanScope i(spans, "am.rpc_issue", Layer::am, op_id);
          h = am::rpc(target, handler, arg, bytes);
        }
        h.wait();
        return h;
      };

      armci::barrier();
      reset_layer_counters();
      stamps.timed_begin();
      {
        SpanScope timed(spans, "bench.timed", Layer::bench);
        for (std::size_t i = 0; i < ops.size(); ++i) {
          const Op& op = ops[i];
          Arg arg;
          arg.slot = slot(op.key);
          if (op.kind == Kind::put) {
            SpanScope s(spans, "am.rpc_ff", Layer::am, i + 1);
            arg.ver = op.ver;
            std::memcpy(put_buf.data(), &arg, sizeof arg);
            std::uint8_t* value = put_buf.data() + sizeof arg;
            const std::size_t bytes =
                sizeof arg + write_value(op.key, op.ver, value);
            am::rpc_ff(owner(op.key), h_put, put_buf.data(), bytes);
            arg.role = kReplica;
            std::memcpy(put_buf.data(), &arg, sizeof arg);
            am::rpc_ff(buddy(op.key), h_put, put_buf.data(), bytes);
            continue;
          }
          const double v0 = mpisim::clock().now_ns();
          if (op.kind == Kind::get) {
            if (!reply_ok(op.key,
                          rpc(i + 1, owner(op.key), h_get, &arg, sizeof arg)
                              .reply()))
              fail(me, "get of key " + std::to_string(op.key) +
                           " returned a value no put wrote");
          } else {
            arg.delta = op.delta;
            const auto old = rpc(i + 1, owner(op.key), h_fma, &arg, sizeof arg)
                                 .reply_as<std::int64_t>();
            if (old < 0 || old > in->fma_sum[op.key])
              fail(me, "fetch-add of key " + std::to_string(op.key) +
                           " fetched an impossible value");
          }
          my_lat.push_back(mpisim::clock().now_ns() - v0);
        }
        // Fence the rpc traffic first: a rank inside quiesce's counting
        // rounds stops serving, so no round trip may still be in flight.
        {
          SpanScope s(spans, "am.barrier", Layer::am);
          am::barrier();
        }
        {
          SpanScope s(spans, "am.quiesce", Layer::am);
          am::quiesce();
        }
        stamps.timed_end();
      }
      stamps.timed_closed();
      snaps[mi] = LayerSnap::take();

      // Every put this client made reads back its last version from both
      // the owner and the buddy.
      for (std::uint64_t k = 0; k < kPutKeysPerClient; ++k) {
        const std::uint64_t key = mi * kPutKeysPerClient + k;
        const std::uint64_t ver = in->final_ver[key];
        for (const std::uint64_t role : {std::uint64_t{0}, kReplica}) {
          Arg arg;
          arg.slot = slot(key);
          arg.role = role;
          const int target = role == kReplica ? buddy(key) : owner(key);
          am::Handle h = rpc(0, target, h_get, &arg, sizeof arg);
          if (!reply_ok(key, h.reply(), ver))
            fail(me, "key " + std::to_string(key) + " lost its last put on " +
                         (role == kReplica ? "the buddy" : "the owner"));
        }
      }
      am::barrier();
      // Each fetch-add counter equals the sum of its deltas.
      for (std::uint64_t s = 0; s < store.counters.size(); ++s) {
        const std::uint64_t key = s * kRanks + mi;
        if (store.counters[s] != in->fma_sum[key])
          fail(me, "counter " + std::to_string(key) + " is " +
                       std::to_string(store.counters[s]) + ", expected " +
                       std::to_string(in->fma_sum[key]));
      }
      am::finalize();
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
    if (spans != nullptr) {
      std::vector<double> all;
      for (const auto& v : handler_ns)
        all.insert(all.end(), v.begin(), v.end());
      res.layer["am.handler.host_p50_us"] = percentile(all, 0.5) * 1e-3;
    }
    return res;
  };
}

}  // namespace perfbench
