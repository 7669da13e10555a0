// Allocation-count regression test for the strided RMA data path, rmw and
// active messages.
//
// A warm steady-state loop of strided get/put/acc on Backend::mpi -- through
// the ARMCI API, the nb aggregation engine, MpiBackend::strided and
// mpisim::Win::rma_op, with the RMA checker in abort mode -- must make no
// heap allocation per operation, and neither may a GA nb_get of a 2-D patch
// spanning two owners, nor an uncontended rmw (two queueing-mutex epochs
// around its get and put epochs). An am::rpc round trip and an rpc_ff
// delegate with its quiesce allocate only their small messages and handle
// state, on the issuing and on the serving rank, and never a buffer of
// 1 KiB or more. This binary replaces the global operator new with one that
// counts the calling thread's allocations, so a change that brings a
// per-op allocation back fails here with the count.
//
// The configuration is pinned (rma_check=abort, progress engine off): the
// MPISIM_RMA_CHECK / MPISIM_PROGRESS overrides select other checkers and
// drain paths, whose allocation counts this test does not pin.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "src/am/am.hpp"
#include "src/armci/armci.hpp"
#include "src/ga/ga.hpp"
#include "src/mpisim/runtime.hpp"

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_allocs = 0;
thread_local std::size_t t_large_allocs = 0;  ///< of 1 KiB or more

void* counted_alloc(std::size_t n) {
  if (t_counting) {
    ++t_allocs;
    if (n >= 1024) ++t_large_allocs;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace armci {
namespace {

/// Steady-state operations measured per path, after as many warm-up ones.
constexpr int kOps = 64;

/// Heap allocations the calling thread makes over kOps calls of \p op,
/// after kOps warm-up calls (which size every reused buffer).
template <class Op>
std::size_t allocs_per_steady_loop(Op&& op) {
  for (int i = 0; i < kOps; ++i) op();
  t_allocs = 0;
  t_counting = true;
  for (int i = 0; i < kOps; ++i) op();
  t_counting = false;
  return t_allocs;
}

mpisim::Config pinned_config(int nranks) {
  unsetenv("MPISIM_RMA_CHECK");
  unsetenv("MPISIM_PROGRESS");
  mpisim::Config cfg;
  cfg.nranks = nranks;
  cfg.platform = mpisim::Platform::cray_xe6;
  cfg.rma_check = mpisim::RmaCheck::abort;
  return cfg;
}

Options mpi_options() {
  Options o;
  o.backend = Backend::mpi;
  o.progress = false;
  return o;
}

// A 16 x 16 double tile of a 64 x 64 remote matrix: 16 rows of 128 bytes.
TEST(AllocCountTest, StridedOpsAllocateNothingPerOp) {
  mpisim::run(pinned_config(2), [] {
    init(mpi_options());
    const std::size_t pitch = 64 * sizeof(double);
    std::vector<void*> bases = malloc_world(64 * pitch);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<double> tile(16 * 16, 1.0);
      char* remote = static_cast<char*>(bases[1]) + 8 * pitch + 64;
      const double one = 1.0;
      StridedSpec to_remote;
      to_remote.stride_levels = 1;
      to_remote.count = {16 * sizeof(double), 16};
      to_remote.src_strides = {16 * sizeof(double)};
      to_remote.dst_strides = {pitch};
      StridedSpec from_remote = to_remote;
      from_remote.src_strides = {pitch};
      from_remote.dst_strides = {16 * sizeof(double)};

      EXPECT_EQ(allocs_per_steady_loop([&] {
                  get_strided(remote, tile.data(), from_remote, 1);
                }),
                0u)
          << "blocking get";
      EXPECT_EQ(allocs_per_steady_loop([&] {
                  put_strided(tile.data(), remote, to_remote, 1);
                }),
                0u)
          << "blocking put";
      EXPECT_EQ(allocs_per_steady_loop([&] {
                  acc_strided(AccType::float64, &one, tile.data(), remote,
                              to_remote, 1);
                }),
                0u)
          << "blocking acc";
      EXPECT_EQ(allocs_per_steady_loop([&] {
                  Request r = nb_get_strided(remote, tile.data(), from_remote,
                                             1);
                  wait(r);
                }),
                0u)
          << "nb get";
      EXPECT_EQ(allocs_per_steady_loop([&] {
                  Request r = nb_put_strided(tile.data(), remote, to_remote,
                                             1);
                  wait(r);
                }),
                0u)
          << "nb put";
      EXPECT_EQ(allocs_per_steady_loop([&] {
                  Request r = nb_acc_strided(AccType::float64, &one,
                                             tile.data(), remote, to_remote,
                                             1);
                  wait(r);
                }),
                0u)
          << "nb acc";
      EXPECT_EQ(stats().rma_conflicts, 0u);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST(AllocCountTest, UncontendedRmwAllocatesNothingPerOp) {
  mpisim::run(pinned_config(2), [] {
    init(mpi_options());
    std::vector<void*> bases = malloc_world(sizeof(std::int64_t));
    barrier();
    if (mpisim::rank() == 0) {
      std::int64_t before = 0, old = 0, after = 0;
      rmw(RmwOp::fetch_and_add_long, &before, bases[1], 0, 1);
      EXPECT_EQ(allocs_per_steady_loop([&] {
                  rmw(RmwOp::fetch_and_add_long, &old, bases[1], 1, 1);
                }),
                0u)
          << "fetch_and_add_long";
      rmw(RmwOp::fetch_and_add_long, &after, bases[1], 0, 1);
      EXPECT_EQ(after - before, 2 * kOps);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// A 64 x 64 array on a 2 x 2 grid of 32 x 32 blocks: rank 0 fetches a
// 16 x 16 patch straddling the blocks of ranks 1 and 3.
TEST(AllocCountTest, GaNbGetOfA2DPatchAllocatesNothingPerOp) {
  mpisim::run(pinned_config(4), [] {
    init(mpi_options());
    const std::int64_t dims[] = {64, 64};
    ga::GlobalArray g = ga::GlobalArray::create("t", dims, ga::ElemType::dbl);
    g.zero();
    if (mpisim::rank() == 0) {
      ASSERT_EQ(g.locate_region({{24, 40}, {39, 55}}).size(), 2u);
      std::vector<double> tile(16 * 16);
      const ga::Patch patch{{24, 40}, {39, 55}};
      EXPECT_EQ(allocs_per_steady_loop([&] {
                  Request r = g.nb_get(patch, tile.data());
                  wait(r);
                }),
                0u)
          << "ga nb_get";
    }
    armci::barrier();
    g.destroy();
    finalize();
  });
}

/// Allocations one thread made over a counted phase.
struct Counted {
  std::size_t all = 0;
  std::size_t large = 0;
};

void start_counting() {
  t_allocs = 0;
  t_large_allocs = 0;
  t_counting = true;
}

Counted stop_counting() {
  t_counting = false;
  return {t_allocs, t_large_allocs};
}

// Rank 0 issues kOps warm-up and then kOps counted rpc().wait() calls with
// a 64-byte reply; rank 1 serves them inside am::poll_wait. Its handler
// brackets the count, from the end of serve kOps to the start of serve
// 2 kOps: exactly kOps serve cycles, wherever the serve loop's polls fall.
TEST(AllocCountTest, AmRpcRoundTripAllocatesNoLargeBuffer) {
  Counted issuer, server;
  mpisim::run(pinned_config(2), [&] {
    init(mpi_options());
    am::init();
    int served = 0;
    const int h = am::register_handler(
        [&](int, const void* arg, std::size_t bytes, void* reply,
            std::size_t) -> std::size_t {
          if (++served == 2 * kOps) server = stop_counting();
          std::memset(reply, 0, 64);
          std::memcpy(reply, arg, bytes);
          if (served == kOps) start_counting();
          return 64;
        });
    if (mpisim::rank() == 0) {
      std::uint64_t key = 0;
      auto round_trip = [&] {
        ++key;
        am::Handle r = am::rpc(1, h, &key, sizeof key);
        r.wait();
        EXPECT_EQ(r.reply().size(), 64u);
      };
      for (int i = 0; i < kOps; ++i) round_trip();
      start_counting();
      for (int i = 0; i < kOps; ++i) round_trip();
      issuer = stop_counting();
    } else {
      am::poll_wait([&] { return served >= 2 * kOps; });
    }
    am::finalize();
    finalize();
  });
  EXPECT_EQ(issuer.large, 0u);
  EXPECT_EQ(server.large, 0u);
  // Issuer: the handle's OpState, the posted reply receive and its
  // mailbox list node, and the request message's payload. Server: the
  // reply message's payload.
  EXPECT_EQ(issuer.all, 4u * kOps) << "issuer";
  EXPECT_EQ(server.all, 1u * kOps) << "server";
}

// Rank 0 sends one counted delegate per round and both ranks quiesce.
// Rank 1 serves the delegate before it enters quiesce, so every quiesce
// converges in one allreduce round and the counts are exact.
TEST(AllocCountTest, AmRpcFfAndQuiesceAllocateNoLargeBuffer) {
  Counted counted[2];
  mpisim::run(pinned_config(2), [&] {
    init(mpi_options());
    am::init();
    int served = 0;
    const int h = am::register_handler(
        [&served](int, const void*, std::size_t, void*,
                  std::size_t) -> std::size_t {
          ++served;
          return 0;
        });
    const std::uint64_t payload[8] = {};
    int rounds = 0;
    auto round = [&] {
      ++rounds;
      if (mpisim::rank() == 0)
        am::rpc_ff(1, h, payload, sizeof payload);
      else
        am::poll_wait([&] { return served >= rounds; });
      am::quiesce();
    };
    for (int i = 0; i < kOps; ++i) round();
    start_counting();
    for (int i = 0; i < kOps; ++i) round();
    counted[mpisim::rank()] = stop_counting();
    if (mpisim::rank() == 1) EXPECT_EQ(served, 2 * kOps);
    am::finalize();
    finalize();
  });
  EXPECT_EQ(counted[0].large, 0u);
  EXPECT_EQ(counted[1].large, 0u);
  // The delegate's payload on the issuer; on both ranks the allreduce's
  // leader function (its captures outgrow std::function's inline
  // storage); the reduction's accumulator on whichever rank arrives last.
  EXPECT_EQ(counted[0].all + counted[1].all, 4u * kOps);
}

}  // namespace
}  // namespace armci
