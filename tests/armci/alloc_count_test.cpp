// Allocation-count regression test for the strided RMA data path and rmw.
//
// A warm steady-state loop of strided get/put/acc on Backend::mpi -- through
// the ARMCI API, the nb aggregation engine, MpiBackend::strided and
// mpisim::Win::rma_op, with the RMA checker in abort mode -- must make no
// heap allocation per operation, and neither may a GA nb_get of a 2-D patch
// spanning two owners, nor an uncontended rmw (two queueing-mutex epochs
// around its get and put epochs). This binary replaces the global operator new with one
// that counts the calling thread's allocations, so a change that brings a
// per-op allocation back fails here with the count.
//
// The configuration is pinned (rma_check=abort, progress engine off): the
// MPISIM_RMA_CHECK / MPISIM_PROGRESS overrides select other checkers and
// drain paths, whose allocation counts this test does not pin.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/armci/armci.hpp"
#include "src/ga/ga.hpp"
#include "src/mpisim/runtime.hpp"

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  if (t_counting) ++t_allocs;
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

}  // namespace
}  // namespace armci
