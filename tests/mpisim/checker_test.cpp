// Negative-path suite for the RMA validity checker (src/mpisim/checker.hpp):
// each MPI-2 conflict class must be detected and classified, abort mode must
// raise Errc::rma_conflict at the epoch boundary, warn mode must count and
// complete, and the lock-state fixes must raise classified errors instead of
// indexing out of range.

#include "src/mpisim/checker.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/win.hpp"

namespace mpisim {
namespace {

Config abort_cfg(int nranks) {
  Config cfg;
  cfg.nranks = nranks;
  cfg.platform = Platform::ideal;
  cfg.rma_check = RmaCheck::abort;
  return cfg;
}

RmaCheckCounts my_counts() { return ctx().core().checker().counts(rank()); }

/// Expects \p fn to raise Errc::rma_conflict and returns the message.
template <typename Fn>
std::string expect_conflict(Fn&& fn) {
  try {
    fn();
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::rma_conflict) << e.what();
    return e.what();
  }
  ADD_FAILURE() << "expected Errc::rma_conflict";
  return {};
}

// MPISIM_RMA_CHECK=off turns every epoch rule off under the default
// config: a same-epoch put/put overlap completes and is not counted.
TEST(CheckerTest, EnvOffDisablesConflictDetection) {
  ASSERT_EQ(setenv("MPISIM_RMA_CHECK", "off", 1), 0);
  Config cfg;
  cfg.nranks = 2;
  cfg.platform = Platform::ideal;
  run(cfg, [] {
    EXPECT_FALSE(ctx().core().checker().enabled());
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      const double v[4] = {1.0, 2.0, 3.0, 4.0};
      win.lock(LockType::exclusive, 1);
      win.put(v, 2 * sizeof(double), 1, 0);
      win.put(v, 2 * sizeof(double), 1, sizeof(double));  // overlaps [8, 16)
      win.unlock(1);
      EXPECT_EQ(my_counts().total(), 0u);
    }
    world().barrier();
    win.free();
  });
  unsetenv("MPISIM_RMA_CHECK");
}

TEST(CheckerTest, SharedLockPutPutOverlapAborts) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock(LockType::shared, 0);
    world().barrier();
    if (rank() == 0) win.put(src, sizeof src, 0, 0);
    world().barrier();
    if (rank() == 1) {
      win.put(src, sizeof src, 0, sizeof(double));  // overlaps [8, 16)
      expect_conflict([&] { win.unlock(0); });
      win.unlock(0);  // epoch record already retired; releases the lock
      EXPECT_EQ(my_counts().concurrent, 1u);
    } else {
      win.unlock(0);
      EXPECT_EQ(my_counts().total(), 0u);
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, SharedLockPutGetOverlapAborts) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    double buf[2] = {0.0, 0.0};
    win.lock(LockType::shared, 0);
    world().barrier();
    if (rank() == 0) win.put(buf, sizeof buf, 0, 0);
    world().barrier();
    if (rank() == 1) {
      win.get(buf, sizeof buf, 0, 0);
      expect_conflict([&] { win.unlock(0); });
      win.unlock(0);
      EXPECT_EQ(my_counts().concurrent, 1u);
    } else {
      win.unlock(0);
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, AccumulateMixedWithPutAborts) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock(LockType::shared, 0);
    world().barrier();
    if (rank() == 0) win.put(src, sizeof src, 0, 0);
    world().barrier();
    if (rank() == 1) {
      win.accumulate(src, 2, double_type(), 0, 0, 2, double_type(), Op::sum);
      expect_conflict([&] { win.unlock(0); });
      win.unlock(0);
      EXPECT_EQ(my_counts().acc_mix, 1u);
    } else {
      win.unlock(0);
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, DifferentOpAccumulatesAbort) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 1.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock(LockType::shared, 0);
    world().barrier();
    if (rank() == 0)
      win.accumulate(src, 2, double_type(), 0, 0, 2, double_type(), Op::sum);
    world().barrier();
    if (rank() == 1) {
      win.accumulate(src, 2, double_type(), 0, 0, 2, double_type(), Op::prod);
      expect_conflict([&] { win.unlock(0); });
      win.unlock(0);
      EXPECT_EQ(my_counts().acc_mix, 1u);
    } else {
      win.unlock(0);
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, SameOpAccumulatesAreClean) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock(LockType::shared, 0);
    world().barrier();
    win.accumulate(src, 2, double_type(), 0, 0, 2, double_type(), Op::sum);
    world().barrier();
    win.unlock(0);
    EXPECT_EQ(my_counts().total(), 0u);
    world().barrier();
    if (rank() == 0) {
      EXPECT_DOUBLE_EQ(mem[0], 2.0);
      EXPECT_DOUBLE_EQ(mem[1], 4.0);
    }
    win.free();
  });
}

TEST(CheckerTest, SameOriginOverlappingPutsAbort) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      const double src[2] = {1.0, 2.0};
      win.lock(LockType::exclusive, 1);
      win.put(src, sizeof src, 1, 0);
      win.put(src, sizeof src, 1, sizeof(double));
      expect_conflict([&] { win.unlock(1); });
      win.unlock(1);
      EXPECT_EQ(my_counts().same_origin, 1u);
    }
    world().barrier();
    win.free();
  });
}

// A conflicting access must be reported even when the other epoch has
// already closed: the closing epoch leaves its access summary ("ghost")
// with every epoch it was concurrent with.
TEST(CheckerTest, ClosedConcurrentEpochStillConflicts) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock(LockType::shared, 0);
    world().barrier();  // both shared epochs are open and thus concurrent
    if (rank() == 0) {
      win.put(src, sizeof src, 0, 0);
      win.unlock(0);
    }
    world().barrier();
    if (rank() == 1) {
      win.put(src, sizeof src, 0, 0);
      const std::string msg = expect_conflict([&] { win.unlock(0); });
      EXPECT_NE(msg.find("closed concurrent epoch"), std::string::npos) << msg;
      win.unlock(0);
      EXPECT_EQ(my_counts().concurrent, 1u);
    }
    world().barrier();
    win.free();
  });
}

// Serialized reuse stays legal: once an epoch closes, epochs opened *later*
// on the same bytes never see its ghost.
TEST(CheckerTest, SerializedEpochsOnSameBytesAreClean) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    world().barrier();
    if (rank() == 0) {
      win.lock(LockType::shared, 0);
      win.put(src, sizeof src, 0, 0);
      win.unlock(0);
    }
    world().barrier();
    if (rank() == 1) {
      win.lock(LockType::shared, 0);
      win.put(src, sizeof src, 0, 0);
      win.unlock(0);
      EXPECT_EQ(my_counts().total(), 0u);
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, LocalStoreDuringExposureAborts) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    if (rank() == 1) {
      win.lock(LockType::shared, 0);
      win.put(src, sizeof src, 0, 0);
    }
    world().barrier();
    if (rank() == 0) {
      // Direct store into our exposed slice without an exclusive self-epoch.
      win.local_access_begin(mem.data(), 2 * sizeof(double), /*write=*/true);
      mem[0] = 42.0;
      const std::string msg =
          expect_conflict([&] { win.local_access_end(mem.data()); });
      EXPECT_NE(msg.find("direct local store"), std::string::npos) << msg;
      EXPECT_EQ(my_counts().local, 1u);
    }
    world().barrier();
    if (rank() == 1) win.unlock(0);
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, CoveredLocalAccessIsClean) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    // The ARMCI direct-local-access discipline: take an exclusive self-epoch
    // first, then touch the memory with host instructions.
    win.lock(LockType::exclusive, rank());
    win.local_access_begin(mem.data(), 0, /*write=*/true);
    mem[3] = 7.0;
    win.local_access_end(mem.data());
    win.unlock(rank());
    EXPECT_EQ(my_counts().total(), 0u);
    world().barrier();
    win.free();
  });
}

// MPI-3 lock_all epochs follow the MPI-3 memory model: conflicting accesses
// yield undefined values but are not erroneous, so the checker stays silent.
TEST(CheckerTest, LockAllConflictsAreNotFlagged) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock_all();
    world().barrier();
    win.put(src, sizeof src, 0, 0);  // both ranks write the same bytes
    world().barrier();
    win.unlock_all();
    EXPECT_EQ(my_counts().total(), 0u);
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, FlushResetsTrackingUnit) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      double buf[2] = {1.0, 2.0};
      win.lock(LockType::exclusive, 1);
      win.put(buf, sizeof buf, 1, 0);
      win.flush(1);  // orders the put before everything after it
      win.get(buf, sizeof buf, 1, 0);
      win.unlock(1);
      EXPECT_EQ(my_counts().total(), 0u);
      EXPECT_DOUBLE_EQ(buf[0], 1.0);
    }
    world().barrier();
    win.free();
  });
}

// Direction 1: remote RMA already in flight, then a same-node direct access
// touches the same bytes. The shm fast path must be checked like a local
// access: the conflicting store is reported at shm_end, classified local.
TEST(CheckerTest, ShmAccessAgainstInFlightRmaAborts) {
  Config cfg = abort_cfg(2);
  cfg.ranks_per_node = 2;  // co-locate both ranks: the shm path is legal
  run(cfg, [] {
    Win win = Win::allocate_shared(8 * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    if (rank() == 0) {
      win.lock(LockType::shared, 1);
      win.put(src, sizeof src, 1, 0);  // in flight: not yet flushed
    }
    world().barrier();
    if (rank() == 1) {
      // Direct store into the bytes the unflushed put targets.
      const std::string msg =
          expect_conflict([&] { win.shm_put(src, sizeof src, 1, 0); });
      EXPECT_NE(msg.find("direct"), std::string::npos) << msg;
      EXPECT_EQ(my_counts().local, 1u);
    }
    world().barrier();
    if (rank() == 0) win.unlock(1);
    world().barrier();
    win.free();
  });
}

// Direction 2: a held-open same-node direct access (shm_access_begin), then
// remote RMA lands on the declared bytes. The RMA origin is the violator;
// its epoch close reports the conflict.
TEST(CheckerTest, RmaAgainstOpenShmAccessAborts) {
  Config cfg = abort_cfg(2);
  cfg.ranks_per_node = 2;
  run(cfg, [] {
    Win win = Win::allocate_shared(8 * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    if (rank() == 1)
      win.shm_access_begin(1, 0, sizeof src, /*write=*/true);  // own segment
    world().barrier();
    if (rank() == 0) {
      win.lock(LockType::shared, 1);
      win.put(src, sizeof src, 1, 0);  // lands on the open declaration
      const std::string msg = expect_conflict([&] { win.unlock(1); });
      EXPECT_NE(msg.find("direct"), std::string::npos) << msg;
      EXPECT_EQ(my_counts().local, 1u);
      win.unlock(1);  // record retired; releases the lock
    }
    world().barrier();
    if (rank() == 1) win.shm_access_end(1, 0);
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, WarnModeCountsAndCompletes) {
  Config cfg = abort_cfg(2);
  cfg.rma_check = RmaCheck::warn;
  run(cfg, [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      const double src[2] = {1.0, 2.0};
      win.lock(LockType::exclusive, 1);
      win.put(src, sizeof src, 1, 0);
      win.put(src, sizeof src, 1, 0);
      win.unlock(1);  // warn mode: prints to stderr, does not raise
      EXPECT_EQ(my_counts().same_origin, 1u);
      EXPECT_EQ(my_counts().total(), 1u);
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, DiagnosticNamesOpsAndEpochs) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      const double src[2] = {1.0, 2.0};
      win.lock(LockType::exclusive, 1);
      win.put(src, sizeof src, 1, 0);
      win.put(src, sizeof src, 1, 0);
      const std::string msg = expect_conflict([&] { win.unlock(1); });
      EXPECT_NE(msg.find("put"), std::string::npos) << msg;
      EXPECT_NE(msg.find("bytes ["), std::string::npos) << msg;
      EXPECT_NE(msg.find("epoch #"), std::string::npos) << msg;
      EXPECT_NE(msg.find("origin"), std::string::npos) << msg;
      win.unlock(1);
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, CleanExclusiveEpochsZeroCounters) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      double buf[4] = {1.0, 2.0, 3.0, 4.0};
      win.lock(LockType::exclusive, 1);
      win.put(buf, sizeof buf, 1, 0);
      win.unlock(1);
      win.lock(LockType::exclusive, 1);
      win.get(buf, sizeof buf, 1, 0);
      win.unlock(1);
    }
    world().barrier();
    EXPECT_EQ(ctx().core().checker().total_counts().total(), 0u);
    win.free();
  });
}

// ---- Lock-state accounting fixes (previously unchecked index/UB holes) ----

TEST(CheckerTest, UnlockWithoutLockRaisesNotLocked) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    try {
      win.unlock(0);
      ADD_FAILURE() << "expected Errc::not_locked";
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::not_locked) << e.what();
    }
    EXPECT_EQ(my_counts().discipline, 1u);
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, UnlockOutOfRangeTargetRaisesRankOutOfRange) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    try {
      win.unlock(5);
      ADD_FAILURE() << "expected Errc::rank_out_of_range";
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::rank_out_of_range) << e.what();
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, FlushOutOfRangeTargetRaises) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    try {
      win.flush(-3);
      ADD_FAILURE() << "expected Errc::rank_out_of_range";
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::rank_out_of_range) << e.what();
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, LockAllThenLockRaisesDoubleLock) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    win.lock_all();
    try {
      win.lock(LockType::exclusive, 0);
      ADD_FAILURE() << "expected Errc::double_lock";
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::double_lock) << e.what();
    }
    EXPECT_EQ(my_counts().discipline, 1u);
    win.unlock_all();
    world().barrier();
    win.free();
  });
}

// The MPISIM_RMA_CHECK environment variable overrides Config::rma_check at
// SimCore construction (the hook the abort-mode CI job uses).
TEST(CheckerTest, EnvVarOverridesConfiguredMode) {
  ASSERT_EQ(setenv("MPISIM_RMA_CHECK", "off", 1), 0);
  Config cfg = abort_cfg(2);
  run(cfg, [] {
    EXPECT_EQ(ctx().core().checker().mode(), RmaCheck::off);
  });
  unsetenv("MPISIM_RMA_CHECK");
}

// ---- Golden diagnostics ----
//
// Full message text for every message-bearing violation class, driven on a
// standalone checker so epoch ids, window ids and scopes are fixed. A
// substring check cannot tell a reworded or reordered diagnostic from the
// original; these pin every byte. (discipline is not here: the window layer
// raises that message, the checker only counts it.)

using Kind = RmaChecker::OpKind;

/// Calls \p fn, which must raise Errc::rma_conflict, and returns what().
template <typename Fn>
std::string raised(Fn&& fn) {
  try {
    fn();
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::rma_conflict) << e.what();
    return e.what();
  }
  ADD_FAILURE() << "expected Errc::rma_conflict";
  return {};
}

TEST(CheckerGolden, SameOrigin) {
  RmaChecker chk(RmaCheck::abort, 2);
  chk.epoch_opened(3, 1, 0, /*exclusive=*/true);
  chk.record_op(3, 1, 0, 0, Kind::put, Op::replace, 0, 16, "ga.put");
  chk.record_op(3, 1, 0, 0, Kind::put, Op::replace, 8, 24, "ga.put");
  EXPECT_EQ(raised([&] { chk.epoch_closing(3, 1, 0); }),
            "[rma_conflict] mpisim: put on bytes [8, 24) of rank 1 (win 3, "
            "epoch #1 by origin 0, in ga.put) conflicts with a put to bytes "
            "[0, 16) recorded earlier in the same epoch");
  EXPECT_EQ(chk.counts(0).same_origin, 1u);
}

TEST(CheckerGolden, ConcurrentAgainstOpenEpoch) {
  RmaChecker chk(RmaCheck::abort, 2);
  chk.epoch_opened(3, 0, 0, false);
  chk.epoch_opened(3, 0, 1, false);
  chk.record_op(3, 0, 0, 0, Kind::get, Op::sum, 0, 8, "armci.get");
  chk.record_op(3, 0, 1, 1, Kind::put, Op::replace, 4, 12, nullptr);
  chk.epoch_closing(3, 0, 0);  // the reader is clean
  EXPECT_EQ(raised([&] { chk.epoch_closing(3, 0, 1); }),
            "[rma_conflict] mpisim: put on bytes [4, 12) of rank 0 (win 3, "
            "epoch #2 by origin 1) conflicts with a get of bytes [0, 8) by "
            "concurrent epoch #1 of origin 0, in armci.get");
  EXPECT_EQ(chk.counts(1).concurrent, 1u);
}

TEST(CheckerGolden, ConcurrentAgainstClosedGhostEpoch) {
  RmaChecker chk(RmaCheck::abort, 2);
  chk.epoch_opened(3, 0, 0, false);
  chk.epoch_opened(3, 0, 1, false);
  chk.record_op(3, 0, 0, 0, Kind::put, Op::replace, 16, 32, "armci.put");
  chk.epoch_closing(3, 0, 0);  // leaves its summary with epoch #2
  chk.record_op(3, 0, 1, 1, Kind::get, Op::sum, 24, 40, "armci.get");
  EXPECT_EQ(raised([&] { chk.epoch_closing(3, 0, 1); }),
            "[rma_conflict] mpisim: get on bytes [24, 40) of rank 0 (win 3, "
            "epoch #2 by origin 1, in armci.get) conflicts with a put to "
            "bytes [16, 32) by closed concurrent epoch #1 of origin 0, in "
            "armci.put");
  EXPECT_EQ(chk.counts(1).concurrent, 1u);
}

TEST(CheckerGolden, AccMix) {
  RmaChecker chk(RmaCheck::abort, 2);
  chk.epoch_opened(3, 0, 0, false);
  chk.epoch_opened(3, 0, 1, false);
  chk.record_op(3, 0, 0, 0, Kind::acc, Op::sum, 0, 16, nullptr);
  chk.record_op(3, 0, 1, 1, Kind::acc, Op::prod, 8, 16, nullptr);
  chk.record_op(3, 0, 1, 1, Kind::get_acc, Op::max, 0, 4, "ga.rmw");
  EXPECT_EQ(raised([&] { chk.epoch_closing(3, 0, 1); }),
            "[rma_conflict] mpisim: accumulate on bytes [8, 16) of rank 0 "
            "(win 3, epoch #2 by origin 1) conflicts with an accumulate(sum) "
            "on bytes [0, 16) by concurrent epoch #1 of origin 0 (+1 more "
            "violations)");
  EXPECT_EQ(chk.counts(1).acc_mix, 2u);
}

TEST(CheckerGolden, DirectLocalAccess) {
  RmaChecker chk(RmaCheck::abort, 2);
  chk.epoch_opened(3, 0, 1, false);
  chk.record_op(3, 0, 1, 1, Kind::put, Op::replace, 0, 16, "armci.put");
  // The owner's undisciplined store, checked against the open epoch...
  chk.local_begin(3, 0, 0, 8, 24, /*write=*/true, /*covered=*/false,
                  "app.store");
  // ...and RMA landing on the still-open store, checked against it.
  chk.record_op(3, 0, 1, 1, Kind::get, Op::sum, 20, 28, nullptr);
  EXPECT_EQ(raised([&] { chk.local_end(3, 0, 8); }),
            "[rma_conflict] mpisim: direct local store to bytes [8, 24) on "
            "rank 0 (win 3, no exclusive self-epoch, in app.store) conflicts "
            "with a put to bytes [0, 16) by open epoch #1 of origin 1, in "
            "armci.put");
  EXPECT_EQ(raised([&] { chk.epoch_closing(3, 0, 1); }),
            "[rma_conflict] mpisim: get on bytes [20, 28) of rank 0 (win 3, "
            "epoch #1 by origin 1) conflicts with a direct local store to "
            "bytes [8, 24) on rank 0, in app.store");
  EXPECT_EQ(chk.counts(0).local, 1u);
  EXPECT_EQ(chk.counts(1).local, 1u);
}

TEST(CheckerGolden, DirectLocalAccessAgainstGhostEpoch) {
  RmaChecker chk(RmaCheck::abort, 3);
  chk.epoch_opened(3, 0, 1, false);
  chk.epoch_opened(3, 0, 2, false);
  chk.record_op(3, 0, 1, 1, Kind::acc, Op::bor, 0, 8, nullptr);
  chk.epoch_closing(3, 0, 1);  // its summary stays with epoch #2
  chk.local_begin(3, 0, 0, 0, 4, /*write=*/false, /*covered=*/false,
                  nullptr);
  EXPECT_EQ(raised([&] { chk.local_end(3, 0, 0); }),
            "[rma_conflict] mpisim: direct local load of bytes [0, 4) on "
            "rank 0 (win 3, no exclusive self-epoch) conflicts with an "
            "accumulate(bor) on bytes [0, 8) by closed concurrent epoch #1 "
            "of origin 1");
  chk.epoch_closing(3, 0, 2);
}

TEST(CheckerGolden, SharedMemoryAccess) {
  RmaChecker chk(RmaCheck::abort, 3);
  chk.epoch_opened(3, 1, 0, false);
  chk.record_op(3, 1, 0, 0, Kind::put, Op::replace, 0, 12, "armci.put");
  // A co-located rank's direct accumulate into the in-flight put's bytes...
  chk.shm_begin(3, 1, 2, 2, Kind::acc, Op::sum, 8, 16, "armci.acc");
  // ...and a later RMA access landing on the open shm access.
  chk.record_op(3, 1, 0, 0, Kind::get, Op::sum, 12, 20, nullptr);
  EXPECT_EQ(raised([&] { chk.shm_end(3, 1, 2, 8); }),
            "[rma_conflict] mpisim: direct shared-memory accumulate to bytes "
            "[8, 16) on rank 1 (win 3, by rank 2, no epoch, in armci.acc) "
            "conflicts with a put to bytes [0, 12) by open epoch #1 of "
            "origin 0, in armci.put");
  EXPECT_EQ(raised([&] { chk.epoch_closing(3, 1, 0); }),
            "[rma_conflict] mpisim: get on bytes [12, 20) of rank 1 (win 3, "
            "epoch #1 by origin 0) conflicts with a direct shared-memory "
            "accumulate to bytes [8, 16) by rank 2 on rank 1, in armci.acc");
  // A shm load against a ghost, and a shm store seen from RMA.
  chk.epoch_opened(3, 1, 0, false);
  chk.epoch_opened(3, 1, 2, false);
  chk.record_op(3, 1, 2, 2, Kind::put, Op::replace, 32, 40, nullptr);
  chk.epoch_closing(3, 1, 2);
  chk.shm_begin(3, 1, 1, 1, Kind::get, Op::sum, 36, 44, nullptr);
  EXPECT_EQ(raised([&] { chk.shm_end(3, 1, 1, 36); }),
            "[rma_conflict] mpisim: direct shared-memory load of bytes [36, "
            "44) on rank 1 (win 3, by rank 1, no epoch) conflicts with a put "
            "to bytes [32, 40) by closed concurrent epoch #3 of origin 2");
  chk.shm_begin(3, 1, 2, 2, Kind::put, Op::replace, 64, 72, nullptr);
  chk.record_op(3, 1, 0, 0, Kind::get, Op::sum, 64, 65, nullptr);
  EXPECT_EQ(raised([&] { chk.epoch_closing(3, 1, 0); }),
            "[rma_conflict] mpisim: get on bytes [64, 65) of rank 1 (win 3, "
            "epoch #2 by origin 0) conflicts with a direct shared-memory "
            "store to bytes [64, 72) by rank 2 on rank 1");
  chk.shm_end(3, 1, 2, 64);
}

// The issuing operation only records and counts; the same text is raised
// when the epoch completes.
TEST(CheckerGolden, AccOverGetRaisesAtEpochClosing) {
  RmaChecker chk(RmaCheck::abort, 2);
  chk.epoch_opened(3, 1, 0, /*exclusive=*/false);
  chk.record_op(3, 1, 0, 0, Kind::get, Op::sum, 0, 8, nullptr);
  chk.record_op(3, 1, 0, 0, Kind::acc, Op::sum, 4, 12, "armci.acc");
  EXPECT_EQ(chk.counts(0).acc_mix, 1u);
  EXPECT_EQ(raised([&] { chk.epoch_closing(3, 1, 0); }),
            "[rma_conflict] mpisim: accumulate on bytes [4, 12) of rank 1 "
            "(win 3, epoch #1 by origin 0, in armci.acc) conflicts with a get "
            "of bytes [0, 8) recorded earlier in the same epoch");
}

// The one MPI-2 conflict rule, asked both ways: through the shared access
// set's tree query (both checkers' recorded coverage) and through the
// pairwise predicate (the race detector's in-flight accesses). Only get/get,
// same-operator accumulates, and get_accumulate(no_op) against any
// accumulate may overlap (EXPERIMENTS.md, RMA validity checking).
TEST(AccessSetTest, ConflictRuleMatchesTheMpi2Table) {
  struct Access {
    AccessKind kind;
    Op op;
    const char* name;
  };
  const Access accesses[] = {
      {AccessKind::put, Op::replace, "put"},
      {AccessKind::get, Op::replace, "get"},
      {AccessKind::acc, Op::sum, "acc(sum)"},
      {AccessKind::acc, Op::prod, "acc(prod)"},
      {AccessKind::get_acc, Op::sum, "get_acc(sum)"},
      {AccessKind::get_acc, Op::no_op, "get_acc(no_op)"},
  };
  // Row: the recorded access; column: the later one. 1 = conflict.
  constexpr int kConflict[6][6] = {
      {1, 1, 1, 1, 1, 1},  // put
      {1, 0, 1, 1, 1, 1},  // get
      {1, 1, 0, 1, 0, 0},  // acc(sum)
      {1, 1, 1, 0, 1, 0},  // acc(prod)
      {1, 1, 0, 1, 0, 0},  // get_acc(sum)
      {1, 1, 0, 0, 0, 0},  // get_acc(no_op)
  };
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      const Access& first = accesses[i];
      const Access& second = accesses[j];
      const bool expected = kConflict[i][j] != 0;
      SCOPED_TRACE(std::string(first.name) + " then " + second.name);
      AccessSet set;
      set.tree(first.kind, first.op).insert_merge(0, 7);
      AccessHit hit;
      EXPECT_EQ(set.conflict(second.kind, second.op, 4, 11, &hit), expected);
      EXPECT_EQ(accesses_conflict(first.kind, first.op, second.kind,
                                  second.op),
                expected);
      if (expected) {
        const AccessHit::Kind tree = first.kind == AccessKind::get
                                         ? AccessHit::Kind::read
                                     : first.kind == AccessKind::put
                                         ? AccessHit::Kind::write
                                         : AccessHit::Kind::acc;
        EXPECT_EQ(hit.kind, tree);
        if (tree == AccessHit::Kind::acc) EXPECT_EQ(hit.op, first.op);
        EXPECT_EQ(hit.lo, 0u);
        EXPECT_EQ(hit.hi, 7u);
      }
      EXPECT_FALSE(set.conflict(second.kind, second.op, 8, 15, &hit));
    }
  }
}

// Through the window layer: a 2-D strided put overlapping an earlier one in
// the same epoch reports each overlapping segment, and the abort message
// carries the count of the rest.
TEST(CheckerGolden, StridedPutThroughTheWindow) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(16, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      const double src[8] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
      const Datatype rows = Datatype::vector(2, 2, 4, double_type());
      win.lock(LockType::exclusive, 1);
      win.put(src, sizeof src, 1, 0);               // bytes [0, 64)
      win.put(src, 4, double_type(), 1, 16, 1, rows);  // [16, 32), [48, 64)
      EXPECT_EQ(raised([&] { win.unlock(1); }),
                "[rma_conflict] mpisim: put on bytes [16, 32) of rank 1 (win "
                "1, epoch #1 by origin 0) conflicts with a put to bytes [0, "
                "64) recorded earlier in the same epoch (+1 more violations)");
      EXPECT_EQ(my_counts().same_origin, 2u);
      win.unlock(1);
    }
    world().barrier();
    win.free();
  });
}

// ---- Deferred recording ----
//
// An epoch's first op is held back unrecorded while no other access can
// observe it. Each test below starts from such a held op, then makes the
// checker look at it; the raised text must be byte-identical to what
// recording every op eagerly produced (the golden tests above).

TEST(CheckerDeferred, SecondOpInTheEpochBuildsTheHeldOp) {
  RmaChecker chk(RmaCheck::abort, 2);
  chk.epoch_opened(3, 1, 0, /*exclusive=*/true);
  chk.record_op(3, 1, 0, 0, Kind::put, Op::replace, 0, 16, "ga.put");
  EXPECT_TRUE(chk.op_held(3, 1, 0));
  chk.record_op(3, 1, 0, 0, Kind::put, Op::replace, 8, 24, "ga.put");
  EXPECT_FALSE(chk.op_held(3, 1, 0));
  EXPECT_EQ(raised([&] { chk.epoch_closing(3, 1, 0); }),
            "[rma_conflict] mpisim: put on bytes [8, 24) of rank 1 (win 3, "
            "epoch #1 by origin 0, in ga.put) conflicts with a put to bytes "
            "[0, 16) recorded earlier in the same epoch");
  EXPECT_EQ(chk.counts(0).same_origin, 1u);
}

TEST(CheckerDeferred, ConcurrentEpochBuildsTheHeldOp) {
  RmaChecker chk(RmaCheck::abort, 2);
  chk.epoch_opened(3, 0, 0, false);
  chk.record_op(3, 0, 0, 0, Kind::get, Op::sum, 0, 8, "armci.get");
  EXPECT_TRUE(chk.op_held(3, 0, 0));
  chk.epoch_opened(3, 0, 1, false);
  chk.record_op(3, 0, 1, 1, Kind::put, Op::replace, 4, 12, nullptr);
  EXPECT_FALSE(chk.op_held(3, 0, 0));
  EXPECT_FALSE(chk.op_held(3, 0, 1));  // another MPI-2 epoch is open
  chk.epoch_closing(3, 0, 0);  // the reader is clean
  EXPECT_EQ(raised([&] { chk.epoch_closing(3, 0, 1); }),
            "[rma_conflict] mpisim: put on bytes [4, 12) of rank 0 (win 3, "
            "epoch #2 by origin 1) conflicts with a get of bytes [0, 8) by "
            "concurrent epoch #1 of origin 0, in armci.get");
  EXPECT_EQ(chk.counts(1).concurrent, 1u);
}

TEST(CheckerDeferred, UncoveredLocalStoreBuildsTheHeldOp) {
  RmaChecker chk(RmaCheck::abort, 2);
  chk.epoch_opened(3, 0, 1, false);
  chk.record_op(3, 0, 1, 1, Kind::put, Op::replace, 0, 16, "armci.put");
  EXPECT_TRUE(chk.op_held(3, 0, 1));
  chk.local_begin(3, 0, 0, 8, 24, /*write=*/true, /*covered=*/false,
                  "app.store");
  EXPECT_FALSE(chk.op_held(3, 0, 1));
  EXPECT_EQ(raised([&] { chk.local_end(3, 0, 8); }),
            "[rma_conflict] mpisim: direct local store to bytes [8, 24) on "
            "rank 0 (win 3, no exclusive self-epoch, in app.store) conflicts "
            "with a put to bytes [0, 16) by open epoch #1 of origin 1, in "
            "armci.put");
  EXPECT_EQ(chk.counts(0).local, 1u);
  chk.epoch_closing(3, 0, 1);
}

TEST(CheckerDeferred, ShmAccessBuildsTheHeldOp) {
  RmaChecker chk(RmaCheck::abort, 3);
  chk.epoch_opened(3, 1, 0, false);
  chk.record_op(3, 1, 0, 0, Kind::put, Op::replace, 0, 12, "armci.put");
  EXPECT_TRUE(chk.op_held(3, 1, 0));
  chk.shm_begin(3, 1, 2, 2, Kind::acc, Op::sum, 8, 16, "armci.acc");
  EXPECT_FALSE(chk.op_held(3, 1, 0));
  EXPECT_EQ(raised([&] { chk.shm_end(3, 1, 2, 8); }),
            "[rma_conflict] mpisim: direct shared-memory accumulate to bytes "
            "[8, 16) on rank 1 (win 3, by rank 2, no epoch, in armci.acc) "
            "conflicts with a put to bytes [0, 12) by open epoch #1 of "
            "origin 0, in armci.put");
  EXPECT_EQ(chk.counts(2).local, 1u);
  chk.epoch_closing(3, 1, 0);
}

TEST(CheckerDeferred, GhostHandoffBuildsTheHeldOp) {
  RmaChecker chk(RmaCheck::abort, 2);
  chk.epoch_opened(3, 0, 0, false);
  chk.record_op(3, 0, 0, 0, Kind::put, Op::replace, 16, 32, "armci.put");
  chk.epoch_opened(3, 0, 1, false);
  EXPECT_TRUE(chk.op_held(3, 0, 0));  // nothing has looked at it yet
  chk.epoch_closing(3, 0, 0);  // leaves its summary with epoch #2
  chk.record_op(3, 0, 1, 1, Kind::get, Op::sum, 24, 40, "armci.get");
  EXPECT_EQ(raised([&] { chk.epoch_closing(3, 0, 1); }),
            "[rma_conflict] mpisim: get on bytes [24, 40) of rank 0 (win 3, "
            "epoch #2 by origin 1, in armci.get) conflicts with a put to "
            "bytes [16, 32) by closed concurrent epoch #1 of origin 0, in "
            "armci.put");
  EXPECT_EQ(chk.counts(1).concurrent, 1u);
}

TEST(CheckerDeferred, ClosingAloneDropsTheHeldOp) {
  RmaChecker chk(RmaCheck::abort, 2);
  chk.epoch_opened(3, 0, 0, true);
  chk.record_op(3, 0, 0, 0, Kind::put, Op::replace, 0, 16, nullptr);
  EXPECT_TRUE(chk.op_held(3, 0, 0));
  chk.epoch_closing(3, 0, 0);  // nobody was concurrent: no ghost
  // A later epoch on the same bytes is ordered after it: clean.
  chk.epoch_opened(3, 0, 1, true);
  chk.record_op(3, 0, 1, 1, Kind::put, Op::replace, 0, 16, nullptr);
  chk.record_op(3, 0, 1, 1, Kind::get, Op::sum, 32, 48, nullptr);
  chk.epoch_closing(3, 0, 1);
  EXPECT_EQ(chk.total_counts().total(), 0u);
}

TEST(CheckerDeferred, FlushDropsTheHeldOp) {
  RmaChecker chk(RmaCheck::abort, 2);
  chk.epoch_opened(3, 1, 0, true);
  chk.record_op(3, 1, 0, 0, Kind::put, Op::replace, 0, 16, nullptr);
  EXPECT_TRUE(chk.op_held(3, 1, 0));
  chk.epoch_flushed(3, 1, 0);
  EXPECT_FALSE(chk.op_held(3, 1, 0));
  // The flush ordered the held put before everything after it, so the
  // overlapping put is clean -- and is itself the new tracking unit's
  // first op.
  chk.record_op(3, 1, 0, 0, Kind::put, Op::replace, 8, 24, nullptr);
  EXPECT_TRUE(chk.op_held(3, 1, 0));
  chk.epoch_closing(3, 1, 0);
  EXPECT_EQ(chk.counts(0).total(), 0u);
}

TEST(CheckerDeferred, SelfOverlappingOpIsNeverHeld) {
  RmaChecker chk(RmaCheck::abort, 2);
  chk.epoch_opened(3, 1, 0, true);
  const Segment twice[2] = {{0, 16}, {8, 16}};
  chk.record_op(3, 1, 0, 0, Kind::put, Op::replace, 0, twice, nullptr);
  EXPECT_FALSE(chk.op_held(3, 1, 0));
  EXPECT_EQ(raised([&] { chk.epoch_closing(3, 1, 0); }),
            "[rma_conflict] mpisim: put on bytes [8, 24) of rank 1 (win 3, "
            "epoch #1 by origin 0) conflicts with a put to bytes [0, 16) "
            "recorded earlier in the same epoch");
  // Segments that go back without overlapping are recorded eagerly too,
  // and are clean.
  chk.epoch_opened(3, 1, 0, true);
  const Segment back[2] = {{16, 8}, {0, 8}};
  chk.record_op(3, 1, 0, 0, Kind::put, Op::replace, 0, back, nullptr);
  EXPECT_FALSE(chk.op_held(3, 1, 0));
  chk.epoch_closing(3, 1, 0);
  EXPECT_EQ(chk.counts(0).same_origin, 1u);
}

TEST(CheckerTest, ViolationAndModeNamesAreStable) {
  EXPECT_STREQ(rma_check_name(RmaCheck::off), "off");
  EXPECT_STREQ(rma_check_name(RmaCheck::warn), "warn");
  EXPECT_STREQ(rma_check_name(RmaCheck::abort), "abort");
  EXPECT_STREQ(rma_violation_name(RmaViolation::same_origin), "same_origin");
  EXPECT_STREQ(rma_violation_name(RmaViolation::concurrent), "concurrent");
  EXPECT_STREQ(rma_violation_name(RmaViolation::acc_mix), "acc_mix");
  EXPECT_STREQ(rma_violation_name(RmaViolation::local), "local");
  EXPECT_STREQ(rma_violation_name(RmaViolation::discipline), "discipline");
}

}  // namespace
}  // namespace mpisim
