// Targeted wake-ups: a rank blocked in wait() sleeps on its own wake slot
// and is woken only by state changes addressed to it (a message for it, a
// lock granted to it) or by broadcast pokes -- not by every other rank's
// traffic. Voluntary context switches of the blocked rank's thread
// (RUSAGE_THREAD) measure how often it was woken.

#include <sys/resource.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/mpisim/comm.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/win.hpp"

namespace mpisim {
namespace {

/// Voluntary context switches of the calling thread so far.
long voluntary_switches() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_nvcsw;
}

/// Upper bound on the blocked rank's sleeps: the wake-up it waits for, a
/// few lock handoffs, and one 1 s safety-net expiry per second of the
/// peers' traffic on a slow (sanitized) host. Waking for every peer
/// message or epoch would cost thousands.
constexpr long kMaxSwitches = 50;

TEST(WakeTest, BlockedReceiverSleepsThroughOtherRanksPingPong) {
  constexpr int kRoundTrips = 2000;
  long switches = -1;
  run(4, Platform::ideal, [&] {
    Comm w = world();
    int v = 0;
    switch (rank()) {
      case 0: {
        const long before = voluntary_switches();
        w.recv(&v, sizeof v, 3, 0);
        switches = voluntary_switches() - before;
        break;
      }
      case 1:
        for (int i = 0; i < kRoundTrips; ++i) {
          w.send(&v, sizeof v, 2, 1);
          w.recv(&v, sizeof v, 2, 1);
        }
        w.send(&v, sizeof v, 3, 2);
        break;
      case 2:
        for (int i = 0; i < kRoundTrips; ++i) {
          w.recv(&v, sizeof v, 1, 1);
          ++v;
          w.send(&v, sizeof v, 1, 1);
        }
        break;
      default:
        w.recv(&v, sizeof v, 1, 2);
        w.send(&v, sizeof v, 0, 0);
        break;
    }
    if (rank() == 0) EXPECT_EQ(v, kRoundTrips);
    w.barrier();
    EXPECT_EQ(ctx().core().lost_wakeups(), 0u);
  });
  EXPECT_GE(switches, 0);
  EXPECT_LE(switches, kMaxSwitches);
}

TEST(WakeTest, QueuedLockSleepsThroughEpochsOnOtherTargets) {
  // Rank 1 queues for an exclusive lock on target A, held by rank 0 until
  // ranks 2 and 3 have run all their epochs on target B.
  constexpr int kEpochs = 1000;
  constexpr int kTargetA = 0;
  constexpr int kTargetB = 3;
  long switches = -1;
  run(4, Platform::ideal, [&] {
    std::vector<std::int64_t> mem(1, 0);
    Win win = Win::create(mem.data(), sizeof(std::int64_t), world());
    Comm w = world();
    int token = 0;
    switch (rank()) {
      case 0:
        win.lock(LockType::exclusive, kTargetA);
        for (int r = 1; r < 4; ++r) w.send(&token, sizeof token, r, 0);
        w.recv(&token, sizeof token, 2, 1);
        w.recv(&token, sizeof token, 3, 1);
        win.unlock(kTargetA);
        break;
      case 1: {
        w.recv(&token, sizeof token, 0, 0);
        const long before = voluntary_switches();
        win.lock(LockType::exclusive, kTargetA);
        switches = voluntary_switches() - before;
        win.unlock(kTargetA);
        break;
      }
      default:
        w.recv(&token, sizeof token, 0, 0);
        for (int i = 0; i < kEpochs; ++i) {
          const std::int64_t v = i;
          win.lock(LockType::exclusive, kTargetB);
          win.put(&v, sizeof v, kTargetB, 0);
          win.unlock(kTargetB);
        }
        w.send(&token, sizeof token, 0, 1);
        break;
    }
    w.barrier();
    if (rank() == kTargetB) EXPECT_EQ(mem[0], kEpochs - 1);
    EXPECT_EQ(ctx().core().lost_wakeups(), 0u);
    win.free();
  });
  EXPECT_GE(switches, 0);
  EXPECT_LE(switches, kMaxSwitches);
}

TEST(WakeTest, LockAllQueuesBehindExclusiveEpochs) {
  // lock_all's shared requests queue behind rank 0's exclusive epochs; each
  // grant must reach the queued origin.
  constexpr int kIters = 200;
  run(3, Platform::ideal, [&] {
    std::vector<std::int64_t> mem(1, 0);
    Win win = Win::create(mem.data(), sizeof(std::int64_t), world());
    world().barrier();
    for (int i = 0; i < kIters; ++i) {
      if (rank() == 0) {
        const std::int64_t v = i;
        win.lock(LockType::exclusive, 1);
        win.put(&v, sizeof v, 1, 0);
        win.unlock(1);
      } else {
        std::int64_t v = -1;
        win.lock_all();
        win.get(&v, sizeof v, 1, 0);
        win.flush(1);
        win.unlock_all();
        EXPECT_GE(v, 0);
        EXPECT_LT(v, kIters);
      }
    }
    world().barrier();
    EXPECT_EQ(ctx().core().lost_wakeups(), 0u);
    win.free();
  });
}

}  // namespace
}  // namespace mpisim
