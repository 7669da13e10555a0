// Targeted wake-ups: a rank blocked in wait() sleeps on its own wake slot
// and is woken only by state changes addressed to it (a message for it, a
// lock granted to it) or by broadcast pokes -- not by every other rank's
// traffic. Voluntary context switches of the blocked rank's thread
// (RUSAGE_THREAD) measure how often it was woken. A poke's notify goes out
// after the poker releases the global lock; the stress test checks that
// none of those deferred wake-ups is lost.

#include <sys/resource.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <vector>

#include "src/am/am.hpp"
#include "src/armci/armci.hpp"
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

TEST(WakeTest, WakeQueuedByARankThatThenSleepsGoesOut) {
  // Each rank pokes its peer and then waits within one hold of the global
  // lock, so every hand-off after the first leaves a queued wake-up behind
  // a rank that goes to sleep: wait() must send it before sleeping, or
  // both ranks sleep until the safety net.
  constexpr int kHandoffs = 200;
  int turn = 0;  // hand-offs so far; rank (turn % 2) moves next
  bool stop = false;
  std::uint64_t lost = 0;
  run(2, Platform::ideal, [&] {
    SimCore& core = ctx().core();
    const int me = rank();
    std::unique_lock lk(core.mu());
    for (;;) {
      core.wait(lk, [&] { return stop || turn % 2 == me; });
      if (stop) break;
      if (++turn >= kHandoffs || core.lost_wakeups() > 0) stop = true;
      core.poke(1 - me);
    }
    lost = std::max(lost, core.lost_wakeups());
  });
  EXPECT_EQ(lost, 0u);
  EXPECT_EQ(turn, kHandoffs);
}

TEST(WakeTest, MixedRpcLockAndBarrierTrafficLosesNoWakeup) {
  // Each round, every rank makes rpc round trips to the three others
  // (request and reply pokes), then one exclusive epoch on rank 0's window
  // (contended grant pokes); every 8 rounds a serving barrier, a barrier,
  // an intercommunicator round trip and an allreduce (broadcast pokes and
  // system-channel sends). A dropped wake-up leaves its rank asleep until
  // the 1 s safety net, which lost_wakeups() counts. Once a rank sees one
  // it stops issuing, and the allreduce stops every rank, so a broken
  // build fails in seconds instead of sleeping through every round.
  constexpr int kRounds = 200;
  constexpr int kRpcsPerRound = 12;
  constexpr int kCheckEvery = 8;
  std::uint64_t lost = 0;
  std::int64_t total = -1;
  std::exception_ptr failure;
  try {
    run(4, Platform::ideal, [&] {
      armci::init();
      am::init();
      const int h = am::register_handler(
          [](int, const void* arg, std::size_t, void* reply,
             std::size_t) -> std::size_t {
            std::uint64_t v = 0;
            std::memcpy(&v, arg, sizeof v);
            ++v;
            std::memcpy(reply, &v, sizeof v);
            return sizeof v;
          });
      std::vector<std::int64_t> mem(1, 0);
      Win win = Win::create(mem.data(), sizeof(std::int64_t), world());
      Comm w = world();
      std::uint64_t seen_lost = 0;
      auto healthy = [] { return ctx().core().lost_wakeups() == 0; };
      for (int round = 0; round < kRounds && seen_lost == 0; ++round) {
        for (int i = 0; i < kRpcsPerRound && healthy(); ++i) {
          const int target = (rank() + 1 + i % 3) % 4;
          const std::uint64_t v = static_cast<std::uint64_t>(round * 100 + i);
          am::Handle r = am::rpc(target, h, &v, sizeof v);
          r.wait();
          EXPECT_EQ(r.reply_as<std::uint64_t>(), v + 1);
        }
        if (healthy()) {
          std::int64_t x = 0;
          win.lock(LockType::exclusive, 0);
          win.get(&x, sizeof x, 0, 0);
          win.flush(0);
          ++x;
          win.put(&x, sizeof x, 0, 0);
          win.unlock(0);
        }
        if (round % kCheckEvery == kCheckEvery - 1) {
          am::barrier();  // no rpc is in flight past this point
          w.barrier();
          // The leaders' handshakes of intercomm_create and merge travel
          // over the runtime's system channel (its own addressed pokes).
          Comm half = w.split(rank() < 2 ? 0 : 1, rank());
          Comm inter = half.intercomm_create(0, rank() < 2 ? 2 : 0, round);
          Comm merged = inter.merge(/*high=*/rank() >= 2);
          const std::uint64_t mine = ctx().core().lost_wakeups();
          merged.allreduce(&mine, &seen_lost, 1, BasicType::uint64, Op::max);
        }
      }
      am::barrier();
      w.barrier();
      if (rank() == 0) {
        total = mem[0];
        lost = ctx().core().lost_wakeups();
      }
      w.barrier();
      win.free();
      am::finalize();
      armci::finalize();
    });
  } catch (...) {
    failure = std::current_exception();  // e.g. a deadlock verdict
  }
  EXPECT_EQ(failure, nullptr);
  EXPECT_EQ(lost, 0u);
  if (lost == 0) EXPECT_EQ(total, 4 * kRounds);
}

}  // namespace
}  // namespace mpisim
