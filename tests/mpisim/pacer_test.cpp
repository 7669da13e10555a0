// Tests for virtual-time pacing of dynamically load-balanced loops.

#include "src/mpisim/pacer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <optional>
#include <vector>

#include "src/mpisim/comm.hpp"
#include "src/mpisim/runtime.hpp"

namespace mpisim {
namespace {

TEST(PacerTest, EnterIsARendezvous) {
  // A rank that calls enter() must not proceed until everyone entered; we
  // detect violations by counting entered ranks at first pace().
  std::atomic<int> entered{0};
  run(8, Platform::ideal, [&] {
    Pacer p = Pacer::create(world());
    entered.fetch_add(1);
    p.enter();
    EXPECT_EQ(entered.load(), 8);  // all in before anyone returns
    p.pace();
    p.leave();
  });
}

TEST(PacerTest, ClaimsFollowVirtualClocks) {
  // With uniform virtual task costs, a shared counter paced by virtual
  // time must distribute tasks evenly regardless of host scheduling.
  std::vector<int> counts(4, 0);
  run(4, Platform::ideal, [&] {
    Pacer p = Pacer::create(world());
    // A crude shared counter (test-only; ARMCI provides the real one).
    static std::atomic<int> next{0};
    if (rank() == 0) next = 0;
    world().barrier();
    p.enter();
    int mine = 0;
    while (true) {
      p.pace();
      const int t = next.fetch_add(1);
      if (t >= 40) break;
      clock().advance(1000.0);  // uniform virtual task cost
      ++mine;
    }
    p.leave();
    counts[static_cast<std::size_t>(rank())] = mine;
    world().barrier();
    EXPECT_EQ(ctx().core().lost_wakeups(), 0u);
  });
  for (int c : counts) EXPECT_EQ(c, 10);
}

TEST(PacerTest, UnevenCostsShiftClaims) {
  // Rank 0's tasks are 9x more expensive in virtual time; pacing must give
  // it roughly 1/9 the tasks of the cheap ranks.
  std::vector<int> counts(3, 0);
  run(3, Platform::ideal, [&] {
    Pacer p = Pacer::create(world());
    static std::atomic<int> next{0};
    if (rank() == 0) next = 0;
    world().barrier();
    p.enter();
    int mine = 0;
    while (true) {
      p.pace();
      const int t = next.fetch_add(1);
      if (t >= 57) break;
      clock().advance(rank() == 0 ? 9000.0 : 1000.0);
      ++mine;
    }
    p.leave();
    counts[static_cast<std::size_t>(rank())] = mine;
  });
  EXPECT_LT(counts[0], counts[1] / 2);
  EXPECT_NEAR(counts[1], counts[2], 3);
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 57);
}

TEST(PacerTest, LeaveReleasesStragglers) {
  // A rank that leaves with a low clock must not block the others forever.
  run(4, Platform::ideal, [&] {
    Pacer p = Pacer::create(world());
    p.enter();
    if (rank() == 0) {
      p.leave();  // leaves immediately at clock ~0
    } else {
      clock().advance(1e9);
      p.pace();  // would deadlock if rank 0 still counted as the minimum
      p.leave();
    }
    world().barrier();
  });
}

TEST(PacerTest, WindowAllowsBoundedSkew) {
  run(2, Platform::ideal, [&] {
    Pacer p = Pacer::create(world());
    p.enter();
    if (rank() == 0) clock().advance(500.0);
    // A window larger than the skew never blocks.
    p.pace(1000.0);
    p.leave();
    world().barrier();
  });
}

TEST(PacerTest, ReusableAcrossPhases) {
  run(4, Platform::ideal, [&] {
    Pacer p = Pacer::create(world());
    for (int phase = 0; phase < 3; ++phase) {
      p.enter();
      p.pace();
      clock().advance(100.0 * (rank() + 1));
      p.leave();
      world().barrier();
    }
  });
}

TEST(PacerTest, DeadMemberCountsAsLeft) {
  // Survivable mode: a rank that dies inside the paced region freezes its
  // clock. Survivors must treat it as having left -- not wait on it as the
  // minimum forever (a false "deadlock detected" at pacer.pace) -- and a
  // later enter() must not wait for it to arrive.
  constexpr double kTaskNs = 10'000.0;
  Config cfg;
  cfg.nranks = 3;
  cfg.platform = Platform::ideal;
  cfg.fault.survivable = true;
  cfg.fault.crashes = {{1, 0.5e6}};
  std::mutex mu;
  std::vector<std::optional<Errc>> raised(3);
  std::vector<int> tasks(3, 0);
  EXPECT_NO_THROW(run(cfg, [&] {
    try {
      Pacer p = Pacer::create(world());
      for (int phase = 0; phase < 2; ++phase) {
        p.enter();
        for (int i = 0; i < 100; ++i) {
          p.pace();
          // Stands in for the task's communication: the victim dies here.
          ctx().fault().fault_point(clock());
          clock().advance(kTaskNs);
          ++tasks[static_cast<std::size_t>(rank())];
        }
        p.leave();
      }
      world().barrier();  // completes over the survivors
      EXPECT_EQ(ctx().core().lost_wakeups(), 0u);
    } catch (const MpiError& e) {
      {
        std::lock_guard lk(mu);
        raised[static_cast<std::size_t>(rank())] = e.code();
      }
      throw;
    }
  }));
  EXPECT_FALSE(raised[0].has_value());
  ASSERT_TRUE(raised[1].has_value());
  EXPECT_EQ(*raised[1], Errc::crashed);
  EXPECT_FALSE(raised[2].has_value());
  EXPECT_EQ(tasks[0], 200);
  EXPECT_GT(tasks[1], 0);  // died mid-loop, at about task 50
  EXPECT_LT(tasks[1], 100);
  EXPECT_EQ(tasks[2], 200);
}

}  // namespace
}  // namespace mpisim
