#include "src/mpisim/pacer.hpp"

#include <limits>
#include <vector>

#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"

namespace mpisim {

namespace detail {

struct PacerImpl {
  Comm comm;
  // Guarded by the simulator's global lock.
  std::vector<double> clocks;
  std::vector<bool> active;
  // Generation barrier for enter(): a fast rank may pace and leave() again
  // before slow ranks observe the rendezvous, so "everyone active" is not
  // a stable predicate -- the generation count is.
  std::vector<bool> arrived;  // per member: entered this generation
  std::uint64_t generation = 0;

  /// Survivable mode: a dead member can neither arrive nor advance its
  /// clock, so every pacing decision treats it as having left.
  bool dead(SimCore& core, std::size_t r) const {
    return core.is_dead_locked(comm.group().world_rank(static_cast<int>(r)));
  }
};

}  // namespace detail

using detail::PacerImpl;

Pacer::Pacer(std::shared_ptr<PacerImpl> impl) : impl_(std::move(impl)) {}

Pacer Pacer::create(const Comm& comm) {
  SimCore& core = ctx().core();
  std::uint64_t key = 0;
  if (comm.rank() == 0) {
    auto mk = std::make_shared<PacerImpl>();
    mk->comm = comm;
    mk->clocks.assign(static_cast<std::size_t>(comm.size()), 0.0);
    mk->active.assign(static_cast<std::size_t>(comm.size()), false);
    mk->arrived.assign(static_cast<std::size_t>(comm.size()), false);
    std::lock_guard lk(core.mu());
    key = SimCore::kPacerPublishTag | core.alloc_obj_key_locked();
    // Core-owned rendezvous slot: survives an abort mid-create without
    // leaking and without freeing under a peer still copying.
    core.publish_obj_locked(key, std::move(mk));
    core.poke();
  }
  comm.bcast(&key, sizeof key, 0);
  std::shared_ptr<PacerImpl> impl =
      std::static_pointer_cast<PacerImpl>(core.fetch_published_obj(key));
  comm.barrier();
  if (comm.rank() == 0) core.retire_published_obj(key);
  return Pacer(std::move(impl));
}

void Pacer::enter() {
  PacerImpl& p = *impl_;
  SimCore& core = *p.comm.impl()->core;
  const auto me = static_cast<std::size_t>(p.comm.rank());
  std::unique_lock lk(core.mu());
  p.active[me] = true;
  p.clocks[me] = ctx().clock().now_ns();
  // Rendezvous: without it, a host-fast thread would see only itself
  // active, consider itself the minimum, and race ahead of the region.
  p.arrived[me] = true;
  const std::uint64_t my_gen = p.generation;
  // Open the next generation once every live member has arrived; a member
  // that dies before arriving is excused (its death pokes the waiters).
  const auto try_open_locked = [&] {
    for (std::size_t r = 0; r < p.arrived.size(); ++r)
      if (!p.arrived[r] && !p.dead(core, r)) return false;
    p.arrived.assign(p.arrived.size(), false);
    ++p.generation;
    core.poke();
    return true;
  };
  if (try_open_locked()) return;
  core.wait(lk, [&] { return p.generation != my_gen || try_open_locked(); },
            "pacer.enter");
}

void Pacer::pace(double window_ns) {
  PacerImpl& p = *impl_;
  SimCore& core = *p.comm.impl()->core;
  RankContext& rc = ctx();
  const auto me = static_cast<std::size_t>(p.comm.rank());

  std::unique_lock lk(core.mu());
  require_internal(p.active[me], "Pacer::pace outside enter/leave");
  p.clocks[me] = rc.clock().now_ns();
  core.note_time_locked(rc.clock().now_ns());
  core.poke();
  core.wait(lk, [&] {
    double min_clock = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < p.clocks.size(); ++r)
      if (p.active[r] && !p.dead(core, r))
        min_clock = std::min(min_clock, p.clocks[r]);
    return p.clocks[me] <= min_clock + window_ns;
  }, "pacer.pace");
}

void Pacer::leave() {
  PacerImpl& p = *impl_;
  SimCore& core = *p.comm.impl()->core;
  const auto me = static_cast<std::size_t>(p.comm.rank());
  std::lock_guard lk(core.mu());
  p.active[me] = false;
  core.poke();
}

}  // namespace mpisim
