#include "src/mpisim/checker.hpp"

#include <cstdio>
#include <cstring>
#include <iterator>
#include <utility>

#include "src/mpisim/error.hpp"

namespace mpisim {

namespace {

std::string byte_range(std::ptrdiff_t lo, std::ptrdiff_t hi) {
  return "bytes [" + std::to_string(lo) + ", " + std::to_string(hi) + ")";
}

/// Inclusive tree range back to the half-open form diagnostics use.
std::string byte_range_incl(std::uintptr_t lo, std::uintptr_t hi) {
  return byte_range(static_cast<std::ptrdiff_t>(lo),
                    static_cast<std::ptrdiff_t>(hi) + 1);
}

std::string scope_suffix(const char* scope) {
  return scope != nullptr ? std::string(", in ") + scope : std::string();
}

}  // namespace

const char* rma_check_name(RmaCheck m) noexcept {
  switch (m) {
    case RmaCheck::off: return "off";
    case RmaCheck::warn: return "warn";
    case RmaCheck::abort: return "abort";
    case RmaCheck::race: return "race";
  }
  return "?";
}

bool parse_rma_check(const char* text, RmaCheck* out) noexcept {
  if (text == nullptr) return false;
  if (std::strcmp(text, "off") == 0) { *out = RmaCheck::off; return true; }
  if (std::strcmp(text, "warn") == 0) { *out = RmaCheck::warn; return true; }
  if (std::strcmp(text, "abort") == 0) { *out = RmaCheck::abort; return true; }
  if (std::strcmp(text, "race") == 0) { *out = RmaCheck::race; return true; }
  return false;
}

const char* rma_violation_name(RmaViolation v) noexcept {
  static constexpr const char* kNames[] = {
      MPISIM_RMA_VIOLATIONS(MPISIM_COUNTER_NAME)};
  const auto i = static_cast<std::size_t>(v);
  return i < std::size(kNames) ? kNames[i] : "?";
}

bool AccessSet::conflict(AccessKind kind, Op op, std::uintptr_t lo,
                         std::uintptr_t hi, AccessHit* hit) const {
  using Kind = AccessHit::Kind;
  std::uintptr_t olo = 0;
  std::uintptr_t ohi = 0;
  if (accesses_conflict(kind, op, AccessKind::get, Op::replace) &&
      reads.overlapping(lo, hi, &olo, &ohi)) {
    *hit = AccessHit{Kind::read, Op::sum, olo, ohi};
    return true;
  }
  if (accesses_conflict(kind, op, AccessKind::put, Op::replace) &&
      writes.overlapping(lo, hi, &olo, &ohi)) {
    *hit = AccessHit{Kind::write, Op::sum, olo, ohi};
    return true;
  }
  // The rule treats acc and get_acc alike, so one tree per operator serves
  // both.
  for (const auto& [o, tree] : accs) {
    if (accesses_conflict(kind, op, AccessKind::acc, o) &&
        tree.overlapping(lo, hi, &olo, &ohi)) {
      *hit = AccessHit{Kind::acc, o, olo, ohi};
      return true;
    }
  }
  return false;
}

std::size_t AccessSet::size() const noexcept {
  std::size_t n = reads.size() + writes.size();
  for (const auto& [op, tree] : accs) n += tree.size();
  return n;
}

void AccessSet::clear() noexcept {
  reads.clear();
  writes.clear();
  // Keep the per-operator entries: a recycled epoch record reuses them.
  for (auto& [op, tree] : accs) tree.clear();
}

RmaChecker::RmaChecker(RmaCheck mode, int nranks)
    : mode_(mode),
      per_rank_(static_cast<std::size_t>(nranks > 0 ? nranks : 1)) {}

void RmaChecker::epoch_opened(std::uint64_t win, int target, int origin,
                              bool exclusive) {
  if (!enabled()) return;
  TargetRec& tr = wins_[win].targets[target];
  auto eit = tr.open.find(origin);
  if (eit == tr.open.end()) {
    // Reuse a closed epoch's record (its map node and buffers) when the
    // target has one: a lock/unlock stream then allocates nothing here.
    if (tr.spare.empty()) {
      eit = tr.open.try_emplace(origin).first;
    } else {
      auto node = std::move(tr.spare.back());
      tr.spare.pop_back();
      node.key() = origin;
      eit = tr.open.insert(std::move(node)).position;
    }
  }
  EpochRec& ep = eit->second;
  ep.id = next_epoch_id_++;
  ep.origin = origin;
  ep.exclusive = exclusive;
  ep.mpi3 = false;
  ep.scope = nullptr;
  ep.held = false;
  ep.sets.clear();
  ep.ghosts.clear();
  ep.pending.clear();
}

void RmaChecker::epoch_set_mpi3(std::uint64_t win, int target, int origin) {
  if (!enabled()) return;
  auto wit = wins_.find(win);
  if (wit == wins_.end()) return;
  auto tit = wit->second.targets.find(target);
  if (tit == wit->second.targets.end()) return;
  auto eit = tit->second.open.find(origin);
  if (eit != tit->second.open.end()) eit->second.mpi3 = true;
}

void RmaChecker::epoch_closing(std::uint64_t win, int target, int origin) {
  if (!enabled()) return;
  auto wit = wins_.find(win);
  if (wit == wins_.end()) return;
  auto tit = wit->second.targets.find(target);
  if (tit == wit->second.targets.end()) return;
  auto eit = tit->second.open.find(origin);
  if (eit == tit->second.open.end()) return;

  TargetRec& tr = tit->second;
  auto node = tr.open.extract(eit);
  EpochRec& ep = node.mapped();

  // Hand this epoch's access summary to every epoch still open on the
  // target: those epochs were concurrent with it, and MPI-2 makes the
  // conflicting pair erroneous no matter which side's accesses landed
  // first. Epochs opened later never see this ghost, which is what keeps
  // properly serialized (lock-ordered) reuse of the same bytes legal. A
  // held op nobody else can see is dropped unrecorded.
  if (!ep.mpi3 && (ep.held || !ep.sets.empty())) {
    std::shared_ptr<Ghost> g;
    for (auto& [orank, oe] : tr.open) {
      if (oe.mpi3) continue;
      if (g == nullptr) {
        build_held(ep);
        g = std::make_shared<Ghost>();
        g->epoch_id = ep.id;
        g->origin = ep.origin;
        g->exclusive = ep.exclusive;
        g->scope = ep.scope;
        g->sets = std::move(ep.sets);
      }
      oe.ghosts.push_back(g);
    }
  }
  report(ep.pending);
  tr.spare.push_back(std::move(node));
}

void RmaChecker::epoch_flushed(std::uint64_t win, int target, int origin) {
  if (!enabled()) return;
  auto wit = wins_.find(win);
  if (wit == wins_.end()) return;
  auto tit = wit->second.targets.find(target);
  if (tit == wit->second.targets.end()) return;
  auto eit = tit->second.open.find(origin);
  if (eit == tit->second.open.end()) return;
  // A flush remotely completes everything outstanding: operations on the
  // two sides of it are ordered, so they no longer form a conflicting pair.
  // The epoch's tracking unit restarts empty (ghosts included -- the closed
  // epochs they summarize are now also ordered before the later accesses).
  EpochRec& ep = eit->second;
  ep.held = false;
  ep.sets.clear();
  ep.ghosts.clear();
  report(ep.pending);
}

void RmaChecker::epoch_abandoned(std::uint64_t win, int target, int origin) {
  if (!enabled()) return;
  auto wit = wins_.find(win);
  if (wit == wins_.end()) return;
  auto tit = wit->second.targets.find(target);
  if (tit == wit->second.targets.end()) return;
  tit->second.open.erase(origin);
}

void RmaChecker::window_freed(std::uint64_t win) { wins_.erase(win); }

RmaViolation RmaChecker::classify(OpKind kind, const AccessHit& hit,
                                  bool same_origin, bool local) {
  if (local) return RmaViolation::local;
  if (hit.kind == AccessHit::Kind::acc || acc_class(kind))
    return RmaViolation::acc_mix;
  return same_origin ? RmaViolation::same_origin : RmaViolation::concurrent;
}

std::string RmaChecker::describe_hit(const AccessHit& hit) {
  using Kind = AccessHit::Kind;
  switch (hit.kind) {
    case Kind::read:
      return "a get of " + byte_range_incl(hit.lo, hit.hi);
    case Kind::write:
      return "a put to " + byte_range_incl(hit.lo, hit.hi);
    case Kind::acc:
      return std::string("an accumulate(") + op_name(hit.op) + ") on " +
             byte_range_incl(hit.lo, hit.hi);
    case Kind::none:
      break;
  }
  return "an access";
}

void RmaChecker::flag(std::vector<Violation>& pending, RmaViolation cls,
                      int world_rank, std::string msg) {
  if (world_rank >= 0 &&
      world_rank < static_cast<int>(per_rank_.size()))
    per_rank_[static_cast<std::size_t>(world_rank)]
        .v[static_cast<int>(cls)]
        .fetch_add(1, std::memory_order_relaxed);
  pending.push_back({cls, std::move(msg)});
}

void RmaChecker::report(std::vector<Violation>& pending) {
  if (pending.empty()) return;
  std::vector<Violation> v;
  v.swap(pending);
  if (mode_ == RmaCheck::warn) {
    for (const Violation& x : v)
      std::fprintf(stderr, "mpisim rma_check [%s]: %s\n",
                   rma_violation_name(x.cls), x.msg.c_str());
    return;
  }
  // race includes abort: the HB detector adds cross-epoch coverage on top
  // of the epoch-local rules, it never relaxes them.
  if (mode_ == RmaCheck::abort || mode_ == RmaCheck::race) {
    std::string msg = v.front().msg;
    if (v.size() > 1)
      msg += " (+" + std::to_string(v.size() - 1) + " more violations)";
    raise(Errc::rma_conflict, msg);
  }
}

void RmaChecker::record_op(std::uint64_t win, int target, int origin,
                           int world_origin, OpKind kind, Op op,
                           std::ptrdiff_t lo, std::ptrdiff_t hi,
                           const char* scope) {
  if (lo >= hi) return;
  const Segment seg{lo, static_cast<std::size_t>(hi - lo)};
  record_op(win, target, origin, world_origin, kind, op, 0, {&seg, 1}, scope);
}

void RmaChecker::record_op(std::uint64_t win, int target, int origin,
                           int world_origin, OpKind kind, Op op,
                           std::ptrdiff_t disp, std::span<const Segment> segs,
                           const char* scope) {
  if (!enabled()) return;
  auto wit = wins_.find(win);
  if (wit == wins_.end()) return;
  TargetRec& tr = wit->second.targets[target];
  auto eit = tr.open.find(origin);
  if (eit == tr.open.end()) return;  // win.cpp raises no_epoch before this
  EpochRec& ep = eit->second;

  if (may_hold(tr, ep, origin) && hold(ep, kind, op, disp, segs, scope))
    return;
  build_held(ep);

  const char* kind_str = kind == OpKind::put   ? "put"
                         : kind == OpKind::get ? "get"
                         : kind == OpKind::acc ? "accumulate"
                                               : "get_accumulate";
  // Direct accesses to the target's exposed memory. A get conflicts only
  // with a direct store; put/accumulate write the bytes, so a direct load
  // conflicts too (get_accumulate with no_op is a pure fetch).
  const bool writes_target =
      kind == OpKind::put || kind == OpKind::acc ||
      (kind == OpKind::get_acc && op != Op::no_op);
  ConflictTree& into = ep.sets.tree(kind, op);

  // Record-and-check one segment at a time, so an op whose segments overlap
  // each other conflicts with itself. Diagnostic text is only rendered on a
  // hit: a clean segment costs its tree queries and one insert.
  for (const Segment& seg : segs) {
    const std::ptrdiff_t lo = disp + seg.offset;
    const std::ptrdiff_t hi = lo + static_cast<std::ptrdiff_t>(seg.length);
    if (lo >= hi) continue;
    ep.scope = scope;
    const auto ulo = static_cast<std::uintptr_t>(lo);
    const auto uhi = static_cast<std::uintptr_t>(hi) - 1;
    const auto what = [&] {
      return std::string(kind_str) + " on " + byte_range(lo, hi) +
             " of rank " + std::to_string(target) + " (win " +
             std::to_string(win) + ", epoch #" + std::to_string(ep.id) +
             " by origin " + std::to_string(origin) + scope_suffix(scope) +
             ")";
    };

    AccessHit hit;
    // Epoch-vs-epoch rules apply to MPI-2 lock epochs only: under an MPI-3
    // lock_all epoch conflicting operations have undefined values but are
    // not erroneous. The op is still recorded below so a concurrent direct
    // shared-memory access (shm_begin) can be checked against it.
    if (!ep.mpi3) {
      if (ep.sets.conflict(kind, op, ulo, uhi, &hit))
        flag(ep.pending, classify(kind, hit, /*same_origin=*/true, false),
             world_origin,
             what() + " conflicts with " + describe_hit(hit) +
                 " recorded earlier in the same epoch");

      for (auto& [orank, oe] : tr.open) {
        if (orank == origin || oe.mpi3) continue;
        build_held(oe);
        if (oe.sets.conflict(kind, op, ulo, uhi, &hit))
          flag(ep.pending, classify(kind, hit, false, false), world_origin,
               what() + " conflicts with " + describe_hit(hit) +
                   " by concurrent epoch #" + std::to_string(oe.id) +
                   " of origin " + std::to_string(orank) +
                   scope_suffix(oe.scope));
      }

      for (const auto& g : ep.ghosts) {
        if (g->sets.conflict(kind, op, ulo, uhi, &hit))
          flag(ep.pending, classify(kind, hit, false, false), world_origin,
               what() + " conflicts with " + describe_hit(hit) +
                   " by closed concurrent epoch #" +
                   std::to_string(g->epoch_id) + " of origin " +
                   std::to_string(g->origin) + scope_suffix(g->scope));
      }
    }

    // An MPI-3 epoch only checks shared-memory records: plain local access
    // under the unified memory model is legal after a flush (the backend's
    // discipline), while a same-node direct access has no such ordering
    // against in-flight RMA from third ranks.
    for (auto& [lkey, lrec] : tr.locals) {
      if (lrec.covered) continue;
      if (ep.mpi3 && !lrec.shm) continue;
      if (lrec.shm && lrec.accessor == origin) continue;  // origin's own
      if (lrec.hi <= lo || hi <= lrec.lo) continue;
      if (!lrec.write && !writes_target) continue;
      // The shm accumulate path is element-atomic with RMA accumulates
      // (both apply under the runtime's accumulate atomicity), so only the
      // MPI acc-mixing rules make it a conflict.
      if (lrec.acc && !accesses_conflict(kind, op, OpKind::acc, lrec.op))
        continue;
      flag(ep.pending, RmaViolation::local, world_origin,
           what() + " conflicts with a direct " +
               (lrec.shm ? std::string("shared-memory ") +
                               (lrec.acc    ? "accumulate to "
                                : lrec.write ? "store to "
                                             : "load of ") +
                               byte_range(lrec.lo, lrec.hi) + " by rank " +
                               std::to_string(lrec.accessor)
                         : std::string("local ") +
                               (lrec.write ? "store to " : "load of ") +
                               byte_range(lrec.lo, lrec.hi)) +
               " on rank " + std::to_string(target) +
               scope_suffix(lrec.scope));
    }

    into.insert_merge(ulo, uhi);
  }
}

bool RmaChecker::may_hold(const TargetRec& tr, const EpochRec& ep,
                          int origin) {
  if (ep.held || !ep.sets.empty() || !ep.ghosts.empty() ||
      !tr.locals.empty())
    return false;
  for (const auto& [orank, oe] : tr.open)
    if (orank != origin && !oe.mpi3) return false;
  return true;
}

bool RmaChecker::hold(EpochRec& ep, OpKind kind, Op op, std::ptrdiff_t disp,
                      std::span<const Segment> segs, const char* scope) {
  auto& ranges = ep.held_ranges;
  ranges.clear();
  ranges.reserve(segs.size());
  for (const Segment& seg : segs) {
    const std::ptrdiff_t lo = disp + seg.offset;
    const std::ptrdiff_t hi = lo + static_cast<std::ptrdiff_t>(seg.length);
    if (lo >= hi) continue;
    const auto ulo = static_cast<std::uintptr_t>(lo);
    // Segments that overlap (or go back) could conflict with each other:
    // only the eager path checks that.
    if (!ranges.empty() && ulo <= ranges.back().second) return false;
    ranges.emplace_back(ulo, static_cast<std::uintptr_t>(hi) - 1);
  }
  if (ranges.empty()) return true;  // nothing to record
  ep.held = true;
  ep.held_kind = kind;
  ep.held_op = op;
  ep.scope = scope;
  return true;
}

void RmaChecker::build_held(EpochRec& ep) {
  if (!ep.held) return;
  ep.held = false;
  ConflictTree& into = ep.sets.tree(ep.held_kind, ep.held_op);
  for (const auto& [lo, hi] : ep.held_ranges) into.insert_merge(lo, hi);
}

void RmaChecker::local_begin(std::uint64_t win, int rank, int world_rank,
                             std::ptrdiff_t lo, std::ptrdiff_t hi, bool write,
                             bool covered, const char* scope) {
  if (!enabled() || lo >= hi) return;
  TargetRec& tr = wins_[win].targets[rank];
  LocalRec lrec;
  lrec.lo = lo;
  lrec.hi = hi;
  lrec.write = write;
  lrec.covered = covered;
  lrec.accessor = rank;
  lrec.scope = scope;

  if (!covered) {
    // An undisciplined direct access: check it against every access epoch
    // currently open on this rank's memory, exactly as if it were a
    // same-address RMA op (a local store behaves like a put, a local load
    // like a get).
    const auto ulo = static_cast<std::uintptr_t>(lo);
    const auto uhi = static_cast<std::uintptr_t>(hi) - 1;
    const OpKind as_kind = write ? OpKind::put : OpKind::get;
    const auto what = [&] {
      return std::string("direct local ") +
             (write ? "store to " : "load of ") + byte_range(lo, hi) +
             " on rank " + std::to_string(rank) + " (win " +
             std::to_string(win) + ", no exclusive self-epoch" +
             scope_suffix(scope) + ")";
    };
    AccessHit hit;
    for (auto& [orank, oe] : tr.open) {
      if (oe.mpi3) continue;
      build_held(oe);
      if (oe.sets.conflict(as_kind, Op::replace, ulo, uhi, &hit))
        flag(lrec.pending, RmaViolation::local, world_rank,
             what() + " conflicts with " + describe_hit(hit) +
                 " by open epoch #" + std::to_string(oe.id) + " of origin " +
                 std::to_string(orank) + scope_suffix(oe.scope));
      for (const auto& g : oe.ghosts) {
        if (g->sets.conflict(as_kind, Op::replace, ulo, uhi, &hit))
          flag(lrec.pending, RmaViolation::local, world_rank,
               what() + " conflicts with " + describe_hit(hit) +
                   " by closed concurrent epoch #" +
                   std::to_string(g->epoch_id) + " of origin " +
                   std::to_string(g->origin) + scope_suffix(g->scope));
      }
    }
  }
  tr.locals.insert_or_assign(LocalKey{rank, lo}, std::move(lrec));
}

void RmaChecker::local_end(std::uint64_t win, int rank, std::ptrdiff_t lo) {
  if (!enabled()) return;
  auto wit = wins_.find(win);
  if (wit == wins_.end()) return;
  auto tit = wit->second.targets.find(rank);
  if (tit == wit->second.targets.end()) return;
  auto lit = tit->second.locals.find(LocalKey{rank, lo});
  if (lit == tit->second.locals.end()) return;
  std::vector<Violation> pending = std::move(lit->second.pending);
  tit->second.locals.erase(lit);
  report(pending);
}

void RmaChecker::shm_begin(std::uint64_t win, int target, int origin,
                           int world_origin, OpKind kind, Op op,
                           std::ptrdiff_t lo, std::ptrdiff_t hi,
                           const char* scope) {
  if (!enabled() || lo >= hi) return;
  TargetRec& tr = wins_[win].targets[target];
  const bool write = kind != OpKind::get;
  LocalRec lrec;
  lrec.lo = lo;
  lrec.hi = hi;
  lrec.write = write;
  lrec.shm = true;
  lrec.acc = kind == OpKind::acc || kind == OpKind::get_acc;
  lrec.op = op;
  lrec.accessor = origin;
  lrec.scope = scope;

  // The fast path takes no epoch, so the access is never "covered": check
  // it against every epoch open on the target's memory as if it were a
  // same-address RMA op -- including MPI-3 lock_all epochs, whose recorded
  // in-flight operations a concurrent direct load/store genuinely races
  // (nothing orders the two until the next flush). The conflict query
  // applies the acc-mixing rules, so the CPU-atomic accumulate path
  // coexists with same-operator RMA accumulates.
  const auto ulo = static_cast<std::uintptr_t>(lo);
  const auto uhi = static_cast<std::uintptr_t>(hi) - 1;
  const auto what = [&] {
    return std::string("direct shared-memory ") +
           (lrec.acc ? "accumulate to " : write ? "store to " : "load of ") +
           byte_range(lo, hi) + " on rank " + std::to_string(target) +
           " (win " + std::to_string(win) + ", by rank " +
           std::to_string(origin) + ", no epoch" + scope_suffix(scope) + ")";
  };
  AccessHit hit;
  for (auto& [orank, oe] : tr.open) {
    if (oe.mpi3 && orank == origin) continue;  // own standing lock_all epoch
    build_held(oe);
    if (oe.sets.conflict(kind, op, ulo, uhi, &hit))
      flag(lrec.pending, RmaViolation::local, world_origin,
           what() + " conflicts with " + describe_hit(hit) +
               " by open epoch #" + std::to_string(oe.id) + " of origin " +
               std::to_string(orank) + scope_suffix(oe.scope));
    for (const auto& g : oe.ghosts) {
      if (g->sets.conflict(kind, op, ulo, uhi, &hit))
        flag(lrec.pending, RmaViolation::local, world_origin,
             what() + " conflicts with " + describe_hit(hit) +
                 " by closed concurrent epoch #" +
                 std::to_string(g->epoch_id) + " of origin " +
                 std::to_string(g->origin) + scope_suffix(g->scope));
    }
  }
  tr.locals.insert_or_assign(LocalKey{origin, lo}, std::move(lrec));
}

void RmaChecker::shm_end(std::uint64_t win, int target, int origin,
                         std::ptrdiff_t lo) {
  if (!enabled()) return;
  auto wit = wins_.find(win);
  if (wit == wins_.end()) return;
  auto tit = wit->second.targets.find(target);
  if (tit == wit->second.targets.end()) return;
  auto lit = tit->second.locals.find(LocalKey{origin, lo});
  if (lit == tit->second.locals.end()) return;
  std::vector<Violation> pending = std::move(lit->second.pending);
  tit->second.locals.erase(lit);
  report(pending);
}

bool RmaChecker::op_held(std::uint64_t win, int target, int origin) const {
  auto wit = wins_.find(win);
  if (wit == wins_.end()) return false;
  auto tit = wit->second.targets.find(target);
  if (tit == wit->second.targets.end()) return false;
  auto eit = tit->second.open.find(origin);
  return eit != tit->second.open.end() && eit->second.held;
}

void RmaChecker::note_discipline(int world_rank) noexcept {
  if (world_rank >= 0 && world_rank < static_cast<int>(per_rank_.size()))
    per_rank_[static_cast<std::size_t>(world_rank)]
        .v[static_cast<int>(RmaViolation::discipline)]
        .fetch_add(1, std::memory_order_relaxed);
}

RmaCheckCounts RmaChecker::counts(int world_rank) const noexcept {
  RmaCheckCounts c;
  if (world_rank < 0 || world_rank >= static_cast<int>(per_rank_.size()))
    return c;
  const PerRankCounts& p = per_rank_[static_cast<std::size_t>(world_rank)];
#define MPISIM_LOAD(name)                                   \
  c.name = p.v[static_cast<int>(RmaViolation::name)].load( \
      std::memory_order_relaxed);
  MPISIM_RMA_VIOLATIONS(MPISIM_LOAD)
#undef MPISIM_LOAD
  return c;
}

RmaCheckCounts RmaChecker::total_counts() const noexcept {
  RmaCheckCounts t;
  for (std::size_t r = 0; r < per_rank_.size(); ++r) {
    const RmaCheckCounts c = counts(static_cast<int>(r));
#define MPISIM_ADD(name) t.name += c.name;
    MPISIM_RMA_VIOLATIONS(MPISIM_ADD)
#undef MPISIM_ADD
  }
  return t;
}

}  // namespace mpisim
