#ifndef MPISIM_CHECKER_HPP
#define MPISIM_CHECKER_HPP

/// \file checker.hpp
/// RMA validity checker: a conflict/epoch race detector for mpisim windows.
///
/// The paper's central contribution is bridging ARMCI's conflict-tolerant,
/// location-consistent model onto MPI-2 RMA, where *concurrent conflicting
/// accesses are erroneous*. A backend bug that violates those access rules
/// (an overlapping put/put under a shared lock, a direct store to window
/// memory during another origin's exposure) produces wrong answers only for
/// schedules that happen to interleave badly -- it passes tests
/// nondeterministically. The checker turns every run into a semantics audit:
/// it records the byte interval of every put/get/accumulate/fetch-op and
/// every declared direct load/store (Win::local_access_begin/end), tagged
/// with <window, target, epoch, lock type, origin>, and detects the MPI-2
/// conflict rules:
///
///  - overlapping put/put and put/get from different origins inside
///    concurrent shared-lock epochs (including epochs that already closed:
///    a closing epoch hands its access summary to the epochs it was
///    concurrent with, so ordering within the overlap window cannot hide a
///    conflict);
///  - accumulate mixed with non-accumulate (or a different accumulate
///    operator) on overlapping bytes;
///  - same-origin overlapping conflicting operations within one epoch;
///  - direct local access to exposed window memory without the DLA
///    discipline (an exclusive self-epoch, as ARMCI_Access_begin takes);
///  - lock-discipline misuse (counted here; the window layer raises the
///    classified Errc).
///
/// Interval bookkeeping reuses the conflict tree of paper §VI-B
/// (conflict_tree.hpp; a blocked B+-tree where the paper has an AVL tree)
/// via its union-building insert_merge(). A clean access pays only for
/// that bookkeeping, and only once something can observe it: an epoch's
/// first op is held unrecorded (kind, operator, ranges) while no other
/// MPI-2 epoch, ghost or direct access could conflict with it, and its
/// trees are built only when a second op, another origin, a direct access
/// or a ghost handoff queries them -- so ARMCI's one-op exclusive epochs
/// record nothing. A recorded access costs its conflict queries and one
/// insert per segment, with no heap allocation once the epoch records are
/// warm; diagnostic text is rendered only for a hit.
///
/// Conflicts become structured diagnostics reported when the access epoch
/// completes -- at unlock / flush / local_access_end -- as MPI-2 prescribes
/// for erroneous-access detection. Config::rma_check picks what a report
/// does: abort (the default) raises Errc::rma_conflict, warn prints to
/// stderr and counts, off records nothing.
///
/// Epochs opened by lock_all() follow MPI-3 semantics (conflicting accesses
/// have undefined *values* but are not erroneous) and are not tracked.
///
/// Thread-safety: every method except counts()/total_counts()/
/// note_discipline() must be called with SimCore::mu() held (they mutate
/// shared per-window state). Counters are atomics so the metrics exporters
/// can read them from any rank thread without the lock.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/mpisim/conflict_tree.hpp"
#include "src/mpisim/counters.hpp"
#include "src/mpisim/datatype.hpp"
#include "src/mpisim/op.hpp"

namespace mpisim {

/// Checker reporting mode (Config::rma_check).
enum class RmaCheck {
  off,   ///< record nothing
  warn,  ///< print each violation to stderr at epoch completion and count it
  abort, ///< raise Errc::rma_conflict at epoch completion
  race   ///< abort, plus the vector-clock happens-before detector (hb.hpp)
         ///< raising Errc::rma_race on cross-epoch unordered conflicts
};

const char* rma_check_name(RmaCheck m) noexcept;

/// Parse an MPISIM_RMA_CHECK value. Returns false (and leaves \p out
/// untouched) for anything other than off|warn|abort|race, so callers can
/// reject typos loudly instead of silently running unchecked.
bool parse_rma_check(const char* text, RmaCheck* out) noexcept;

/// Violation classes (counter buckets; also named in diagnostics), in
/// armci-metrics-v1 order. Each X(name) makes RmaViolation::name, its
/// rma_violation_name() text and the RmaCheckCounts::name field.
#define MPISIM_RMA_VIOLATIONS(X)                                              \
  X(same_origin) /* overlapping conflicting ops by one origin in one epoch */ \
  X(concurrent)  /* put/put or put/get overlap across concurrent epochs */    \
  X(acc_mix)     /* accumulate vs non-accumulate or different-op accumulate */ \
  X(local)       /* direct local access conflicting with an RMA access */     \
  X(discipline)  /* lock-state misuse (unlock mismatch, double lock, ...) */

enum class RmaViolation { MPISIM_RMA_VIOLATIONS(MPISIM_COUNTER_ENUM) };

inline constexpr int kRmaViolationCount =
    0 MPISIM_RMA_VIOLATIONS(MPISIM_COUNTER_ONE);

const char* rma_violation_name(RmaViolation v) noexcept;

/// Snapshot of violation counters (per rank or totalled).
struct RmaCheckCounts {
  MPISIM_RMA_VIOLATIONS(MPISIM_COUNTER_FIELD)

  std::uint64_t total() const noexcept {
    return 0 MPISIM_RMA_VIOLATIONS(MPISIM_COUNTER_SUM);
  }
};

/// Kind of a recorded access. get_acc is accumulate-class but follows
/// MPI's same_op_no_op mixing rule.
enum class AccessKind { put, get, acc, get_acc };

constexpr bool acc_class(AccessKind k) noexcept {
  return k == AccessKind::acc || k == AccessKind::get_acc;
}

/// The MPI-2 conflict rule for two overlapping accesses, stated once for
/// both checkers: only get/get and same-operator accumulate/accumulate
/// overlap is blessed, and no_op (get_accumulate's pure fetch) mixes with
/// any accumulate operator.
constexpr bool accesses_conflict(AccessKind a, Op aop, AccessKind b,
                                 Op bop) noexcept {
  if (acc_class(a) && acc_class(b))
    return aop != bop && aop != Op::no_op && bop != Op::no_op;
  return a != AccessKind::get || b != AccessKind::get;
}

/// What an AccessSet conflict query matched: which tree, and for
/// accumulates which operator.
struct AccessHit {
  enum class Kind { none, read, write, acc } kind = Kind::none;
  Op op = Op::sum;
  std::uintptr_t lo = 0;  ///< the previously recorded interval (inclusive)
  std::uintptr_t hi = 0;
};

/// Recorded byte coverage of one epoch (RmaChecker) or one published
/// summary (HbChecker), in one conflict tree per class the MPI rule tells
/// apart. Each checker inserts with its own primitive -- RmaChecker
/// insert_merge (diagnostics print the recorded interval), HbChecker
/// insert_coalesce (its memory bound counts intervals) -- into the tree
/// this type picks.
struct AccessSet {
  ConflictTree reads;
  ConflictTree writes;
  std::map<Op, ConflictTree> accs;

  /// The tree an access of \p kind with operator \p op is recorded in.
  ConflictTree& tree(AccessKind kind, Op op) {
    return kind == AccessKind::get   ? reads
           : kind == AccessKind::put ? writes
                                     : accs[op];
  }

  /// Does the inclusive range [lo, hi] of a \p kind / \p op access
  /// conflict with a recorded access? Reads, writes, then accumulates by
  /// operator are queried; the first match lands in \p hit.
  bool conflict(AccessKind kind, Op op, std::uintptr_t lo, std::uintptr_t hi,
                AccessHit* hit) const;

  std::size_t size() const noexcept;
  bool empty() const noexcept { return size() == 0; }
  void clear() noexcept;
};

/// The detector. One instance per SimCore; all window state flows through
/// it when enabled().
class RmaChecker {
 public:
  RmaChecker(RmaCheck mode, int nranks);

  RmaChecker(const RmaChecker&) = delete;
  RmaChecker& operator=(const RmaChecker&) = delete;

  bool enabled() const noexcept { return mode_ != RmaCheck::off; }
  RmaCheck mode() const noexcept { return mode_; }

  /// Operation kinds recorded by the window layer.
  using OpKind = AccessKind;

  // ---- epoch lifecycle (caller holds SimCore::mu()) ----

  /// A lock was granted: open epoch <win, target, origin>.
  void epoch_opened(std::uint64_t win, int target, int origin,
                    bool exclusive);

  /// Mark an epoch as opened by lock_all (MPI-3 semantics: untracked).
  void epoch_set_mpi3(std::uint64_t win, int target, int origin);

  /// The epoch is closing (unlock/unlock_all): report its pending
  /// violations (raising Errc::rma_conflict in abort mode), hand its access
  /// summary to the still-open epochs it was concurrent with, and drop it.
  void epoch_closing(std::uint64_t win, int target, int origin);

  /// flush/flush_all: report pending violations and reset the epoch's
  /// tracking unit (operations separated by a flush no longer conflict).
  void epoch_flushed(std::uint64_t win, int target, int origin);

  /// The epoch's origin died before completing it (survivable mode): drop
  /// the epoch silently -- no violation report, no ghost handoff. The dead
  /// rank's in-flight accesses never completed, and survivors must not be
  /// charged with conflicts against an origin that no longer exists.
  void epoch_abandoned(std::uint64_t win, int target, int origin);

  /// Window destroyed: drop all its state.
  void window_freed(std::uint64_t win);

  // ---- access recording (caller holds SimCore::mu()) ----

  /// Record one target-side byte interval [lo, hi) of an RMA operation and
  /// check it against the origin's own epoch, concurrent epochs, closed
  /// concurrent epochs' summaries, and open local accesses. \p origin is
  /// the window-communicator rank, \p world_origin the world rank (counter
  /// attribution), \p scope the origin's innermost open trace scope (may be
  /// null when tracing is off).
  void record_op(std::uint64_t win, int target, int origin, int world_origin,
                 OpKind kind, Op op, std::ptrdiff_t lo, std::ptrdiff_t hi,
                 const char* scope);

  /// record_op() for every target segment of one operation: segment s
  /// covers [disp + s.offset, disp + s.offset + s.length). The epoch is
  /// looked up once; the segments are recorded and checked in order, so
  /// segments of one op that overlap each other conflict. Clean segments
  /// render no diagnostic text. The first op of an epoch that nothing
  /// else can observe is held instead of recorded (see may_hold()); every
  /// query of the epoch's trees records it first, so diagnostics, counters
  /// and raised errors are exactly those of recording it here.
  void record_op(std::uint64_t win, int target, int origin, int world_origin,
                 OpKind kind, Op op, std::ptrdiff_t disp,
                 std::span<const Segment> segs, const char* scope);

  /// A direct local load/store of [lo, hi) in \p rank's window slice was
  /// declared (Win::local_access_begin). \p covered means the caller holds
  /// an exclusive (or lock_all) self-epoch -- the DLA discipline -- making
  /// the access safe and unrecorded.
  void local_begin(std::uint64_t win, int rank, int world_rank,
                   std::ptrdiff_t lo, std::ptrdiff_t hi, bool write,
                   bool covered, const char* scope);

  /// End of the local access that began at \p lo: report its pending
  /// violations and drop the record.
  void local_end(std::uint64_t win, int rank, std::ptrdiff_t lo);

  /// A direct shared-memory access of [lo, hi) in \p target's slice of a
  /// shared window by co-located \p origin (Win::shm_access_begin and the
  /// shm_put/shm_get/shm_acc fast path). The fast path bypasses epochs
  /// entirely, so this is the only record of the access; it is checked
  /// against every epoch open on the target -- including MPI-3 lock_all
  /// epochs, whose in-flight operations a concurrent direct load/store
  /// genuinely races -- and in-flight RMA issued later is checked back
  /// against it (record_op). \p kind put/get/acc mirrors RMA recording:
  /// an OpKind::acc access is the CPU-atomic accumulate path, which is
  /// element-atomic with accumulates of the same \p op and so conflicts
  /// only under the acc-mixing rules.
  void shm_begin(std::uint64_t win, int target, int origin, int world_origin,
                 OpKind kind, Op op, std::ptrdiff_t lo, std::ptrdiff_t hi,
                 const char* scope);

  /// End of origin's shared-memory access that began at \p lo.
  void shm_end(std::uint64_t win, int target, int origin, std::ptrdiff_t lo);

  /// Lock-discipline misuse detected by the window layer (which raises the
  /// classified Errc itself); the checker only counts it. Lock-free.
  void note_discipline(int world_rank) noexcept;

  /// True while epoch <win, target, origin> holds its first op back
  /// unrecorded (see record_op). For tests of the deferred recording.
  bool op_held(std::uint64_t win, int target, int origin) const;

  // ---- counters (lock-free reads) ----

  RmaCheckCounts counts(int world_rank) const noexcept;
  RmaCheckCounts total_counts() const noexcept;

 private:
  /// Summary of a closed epoch, shared by every epoch it was concurrent
  /// with (conflicts across the overlap window are erroneous regardless of
  /// the order the accesses actually happened in).
  struct Ghost {
    std::uint64_t epoch_id = 0;
    int origin = -1;
    bool exclusive = false;
    const char* scope = nullptr;
    AccessSet sets;
  };

  struct Violation {
    RmaViolation cls = RmaViolation::concurrent;
    std::string msg;
  };

  struct EpochRec {
    std::uint64_t id = 0;
    int origin = -1;
    bool exclusive = false;
    bool mpi3 = false;
    const char* scope = nullptr;  ///< innermost trace scope of the last op
    AccessSet sets;
    std::vector<std::shared_ptr<const Ghost>> ghosts;
    std::vector<Violation> pending;
    /// The epoch's first op, held back unrecorded while no other access
    /// can observe it (see hold()): its kind, operator and inclusive target
    /// ranges, in ascending order. build_held() records it into sets.
    bool held = false;
    OpKind held_kind = OpKind::get;
    Op held_op = Op::replace;
    std::vector<std::pair<std::uintptr_t, std::uintptr_t>> held_ranges;
  };

  struct LocalRec {
    std::ptrdiff_t lo = 0;
    std::ptrdiff_t hi = 0;
    bool write = false;
    bool covered = false;
    bool shm = false;    ///< same-node direct access (not the owner's own)
    bool acc = false;    ///< shm accumulate (CPU-atomic): acc-mixing rules
    Op op = Op::sum;     ///< accumulate operator when acc
    int accessor = -1;   ///< rank doing the load/store (== target unless shm)
    const char* scope = nullptr;
    std::vector<Violation> pending;
  };

  /// Open direct accesses are keyed by (accessor rank, region offset):
  /// several co-located ranks may hold shm accesses to one target slice at
  /// once, and the owner's own local access must not collide with them.
  using LocalKey = std::pair<int, std::ptrdiff_t>;

  struct TargetRec {
    std::map<int, EpochRec> open;         ///< origin rank -> epoch
    std::map<LocalKey, LocalRec> locals;  ///< (accessor, offset) -> access
    /// Closed epochs' records, reused by epoch_opened() with their map
    /// nodes and buffers.
    std::vector<std::map<int, EpochRec>::node_type> spare;
  };

  struct WinRec {
    std::map<int, TargetRec> targets;
  };

  struct PerRankCounts {
    std::atomic<std::uint64_t> v[kRmaViolationCount] = {};
  };

  /// May \p ep's next op be held back? Only its first op since it opened
  /// or was flushed, with no ghosts, no other MPI-2 epoch open on the
  /// target and no direct access open there: then no other access can
  /// observe it, and recording it eagerly would flag nothing.
  static bool may_hold(const TargetRec& tr, const EpochRec& ep, int origin);

  /// Hold the op's target ranges in \p ep instead of recording them.
  /// Returns false (holding nothing) when the segments do not ascend
  /// without overlap: they might conflict with each other.
  static bool hold(EpochRec& ep, OpKind kind, Op op, std::ptrdiff_t disp,
                   std::span<const Segment> segs, const char* scope);

  /// Record \p ep's held op into its trees, exactly as the eager path
  /// would have. Every query of an epoch's sets calls this first.
  static void build_held(EpochRec& ep);

  static RmaViolation classify(OpKind kind, const AccessHit& hit,
                               bool same_origin, bool local);
  static std::string describe_hit(const AccessHit& hit);

  /// Count, then defer the message into \p pending.
  void flag(std::vector<Violation>& pending, RmaViolation cls, int world_rank,
            std::string msg);

  /// warn: print and clear; abort: print, clear and raise Errc::rma_conflict.
  void report(std::vector<Violation>& pending);

  RmaCheck mode_;
  std::uint64_t next_epoch_id_ = 1;
  std::map<std::uint64_t, WinRec> wins_;
  std::vector<PerRankCounts> per_rank_;
};

}  // namespace mpisim

#endif  // MPISIM_CHECKER_HPP
