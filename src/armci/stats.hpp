#ifndef ARMCI_STATS_HPP
#define ARMCI_STATS_HPP

/// \file stats.hpp
/// Per-process operation statistics (the analogue of ARMCI's profiling
/// interface). Counters are incremented at the public API layer, so they
/// are backend-independent: one put() is one put regardless of how the
/// backend maps it onto epochs or datatypes. Useful for performance
/// debugging ("how many strided operations did this GA_Put decompose
/// into?") and exercised by the test suite to pin down the decomposition
/// behaviour of the layers above.

#include <cstdint>

namespace armci {

/// The exported counters of Stats, in armci-metrics-v1 order. Each entry
/// X(object, field) declares `std::uint64_t field` in Stats and makes
/// metrics_json() write it as key "field" of JSON object "object", so adding
/// a counter means adding one entry here.
#define ARMCI_STATS_COUNTERS(X)                                               \
  /* Contiguous one-sided operations and payload bytes. */                    \
  X(counters, puts) X(counters, gets) X(counters, accs)                       \
  X(counters, put_bytes) X(counters, get_bytes) X(counters, acc_bytes)        \
  /* Noncontiguous operations (one per ARMCI_PutS/GetS/AccS or                \
     ARMCI_PutV/GetV/AccV call) and their payload bytes. */                   \
  X(counters, strided_ops) X(counters, strided_bytes) X(counters, iov_ops)    \
  X(counters, iov_bytes) X(counters, iov_segments)                            \
  /* Synchronization and atomics. */                                          \
  X(counters, rmws) X(counters, mutex_locks) X(counters, fences)              \
  X(counters, barriers)                                                       \
  /* Memory management. */                                                    \
  X(counters, allocations) X(counters, frees)                                 \
  /* Direct local access epochs (ARMCI_Access_begin/end pairs,                \
     paper §V-E). */                                                          \
  X(counters, dla_epochs)                                                     \
  /* Staging copies of local buffers that themselves live in global space     \
     (paper §V-E1): each one is an extra exclusive self-epoch plus a          \
     memcpy, so this counter exposes a hidden cost of the MPI mapping. */     \
  X(counters, staged_local_copies)                                            \
  /* Fault handling (mpisim::FaultPlan injection): transient faults hit,      \
     epochs retried after one, and operations that exhausted their retry      \
     budget and surfaced the error. */                                        \
  X(counters, transient_faults) X(counters, retries)                          \
  X(counters, retry_exhausted)                                                \
  /* RMA validity violations attributed to this process since the last        \
     reset_stats() (mpisim checker, Config::rma_check): conflicting access    \
     pairs, undisciplined direct local accesses, and lock-state misuse.       \
     Zero on every correct run; synced from the checker's counters by         \
     stats(). */                                                              \
  X(counters, rma_conflicts)                                                  \
  /* Happens-before races attributed to this process since the last           \
     reset_stats() (mpisim::HbChecker, MPISIM_RMA_CHECK=race): conflicting    \
     access pairs unordered by any synchronization edge. Zero on every        \
     correctly synchronized run; synced from the detector by stats(). */      \
  X(counters, rma_races)                                                      \
  /* Nonblocking aggregation engine (nb.hpp): nb_* API calls, how many were   \
     deferred into a queue vs executed eagerly, queue drains forced by a      \
     conflicting enqueue (location consistency), total queue drains, and      \
     drains that coalesced >= 2 ops into one backend epoch. */                \
  X(counters, nb_ops) X(counters, nb_deferred) X(counters, nb_eager)          \
  X(counters, nb_conflict_flushes) X(counters, flushed_queues)                \
  X(counters, coalesced_epochs)                                               \
  /* Derived-datatype cache (dtype_cache.hpp) in the direct strided/IOV       \
     paths: lookups served from the cache vs types built fresh. */            \
  X(counters, dt_cache_hits) X(counters, dt_cache_misses)                     \
  /* GA-layer owner pipelining (ga/ga.cpp, ga/ga_gather.cpp): region or       \
     element accesses that decomposed into >= 2 owners, the total owner       \
     fan-out summed over those accesses (fanout / ops = mean owners per       \
     multi-owner access), and the per-owner batches such accesses issued      \
     through the nonblocking aggregation engine rather than as blocking       \
     per-owner epochs. */                                                     \
  X(counters, ga_multi_owner_ops) X(counters, ga_owner_fanout)                \
  X(counters, ga_nb_batches)                                                  \
  /* Locality of contiguous one-sided operations (blocking and deferred)      \
     under the NetworkModel's node map: target is the calling process         \
     itself, a co-located process (same node), or a remote node. self and     \
     same_node ops are eligible for the backend's shared-memory fast path. */ \
  X(counters, ops_self) X(counters, ops_same_node) X(counters, ops_remote)    \
  /* Survivable-mode recovery (mpisim::FaultPlan::survivable): GA reads       \
     transparently redirected to a buddy replica because the owner died,      \
     and write-through copies pushed to replica tiles of replicated           \
     arrays. */                                                               \
  X(counters, failovers) X(counters, replica_writes)                          \
  /* Active-message layer (src/am): requests sent (rpc + fire-and-forget      \
     delegates), inbound requests served by this process's progress           \
     persona, and termination-detection waits completed (am::quiesce). */     \
  X(am, am_sent) X(am, am_served) X(am, am_terminations)

/// Cumulative operation counters for the calling process.
struct Stats {
#define ARMCI_STATS_FIELD(object, field) std::uint64_t field = 0;
  ARMCI_STATS_COUNTERS(ARMCI_STATS_FIELD)
#undef ARMCI_STATS_FIELD

  // Cooperative progress engine (nb.hpp progress_tick, Options::progress):
  // persona ticks fired (from SimClock compute intervals and explicit
  // armci::progress() pokes) and queues retired from a tick rather than a
  // blocking completion point. Exported in the "progress" object.
  std::uint64_t progress_ticks = 0;
  std::uint64_t progress_retires = 0;

  // Compute/communication overlap measured by the virtual clock
  // (SimClock::advance_compute): virtual time spent communicating inside
  // progress ticks, and the share of it that fell under compute the
  // application had already paid for -- i.e. latency the engine hid.
  double overlap_comm_ns = 0.0;
  double overlap_hidden_ns = 0.0;

  /// Fraction of progress-engine communication time hidden under
  /// application compute (0 when the engine never ran). 1.0 = perfect
  /// overlap: every communication nanosecond was paid for by compute.
  double overlap_efficiency() const noexcept {
    return overlap_comm_ns > 0.0 ? overlap_hidden_ns / overlap_comm_ns : 0.0;
  }

  /// Total one-sided data volume (all op classes).
  std::uint64_t total_bytes() const noexcept {
    return put_bytes + get_bytes + acc_bytes + strided_bytes + iov_bytes;
  }
};

/// Counters of the calling process (valid between init() and finalize()).
const Stats& stats();

/// Zero the calling process's counters.
void reset_stats();

}  // namespace armci

#endif  // ARMCI_STATS_HPP
