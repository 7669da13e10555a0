#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

/// \file spans.hpp
/// In-memory span recorder for the traced benchmark run.
///
/// The benchmark brackets each call it makes into a layer (mpisim, armci,
/// ga, am, nwproxy) with a span stamped in both clocks: host nanoseconds
/// (steady_clock) and the calling rank's virtual nanoseconds
/// (mpisim::clock().now_ns()). Spans nest per rank, so a layer's self time
/// is its spans' time minus the time their child spans cover. Each rank
/// appends only to its own vector; the log is read after mpisim::run
/// returns, so no locking is needed.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t { bench, mpisim, armci, ga, am, nwproxy };
inline constexpr int kLayerCount = 6;
const char* layer_name(Layer l) noexcept;

struct Span {
  const char* name = nullptr;  ///< string literal
  Layer layer = Layer::bench;
  int rank = 0;
  std::uint64_t op = 0;   ///< workload op id (0 outside the op loop)
  int parent = -1;        ///< index into the same rank's spans, -1 = root
  bool timed = false;     ///< inside the timed phase (bench.timed subtree)
  double host0 = 0, host1 = 0;  ///< host ns since the log was created
  double virt0 = 0, virt1 = 0;  ///< virtual ns of the rank's clock
};

class SpanLog {
 public:
  explicit SpanLog(int nranks);

  /// Open a span on the calling rank; returns its index.
  int open(const char* name, Layer layer, std::uint64_t op);
  /// Close span \p id, which must be the calling rank's innermost open span.
  void close(int id);

  /// Host and virtual durations (ns) of the timed-phase spans named \p name.
  std::vector<double> host_ns(const char* name) const;
  std::vector<double> virt_ns(const char* name) const;

  /// Self time per layer over the timed phase, summed over ranks.
  struct SelfTime {
    std::array<double, kLayerCount> host_ns{};
    std::array<double, kLayerCount> virt_ns{};
  };
  SelfTime self_time() const;

  /// Write every span as one JSON object per line; false on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  double host_ns_now() const;
  double start_;
  std::vector<std::vector<Span>> spans_;
  std::vector<std::vector<int>> open_;
};

/// RAII span; a no-op when \p log is null (the untraced run).
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, Layer layer,
            std::uint64_t op = 0)
      : log_(log), id_(log ? log->open(name, layer, op) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_HPP
