#include "perfbench/src/spans.hpp"

#include <chrono>
#include <cstdio>
#include <string_view>

#include "src/mpisim/runtime.hpp"

namespace perfbench {

namespace {

double steady_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* layer_name(Layer l) noexcept {
  switch (l) {
    case Layer::bench: return "bench";
    case Layer::mpisim: return "mpisim";
    case Layer::armci: return "armci";
    case Layer::ga: return "ga";
    case Layer::am: return "am";
    case Layer::nwproxy: return "nwproxy";
  }
  return "?";
}

SpanLog::SpanLog(int nranks)
    : start_(steady_ns()),
      spans_(static_cast<std::size_t>(nranks)),
      open_(static_cast<std::size_t>(nranks)) {
  for (auto& v : spans_) v.reserve(1 << 14);
}

double SpanLog::host_ns_now() const { return steady_ns() - start_; }

int SpanLog::open(const char* name, Layer layer, std::uint64_t op) {
  const int r = mpisim::rank();
  auto& mine = spans_[static_cast<std::size_t>(r)];
  auto& stack = open_[static_cast<std::size_t>(r)];
  Span s;
  s.name = name;
  s.layer = layer;
  s.rank = r;
  s.op = op;
  s.parent = stack.empty() ? -1 : stack.back();
  s.timed = (s.parent >= 0 && mine[static_cast<std::size_t>(s.parent)].timed) ||
            std::string_view(name) == "bench.timed";
  s.virt0 = mpisim::clock().now_ns();
  s.host0 = host_ns_now();
  mine.push_back(s);
  const int id = static_cast<int>(mine.size()) - 1;
  stack.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  const int r = mpisim::rank();
  Span& s = spans_[static_cast<std::size_t>(r)][static_cast<std::size_t>(id)];
  s.host1 = host_ns_now();
  s.virt1 = mpisim::clock().now_ns();
  open_[static_cast<std::size_t>(r)].pop_back();
}

std::vector<double> SpanLog::host_ns(const char* name) const {
  std::vector<double> out;
  const std::string_view want(name);
  for (const auto& rank : spans_)
    for (const Span& s : rank)
      if (s.timed && want == s.name) out.push_back(s.host1 - s.host0);
  return out;
}

std::vector<double> SpanLog::virt_ns(const char* name) const {
  std::vector<double> out;
  const std::string_view want(name);
  for (const auto& rank : spans_)
    for (const Span& s : rank)
      if (s.timed && want == s.name) out.push_back(s.virt1 - s.virt0);
  return out;
}

SpanLog::SelfTime SpanLog::self_time() const {
  SelfTime out;
  for (const auto& rank : spans_) {
    std::vector<double> child_host(rank.size(), 0.0);
    std::vector<double> child_virt(rank.size(), 0.0);
    for (const Span& s : rank) {
      if (s.parent < 0) continue;
      child_host[static_cast<std::size_t>(s.parent)] += s.host1 - s.host0;
      child_virt[static_cast<std::size_t>(s.parent)] += s.virt1 - s.virt0;
    }
    for (std::size_t i = 0; i < rank.size(); ++i) {
      const Span& s = rank[i];
      if (!s.timed) continue;
      const auto l = static_cast<std::size_t>(s.layer);
      out.host_ns[l] += (s.host1 - s.host0) - child_host[i];
      out.virt_ns[l] += (s.virt1 - s.virt0) - child_virt[i];
    }
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& rank : spans_) {
    for (std::size_t i = 0; i < rank.size(); ++i) {
      const Span& s = rank[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"rank\":%d,\"name\":\"%s\",\"layer\":\"%s\","
                   "\"op\":%llu,\"parent\":%d,\"timed\":%s,"
                   "\"host_ns\":[%.0f,%.0f],\"virt_ns\":[%.3f,%.3f]}\n",
                   i, s.rank, s.name, layer_name(s.layer),
                   static_cast<unsigned long long>(s.op), s.parent,
                   s.timed ? "true" : "false", s.host0, s.host1, s.virt0,
                   s.virt1);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
