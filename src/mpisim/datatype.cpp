#include "src/mpisim/datatype.hpp"

#include <cstring>
#include <numeric>

#include "src/mpisim/error.hpp"

namespace mpisim {

namespace detail {

/// Immutable node of a datatype tree. `extent` may exceed `size` when the
/// layout has holes; both describe exactly one instance of the type.
struct TypeImpl {
  enum class Kind { basic, hvector, hindexed } kind = Kind::basic;

  BasicType elem = BasicType::byte_;
  std::size_t size = 0;        // payload bytes per instance
  std::ptrdiff_t extent = 0;   // bytes spanned per instance
  std::size_t nsegments = 1;   // maximal contiguous segments per instance
  bool contig = true;

  std::shared_ptr<const TypeImpl> child;  // null for Kind::basic

  // hvector parameters
  std::size_t count = 0;
  std::size_t blocklen = 0;
  std::ptrdiff_t stride_bytes = 0;

  // hindexed parameters
  std::vector<std::size_t> blocklens;
  std::vector<std::ptrdiff_t> displs;
};

namespace {

/// Merges the runs of a walk before they reach the visitor: a run that
/// starts where the pending one ends extends it (a zero-length one too),
/// anything else flushes the pending run.
template <class Emit>
struct Coalescer {
  Emit emit;
  Segment pending{0, 0};
  bool have = false;

  void add(Segment s) {
    if (have && pending.offset + static_cast<std::ptrdiff_t>(pending.length) ==
                    s.offset) {
      pending.length += s.length;
      return;
    }
    if (have) emit(pending);
    pending = s;
    have = true;
  }
  void finish() {
    if (have) emit(pending);
  }
};

/// Hand every contiguous piece of one instance of \p t at \p base to
/// \p sink. A contiguous subtree is one piece, whatever its element count.
template <class Sink>
void walk(const TypeImpl& t, std::ptrdiff_t base, Sink& sink) {
  if (t.contig) {
    sink.add({base, t.size});
    return;
  }
  const TypeImpl& c = *t.child;
  const auto block = [&](std::ptrdiff_t at, std::size_t len) {
    if (c.contig) {
      sink.add({at, len * c.size});
      return;
    }
    for (std::size_t j = 0; j < len; ++j)
      walk(c, at + static_cast<std::ptrdiff_t>(j) * c.extent, sink);
  };
  if (t.kind == TypeImpl::Kind::hvector) {
    for (std::size_t i = 0; i < t.count; ++i)
      block(base + static_cast<std::ptrdiff_t>(i) * t.stride_bytes, t.blocklen);
  } else {
    for (std::size_t i = 0; i < t.blocklens.size(); ++i)
      block(base + t.displs[i], t.blocklens[i]);
  }
}

}  // namespace

}  // namespace detail

using detail::TypeImpl;

Datatype::Datatype(std::shared_ptr<const TypeImpl> impl) : impl_(std::move(impl)) {}

const Datatype& Datatype::basic(BasicType t) {
  static const auto table = [] {
    constexpr std::size_t kTypes =
        static_cast<std::size_t>(BasicType::float64) + 1;
    std::vector<Datatype> v;
    v.reserve(kTypes);
    for (std::size_t i = 0; i < kTypes; ++i) {
      auto impl = std::make_shared<TypeImpl>();
      impl->kind = TypeImpl::Kind::basic;
      impl->elem = static_cast<BasicType>(i);
      impl->size = basic_type_size(impl->elem);
      impl->extent = static_cast<std::ptrdiff_t>(impl->size);
      v.push_back(Datatype(std::move(impl)));
    }
    return v;
  }();
  return table[static_cast<std::size_t>(t)];
}

Datatype Datatype::contiguous(std::size_t count, const Datatype& old) {
  // A contiguous type is an hvector with stride == child extent.
  return hvector(count, 1, old.extent(), old);
}

Datatype Datatype::vector(std::size_t count, std::size_t blocklen,
                          std::ptrdiff_t stride_elems, const Datatype& old) {
  return hvector(count, blocklen, stride_elems * old.extent(), old);
}

Datatype Datatype::hvector(std::size_t count, std::size_t blocklen,
                           std::ptrdiff_t stride_bytes, const Datatype& old) {
  if (count == 0 || blocklen == 0)
    raise(Errc::invalid_argument, "hvector with zero count or blocklen");
  const TypeImpl& c = *old.impl_;
  auto impl = std::make_shared<TypeImpl>();
  impl->kind = TypeImpl::Kind::hvector;
  impl->elem = c.elem;
  impl->child = old.impl_;
  impl->count = count;
  impl->blocklen = blocklen;
  impl->stride_bytes = stride_bytes;
  impl->size = count * blocklen * c.size;

  const std::ptrdiff_t block_extent =
      static_cast<std::ptrdiff_t>(blocklen) * c.extent;
  impl->extent = static_cast<std::ptrdiff_t>(count - 1) * stride_bytes + block_extent;
  if (impl->extent < block_extent)  // negative stride: span measured from 0
    impl->extent = block_extent - static_cast<std::ptrdiff_t>(count - 1) * stride_bytes;

  const bool block_contig = c.contig;
  impl->contig = block_contig && (count == 1 || stride_bytes == block_extent);
  if (impl->contig) {
    impl->nsegments = 1;
  } else if (block_contig) {
    // Blocks separated by holes: one segment per block unless stride packs
    // them back-to-back (handled above).
    impl->nsegments = count;
  } else {
    impl->nsegments = count * blocklen * c.nsegments;
  }
  return Datatype(std::move(impl));
}

Datatype Datatype::indexed(std::span<const std::size_t> blocklens,
                           std::span<const std::ptrdiff_t> displs_elems,
                           const Datatype& old) {
  std::vector<std::ptrdiff_t> displs_bytes(displs_elems.size());
  for (std::size_t i = 0; i < displs_elems.size(); ++i)
    displs_bytes[i] = displs_elems[i] * old.extent();
  return hindexed(blocklens, displs_bytes, old);
}

Datatype Datatype::hindexed(std::span<const std::size_t> blocklens,
                            std::span<const std::ptrdiff_t> displs_bytes,
                            const Datatype& old) {
  if (blocklens.size() != displs_bytes.size())
    raise(Errc::invalid_argument, "hindexed blocklens/displs length mismatch");
  if (blocklens.empty())
    raise(Errc::invalid_argument, "hindexed with zero blocks");
  const TypeImpl& c = *old.impl_;
  auto impl = std::make_shared<TypeImpl>();
  impl->kind = TypeImpl::Kind::hindexed;
  impl->elem = c.elem;
  impl->child = old.impl_;
  impl->blocklens.assign(blocklens.begin(), blocklens.end());
  impl->displs.assign(displs_bytes.begin(), displs_bytes.end());

  std::size_t payload = 0;
  std::ptrdiff_t hi = 0;
  std::ptrdiff_t prev_end = 0;
  std::size_t nseg = 0;
  for (std::size_t i = 0; i < blocklens.size(); ++i) {
    payload += blocklens[i] * c.size;
    const std::ptrdiff_t end =
        displs_bytes[i] + static_cast<std::ptrdiff_t>(blocklens[i]) * c.extent;
    // A contiguous child's block that starts where the previous one ended
    // continues that block's segment (the walk merges it the same way).
    const bool touches = c.contig && i > 0 && displs_bytes[i] == prev_end;
    if (!touches) nseg += c.contig ? 1 : blocklens[i] * c.nsegments;
    hi = std::max(hi, end);
    prev_end = end;
  }
  impl->size = payload;
  impl->extent = hi;
  impl->nsegments = nseg;
  impl->contig = (nseg == 1 && displs_bytes[0] == 0 &&
                  static_cast<std::size_t>(impl->extent) == impl->size);
  return Datatype(std::move(impl));
}

Datatype Datatype::subarray(std::span<const std::size_t> sizes,
                            std::span<const std::size_t> subsizes,
                            std::span<const std::size_t> starts,
                            const Datatype& old) {
  const std::size_t nd = sizes.size();
  if (nd == 0 || subsizes.size() != nd || starts.size() != nd)
    raise(Errc::invalid_argument, "subarray dimension mismatch");
  for (std::size_t d = 0; d < nd; ++d) {
    if (subsizes[d] == 0 || starts[d] + subsizes[d] > sizes[d])
      raise(Errc::invalid_argument, "subarray patch out of bounds");
  }

  // Build innermost (fastest-varying, C order) dimension first, then wrap
  // with hvectors. The start offsets accumulate into one leading hole,
  // expressed as a single-block hindexed at the end.
  Datatype t = Datatype::contiguous(subsizes[nd - 1], old);
  std::ptrdiff_t row_bytes = old.extent();  // bytes per element of dim d+1 row
  for (std::size_t d = nd - 1; d-- > 0;) {
    // Stride between consecutive index values of dimension d, in bytes:
    // product of sizes of all faster dimensions times the element extent.
    std::ptrdiff_t stride = old.extent();
    for (std::size_t k = d + 1; k < nd; ++k)
      stride *= static_cast<std::ptrdiff_t>(sizes[k]);
    t = Datatype::hvector(subsizes[d], 1, stride, t);
  }
  // Leading displacement of the patch origin.
  std::ptrdiff_t disp = 0;
  for (std::size_t d = 0; d < nd; ++d) {
    std::ptrdiff_t stride = old.extent();
    for (std::size_t k = d + 1; k < nd; ++k)
      stride *= static_cast<std::ptrdiff_t>(sizes[k]);
    disp += static_cast<std::ptrdiff_t>(starts[d]) * stride;
  }
  (void)row_bytes;
  if (disp == 0) return t;
  const std::size_t one = 1;
  return Datatype::hindexed(std::span<const std::size_t>(&one, 1),
                            std::span<const std::ptrdiff_t>(&disp, 1), t);
}

std::size_t Datatype::size() const noexcept { return impl_->size; }
std::ptrdiff_t Datatype::extent() const noexcept { return impl_->extent; }
BasicType Datatype::element_type() const noexcept { return impl_->elem; }
bool Datatype::contiguous_layout() const noexcept { return impl_->contig; }
std::size_t Datatype::segment_count() const noexcept { return impl_->nsegments; }

void Datatype::walk_runs(std::size_t count, RunVisitor v) const {
  const auto emit = [v](Segment s) { v.call(v.ctx, s); };
  const TypeImpl& t = *impl_;
  if (t.contig) {
    if (count > 0) emit({0, count * t.size});
    return;
  }
  detail::Coalescer<decltype(emit)> runs{emit};
  for (std::size_t i = 0; i < count; ++i)
    detail::walk(t, static_cast<std::ptrdiff_t>(i) * t.extent, runs);
  runs.finish();
}

std::vector<Segment> Datatype::flatten(std::size_t count) const {
  std::vector<Segment> out;
  flatten(count, out);
  return out;
}

void Datatype::flatten(std::size_t count, std::vector<Segment>& out) const {
  out.clear();
  for_each_segment(count, [&out](Segment s) { out.push_back(s); });
}

void Datatype::pack(const void* base, std::size_t count, void* out) const {
  const auto* src = static_cast<const std::uint8_t*>(base);
  auto* dst = static_cast<std::uint8_t*>(out);
  std::size_t pos = 0;
  for_each_segment(count, [&](Segment s) {
    std::memcpy(dst + pos, src + s.offset, s.length);
    pos += s.length;
  });
}

void Datatype::unpack(const void* in, void* base, std::size_t count) const {
  const auto* src = static_cast<const std::uint8_t*>(in);
  auto* dst = static_cast<std::uint8_t*>(base);
  std::size_t pos = 0;
  for_each_segment(count, [&](Segment s) {
    std::memcpy(dst + s.offset, src + pos, s.length);
    pos += s.length;
  });
}

const Datatype& byte_type() { return Datatype::basic(BasicType::byte_); }
const Datatype& int32_type() { return Datatype::basic(BasicType::int32); }
const Datatype& int64_type() { return Datatype::basic(BasicType::int64); }
const Datatype& double_type() { return Datatype::basic(BasicType::float64); }

}  // namespace mpisim
