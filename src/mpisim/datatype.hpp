#ifndef MPISIM_DATATYPE_HPP
#define MPISIM_DATATYPE_HPP

/// \file datatype.hpp
/// MPI-style derived datatypes.
///
/// ARMCI-MPI's "direct" transfer methods hand noncontiguous layouts to MPI as
/// a single RMA operation carrying an indexed or subarray derived datatype;
/// the MPI library then chooses how to move the data (pack/unpack, batched,
/// or hardware scatter/gather). This module provides exactly the datatype
/// machinery those methods need: basic types, contiguous, (h)vector,
/// (h)indexed, and C-order subarray constructors, with size/extent queries,
/// contiguous-segment iteration, and pack/unpack.
///
/// Datatypes are immutable value handles (shared immutable tree underneath);
/// copying is cheap and thread-safe.

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "src/mpisim/op.hpp"

namespace mpisim {

namespace detail {
struct TypeImpl;
}

/// One contiguous piece of a flattened datatype.
struct Segment {
  std::ptrdiff_t offset;  ///< byte offset from the base address
  std::size_t length;     ///< bytes
};

/// Immutable handle to a (possibly derived) datatype.
class Datatype {
 public:
  /// The predefined basic type \p t: one shared handle per BasicType, so
  /// asking for it allocates nothing.
  static const Datatype& basic(BasicType t);

  /// \p count consecutive copies of \p old.
  static Datatype contiguous(std::size_t count, const Datatype& old);

  /// \p count blocks of \p blocklen elements, regular stride measured in
  /// elements of \p old (MPI_Type_vector).
  static Datatype vector(std::size_t count, std::size_t blocklen,
                         std::ptrdiff_t stride_elems, const Datatype& old);

  /// Like vector() but the stride is given in bytes (MPI_Type_create_hvector).
  static Datatype hvector(std::size_t count, std::size_t blocklen,
                          std::ptrdiff_t stride_bytes, const Datatype& old);

  /// Blocks of varying length at varying displacements, both measured in
  /// elements of \p old (MPI_Type_indexed).
  static Datatype indexed(std::span<const std::size_t> blocklens,
                          std::span<const std::ptrdiff_t> displs_elems,
                          const Datatype& old);

  /// Like indexed() but displacements are in bytes (MPI_Type_create_hindexed).
  static Datatype hindexed(std::span<const std::size_t> blocklens,
                           std::span<const std::ptrdiff_t> displs_bytes,
                           const Datatype& old);

  /// An n-dimensional subarray of an n-dimensional C-order array
  /// (MPI_Type_create_subarray with MPI_ORDER_C). \p sizes are the full
  /// array dimensions, \p subsizes the patch dimensions, \p starts the
  /// patch origin, all in elements of \p old; dimension 0 is outermost.
  static Datatype subarray(std::span<const std::size_t> sizes,
                           std::span<const std::size_t> subsizes,
                           std::span<const std::size_t> starts,
                           const Datatype& old);

  /// Payload bytes carried by one instance of this type.
  std::size_t size() const noexcept;

  /// Bytes spanned in memory by one instance (lower bound is always 0 here).
  std::ptrdiff_t extent() const noexcept;

  /// Underlying element type (uniform across the whole tree).
  BasicType element_type() const noexcept;

  /// True if one instance occupies size() contiguous bytes at offset 0.
  bool contiguous_layout() const noexcept;

  /// Number of contiguous segments in one instance. Exact when every child
  /// in the tree is contiguous (touching blocks of an (h)indexed type count
  /// as one); otherwise an upper bound on flatten(1).size(), since runs that
  /// meet across instances of a noncontiguous child are not subtracted.
  std::size_t segment_count() const noexcept;

  /// Invoke \p f(Segment) once per maximal contiguous run of \p count
  /// instances laid out back-to-back (instance i starts at byte offset
  /// i * extent()), in layout order. A run ends where the next one does not
  /// start at its end byte, so the calls are exactly flatten(count)'s
  /// segments. A contiguous_layout() type makes one call, {0, count *
  /// size()}; a noncontiguous one visits each contiguous child block as one
  /// run, never element by element. \p f is called through a plain function
  /// pointer, with no allocation.
  template <class F>
  void for_each_segment(std::size_t count, F&& f) const {
    using Fn = std::remove_reference_t<F>;
    walk_runs(count, RunVisitor{
                         const_cast<void*>(static_cast<const void*>(&f)),
                         [](void* ctx, Segment s) {
                           (*static_cast<Fn*>(ctx))(s);
                         }});
  }

  /// Flatten \p count instances into an explicit segment list: exactly
  /// for_each_segment()'s runs, in layout order.
  std::vector<Segment> flatten(std::size_t count) const;

  /// flatten() into \p out, replacing its contents and reusing its
  /// capacity: a warm buffer flattens without allocating (Win::rma_op
  /// keeps one per rank and side).
  void flatten(std::size_t count, std::vector<Segment>& out) const;

  /// Gather \p count instances from \p base into the contiguous buffer
  /// \p out (which must hold count * size() bytes).
  void pack(const void* base, std::size_t count, void* out) const;

  /// Scatter the contiguous buffer \p in (count * size() bytes) into
  /// \p count instances at \p base.
  void unpack(const void* in, void* base, std::size_t count) const;

 private:
  /// Non-owning reference to a for_each_segment callable.
  struct RunVisitor {
    void* ctx;
    void (*call)(void*, Segment);
  };
  void walk_runs(std::size_t count, RunVisitor v) const;

  explicit Datatype(std::shared_ptr<const detail::TypeImpl> impl);
  std::shared_ptr<const detail::TypeImpl> impl_;
};

/// Convenience handles for the common predefined types (Datatype::basic).
const Datatype& byte_type();
const Datatype& int32_type();
const Datatype& int64_type();
const Datatype& double_type();

}  // namespace mpisim

#endif  // MPISIM_DATATYPE_HPP
