#ifndef GA_LAYOUT_HPP
#define GA_LAYOUT_HPP

/// \file layout.hpp
/// Local-block memory layout helpers shared by the GA implementation
/// files: every process stores its block in C row-major order.

#include <cstdint>
#include <span>
#include <vector>

#include "src/ga/distribution.hpp"

namespace ga::detail {

/// Byte strides (row-major) of \p nd dimensions whose extents are
/// \p extent(d), written into \p out (its capacity is reused).
template <class Extent>
void row_major_strides(std::size_t nd, Extent&& extent, std::size_t esz,
                       std::vector<std::size_t>& out) {
  out.resize(nd);
  std::size_t acc = esz;
  for (std::size_t d = nd; d-- > 0;) {
    out[d] = acc;
    acc *= static_cast<std::size_t>(extent(d));
  }
}

/// Byte offset of global element \p idx within the owner block \p block.
inline std::size_t element_offset(const Patch& block,
                                  std::span<const std::int64_t> idx,
                                  std::size_t esz) {
  std::size_t off = 0;
  std::size_t stride = esz;
  for (std::size_t d = idx.size(); d-- > 0;) {
    off += static_cast<std::size_t>(idx[d] - block.lo[d]) * stride;
    stride *= static_cast<std::size_t>(block.extent(d));
  }
  return off;
}

}  // namespace ga::detail

#endif  // GA_LAYOUT_HPP
