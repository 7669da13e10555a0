#ifndef MPISIM_COUNTERS_HPP
#define MPISIM_COUNTERS_HPP

/// \file counters.hpp
/// Expanders for X-macro counter tables (MPISIM_RMA_VIOLATIONS, ...): each
/// table applies X to its counters' names, which are also the metrics keys.

#include <cstdint>

#define MPISIM_COUNTER_ENUM(name) name,
#define MPISIM_COUNTER_FIELD(name) std::uint64_t name = 0;
#define MPISIM_COUNTER_NAME(name) #name,
#define MPISIM_COUNTER_ONE(name) +1
#define MPISIM_COUNTER_SUM(name) +name

#endif  // MPISIM_COUNTERS_HPP
