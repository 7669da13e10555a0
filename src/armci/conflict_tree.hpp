#ifndef ARMCI_CONFLICT_TREE_HPP
#define ARMCI_CONFLICT_TREE_HPP

/// \file conflict_tree.hpp
/// Forwarding alias for the conflict tree (paper §VI-B).
///
/// The tree itself now lives in src/mpisim/conflict_tree.hpp so the RMA
/// validity checker (mpisim/checker.hpp) can reuse it for epoch-interval
/// bookkeeping; the armci IOV auto-method keeps using it under its
/// historical name through this alias.

#include "src/mpisim/conflict_tree.hpp"

namespace armci {

using ConflictTree = mpisim::ConflictTree;

}  // namespace armci

#endif  // ARMCI_CONFLICT_TREE_HPP
