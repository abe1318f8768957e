#ifndef SGTREE_STATIC_STATIC_TREE_BACKEND_H_
#define SGTREE_STATIC_STATIC_TREE_BACKEND_H_

#include "exec/index_backend.h"

namespace sgtree {

/// A loaded image is an SgTree (ThawStatic, static_tree_builder.h), so it is
/// served by the one tree backend. The name stays for existing callers.
using StaticTreeBackend = SgTreeBackend;

}  // namespace sgtree

#endif  // SGTREE_STATIC_STATIC_TREE_BACKEND_H_
