#ifndef SGTREE_STATIC_STATIC_TREE_BUILDER_H_
#define SGTREE_STATIC_STATIC_TREE_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sgtree/sg_tree.h"
#include "static/static_tree_view.h"

namespace sgtree {

// The static image is the one file format a tree is saved to and loaded
// from. BuildStaticTree saves; LoadTree opens the image with checksums on
// and makes it an SgTree that reads its nodes in place. They live here,
// not in src/sgtree, because the tree library must not depend on the image
// reader.

/// Serializes `tree` into a static SG-tree image (static_format.h). Nodes
/// are laid out in BFS order from the root, which makes the output a pure
/// function of the tree's logical content — byte-stable across runs,
/// hosts, and heap layouts (the golden-file tests depend on this).
std::vector<uint8_t> BuildStaticImage(const SgTree& tree);

/// BuildStaticImage + crash-atomic publication through Env::Posix(): the
/// image is written to a sibling temp file, fsynced, renamed over `path`,
/// and the directory entry fsynced (AtomicWriteFile), so a crash mid-save
/// leaves the previous file (or nothing), never a torn one.
bool BuildStaticTree(const SgTree& tree, const std::string& path,
                     std::string* error = nullptr);

/// Makes a validated image a mutable tree without copying it: node i
/// becomes PageId i, its record read in place in the image until its first
/// edit (SgTree::AdoptNode), so directory refs carry over unchanged and
/// BuildStaticImage of the result reproduces the image byte for byte. The
/// tree holds `view`, and with it the mapping, until the tree is
/// destroyed; it takes `view->options()` and notes the stored area window.
std::unique_ptr<SgTree> ThawStatic(std::shared_ptr<const StaticTreeView> view);

/// Opens the image at `path` with checksums on and thaws it in place.
/// Returns nullptr with `*error` (when non-null) set to "path: reason" for
/// a missing, truncated, corrupt or foreign file — an SGTREE01 snapshot is
/// refused with a reason that says to rebuild it. Query/buffer options
/// (metric, buffer pages, policies) come from `runtime_options`; a non-zero
/// num_bits must match the file, and the node capacity always comes from
/// it.
std::unique_ptr<SgTree> LoadTree(const std::string& path,
                                 const SgTreeOptions& runtime_options,
                                 std::string* error = nullptr);

}  // namespace sgtree

#endif  // SGTREE_STATIC_STATIC_TREE_BUILDER_H_
