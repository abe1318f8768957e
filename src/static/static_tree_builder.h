#ifndef SGTREE_STATIC_STATIC_TREE_BUILDER_H_
#define SGTREE_STATIC_STATIC_TREE_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "durability/durable_tree.h"
#include "sgtree/sg_tree.h"
#include "static/static_tree_view.h"

namespace sgtree {

// The static image is the one file format a tree is saved to and loaded
// from. BuildStaticTree saves; LoadTree opens the image with checksums on
// and thaws it into a mutable SgTree. They live here, not in src/sgtree,
// because the tree library must not depend on the image reader.

/// Serializes `tree` into a static SG-tree image (static_format.h) in
/// `*out`. Nodes are laid out in BFS order from the root, which makes the
/// output a pure function of the tree's logical content — byte-stable
/// across runs, hosts, and heap layouts (the golden-file tests depend on
/// this). Returns false with `*error` set (when non-null) on failure (node
/// capacity beyond the format's 16-bit entry count).
bool BuildStaticImage(const SgTree& tree, std::vector<uint8_t>* out,
                      std::string* error = nullptr);

/// BuildStaticImage + crash-atomic publication: the image is written to a
/// sibling temp file, fsynced, renamed over `path`, and the directory entry
/// fsynced (AtomicWriteFile), so a crash mid-save leaves the previous file
/// (or nothing), never a torn one.
bool BuildStaticTree(const SgTree& tree, const std::string& path,
                     std::string* error = nullptr);

/// Copies a validated image into a mutable tree. Node i becomes PageId i
/// (adopted in index order), so directory refs carry over unchanged and
/// BuildStaticImage of the result reproduces the image byte for byte. The
/// tree takes `view.options()`, notes the stored area window, and starts
/// with cold I/O counters.
std::unique_ptr<SgTree> ThawStatic(const StaticTreeView& view);

/// Opens the image at `path` with checksums on and thaws it. Returns
/// nullptr with `*error` (when non-null) set to "path: reason" for a
/// missing, truncated, corrupt or foreign file — an SGTREE01 snapshot is
/// refused with a reason that says to rebuild it. Query/buffer options
/// (metric, buffer pages, policies) come from `runtime_options`; a non-zero
/// num_bits must match the file, and the node capacity always comes from
/// it.
std::unique_ptr<SgTree> LoadTree(const std::string& path,
                                 const SgTreeOptions& runtime_options,
                                 std::string* error = nullptr);

/// Exports a live durable index as a static image at `path`, holding the
/// write path locked for the duration so the image is an
/// operation-consistent snapshot. Lives here (not in src/durability) so the
/// durability layer does not depend on the static format.
bool ExportStatic(const DurableTree& durable, const std::string& path,
                  std::string* error = nullptr);

}  // namespace sgtree

#endif  // SGTREE_STATIC_STATIC_TREE_BUILDER_H_
