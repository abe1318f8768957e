#ifndef SGTREE_STATIC_STATIC_AUDIT_H_
#define SGTREE_STATIC_STATIC_AUDIT_H_

#include "sgtree/invariant_auditor.h"
#include "static/static_tree_view.h"

namespace sgtree {

/// Audits a validated static SG-tree image with the same walk AuditTree
/// runs on the dynamic tree (sgtree/audit_core.h): coverage, levels, fill
/// bounds, leaf tid uniqueness, bits beyond the signature width, and the
/// header's size, height and node count. StaticTreeView validation at open
/// already enforces pure structure (offsets, levels, reachability), so
/// those checks cannot fire on an image; opening with
/// verify_checksums=false is how a deliberately corrupted but structurally
/// sound image reaches this audit in tests and
/// `sgtree_cli check --verify-checksums 0`.
///
/// `page` in a violation is the node index within the image.
AuditReport AuditStaticImage(const StaticTreeView& view,
                             const AuditOptions& options = {});

}  // namespace sgtree

#endif  // SGTREE_STATIC_STATIC_AUDIT_H_
