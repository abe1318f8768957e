#ifndef SGTREE_STATIC_STATIC_AUDIT_H_
#define SGTREE_STATIC_STATIC_AUDIT_H_

#include "sgtree/invariant_auditor.h"
#include "static/static_tree_view.h"

namespace sgtree {

/// Audits a validated static SG-tree image against the same semantic
/// invariants AuditTree verifies on the dynamic tree — coverage (every
/// directory signature is exactly the OR of its child's entries), fill
/// bounds, leaf tid uniqueness, plus the static format's own hygiene rule
/// that no signature word carries bits beyond the declared width. Pure
/// structure (offsets, levels, reachability, bookkeeping counts) is already
/// enforced by StaticTreeView validation at open, so a view that exists has
/// passed it; opening with verify_checksums=false is how a deliberately
/// corrupted-but-structurally-sound image reaches this audit in tests and
/// `sgtree_cli check --verify-checksums 0`.
///
/// Violations reuse the AuditCheck/AuditReport vocabulary; `page` is the
/// node index within the image.
AuditReport AuditStaticImage(const StaticTreeView& view,
                             const AuditOptions& options = {});

}  // namespace sgtree

#endif  // SGTREE_STATIC_STATIC_AUDIT_H_
