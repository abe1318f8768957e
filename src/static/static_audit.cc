#include "static/static_audit.h"

#include "sgtree/audit_core.h"

namespace sgtree {

AuditReport AuditStaticImage(const StaticTreeView& view,
                             const AuditOptions& options) {
  return AuditTreeOf(view, options);
}

}  // namespace sgtree
