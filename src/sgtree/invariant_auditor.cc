#include "sgtree/invariant_auditor.h"

#include <sstream>

#include "sgtree/audit_core.h"

namespace sgtree {

std::string_view AuditCheckName(AuditCheck check) {
  switch (check) {
    case AuditCheck::kStructure:
      return "structure";
    case AuditCheck::kCoverage:
      return "coverage";
    case AuditCheck::kLevel:
      return "level";
    case AuditCheck::kFill:
      return "fill";
    case AuditCheck::kSignatureWidth:
      return "signature-width";
    case AuditCheck::kDuplicateTid:
      return "duplicate-tid";
    case AuditCheck::kUnreachablePage:
      return "unreachable-page";
    case AuditCheck::kDanglingRef:
      return "dangling-ref";
  }
  return "unknown";
}

std::string AuditViolation::ToString() const {
  std::ostringstream out;
  out << AuditCheckName(check);
  if (page != kInvalidPageId) out << " @page " << page;
  out << ": " << detail;
  return out.str();
}

bool AuditReport::Has(AuditCheck check) const {
  for (const AuditViolation& v : violations) {
    if (v.check == check) return true;
  }
  return false;
}

std::string AuditReport::FirstMessage() const {
  return violations.empty() ? std::string() : violations.front().ToString();
}

std::string AuditReport::Summary() const {
  std::ostringstream out;
  if (ok()) {
    out << "all invariants hold\n";
  } else {
    out << total_violations << " violation(s)";
    if (total_violations > violations.size()) {
      out << " (showing first " << violations.size() << ")";
    }
    out << "\n";
    for (const AuditViolation& v : violations) {
      out << "  " << v.ToString() << "\n";
    }
  }
  out << "  height " << stats.height << ", " << stats.node_count
      << " nodes, " << stats.leaf_entries << " leaf entries, utilization "
      << stats.avg_utilization << " (min fill " << stats.min_fill << ")\n";
  return out.str();
}

AuditReport AuditTree(const SgTree& tree, const AuditOptions& options) {
  return AuditTreeOf(tree, options);
}

}  // namespace sgtree
