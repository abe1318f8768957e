// Fuzz harness for the static SG-tree image reader (static/).
//
// The static image is opened straight off disk and then read in place by
// the tree it loads as, so its open-time validation is the only line
// between a hostile file and an out-of-bounds read. It is also the only
// file a tree is loaded from. The harness feeds arbitrary bytes to
// OpenFromBytes in both checksum modes; every rejection must carry a
// reason, and every accepted image must load as a tree that survives all
// six query types and the audit — the structural walk (offsets, levels,
// acyclicity, reachability) is what makes that safe even when the body CRC
// was waived — and answers exactly like the same tree once every node has
// been copied out of the image, trace included.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/check.h"
#include "common/signature.h"
#include "exec/index_backend.h"
#include "exec/query_api.h"
#include "sgtree/invariant_auditor.h"
#include "static/static_tree_builder.h"
#include "static/static_tree_view.h"

namespace {

using sgtree::Execute;
using sgtree::QueryRequest;
using sgtree::QueryResult;
using sgtree::QueryType;
using sgtree::SgTreeBackend;
using sgtree::Signature;
using sgtree::StaticOpenOptions;
using sgtree::StaticTreeView;

void Drive(const uint8_t* data, size_t size, bool verify_checksums) {
  StaticOpenOptions options;  // num_bits 0: adopt whatever the file claims.
  options.verify_checksums = verify_checksums;
  std::string error;
  std::shared_ptr<const StaticTreeView> view =
      StaticTreeView::OpenFromBytes(data, size, options, &error);
  if (view == nullptr) {
    SGTREE_ASSERT_MSG(!error.empty(), "rejection must carry a reason");
    return;
  }
  // An accepted image claims full structural validity: all six query types
  // and the audit must run to completion without touching a byte outside
  // the image.
  const auto loaded = sgtree::ThawStatic(view);
  sgtree::AuditTree(*loaded);
  // The same image with every node copied into the tree's heap, as edits
  // copy them.
  const auto copied = sgtree::ThawStatic(view);
  for (const sgtree::PageId id : copied->LiveNodes()) copied->MutableNode(id);
  Signature query(view->num_bits());
  for (uint32_t b = 0; b < view->num_bits(); b += 7) query.Set(b);
  const SgTreeBackend backend(*loaded);
  const SgTreeBackend copied_backend(*copied);
  for (int type = 0; type < 6; ++type) {
    QueryRequest request;
    request.type = static_cast<QueryType>(type);
    request.query = query;
    request.k = 3;
    request.epsilon = 8.0;
    const QueryResult result = Execute(backend, request);
    SGTREE_ASSERT_MSG(result.ok(),
                      "loaded image rejected a well-formed request");
    SGTREE_ASSERT_MSG(result.neighbors.size() <= view->size(),
                      "more neighbors than indexed transactions");
    SGTREE_ASSERT_MSG(result.ids.size() <= view->size(),
                      "more ids than indexed transactions");
    SGTREE_ASSERT_MSG(Execute(copied_backend, request) == result,
                      "copied nodes answered differently from the image");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  Drive(data, size, /*verify_checksums=*/true);
  Drive(data, size, /*verify_checksums=*/false);
  return 0;
}
