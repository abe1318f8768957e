// Fuzz harness for the static SG-tree image reader (static/).
//
// The static image is opened straight off disk and then traversed with
// zero-copy pointer arithmetic, so its open-time validation is the only
// line between a hostile file and an out-of-bounds read. It is also the
// only file a tree is loaded from: LoadTree thaws a validated view into a
// mutable SgTree. The harness feeds arbitrary bytes to OpenFromBytes in
// both checksum modes; every rejection must carry a reason, and every
// accepted view must survive all six query types — the structural walk
// (offsets, levels, acyclicity, reachability) is what makes that safe even
// when the body CRC was waived — and thaw into a tree that gives the same
// answers, trace included.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/check.h"
#include "common/signature.h"
#include "exec/index_backend.h"
#include "exec/query_api.h"
#include "static/static_tree_backend.h"
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
using sgtree::StaticTreeBackend;
using sgtree::StaticTreeView;

void Drive(const uint8_t* data, size_t size, bool verify_checksums) {
  StaticOpenOptions options;  // num_bits 0: adopt whatever the file claims.
  options.verify_checksums = verify_checksums;
  std::string error;
  auto view = StaticTreeView::OpenFromBytes(data, size, options, &error);
  if (view == nullptr) {
    SGTREE_ASSERT_MSG(!error.empty(), "rejection must carry a reason");
    return;
  }
  // An accepted view claims full structural validity: all six query types
  // must run to completion without touching a byte outside the image.
  Signature query(view->num_bits());
  for (uint32_t b = 0; b < view->num_bits(); b += 7) query.Set(b);
  const StaticTreeBackend backend(*view);
  const auto thawed = sgtree::ThawStatic(*view);
  const SgTreeBackend thawed_backend(*thawed);
  for (int type = 0; type < 6; ++type) {
    QueryRequest request;
    request.type = static_cast<QueryType>(type);
    request.query = query;
    request.k = 3;
    request.epsilon = 8.0;
    const QueryResult result = Execute(backend, request);
    SGTREE_ASSERT_MSG(result.ok(),
                      "validated view rejected a well-formed request");
    SGTREE_ASSERT_MSG(result.neighbors.size() <= view->size(),
                      "more neighbors than indexed transactions");
    SGTREE_ASSERT_MSG(result.ids.size() <= view->size(),
                      "more ids than indexed transactions");
    SGTREE_ASSERT_MSG(Execute(thawed_backend, request) == result,
                      "thawed tree answered differently from the view");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  Drive(data, size, /*verify_checksums=*/true);
  Drive(data, size, /*verify_checksums=*/false);
  return 0;
}
