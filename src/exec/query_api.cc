#include "exec/query_api.h"

#include <cmath>
#include <sstream>

#include "common/stats.h"

namespace sgtree {
namespace {

// "-3.5", not "-3.500000": default ostream precision keeps the message as
// short as the value allows.
std::string FormatDouble(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

}  // namespace

std::string ValidateRequest(const QueryRequest& request) {
  switch (request.type) {
    case QueryType::kKnn:
    case QueryType::kBestFirstKnn:
      // Name the offending value: "k must be > 0" alone sends the caller
      // back to a debugger to learn what they actually passed.
      if (request.k == 0) {
        return "k must be > 0 for k-NN queries, got " +
               std::to_string(request.k);
      }
      break;
    case QueryType::kRange:
      if (std::isnan(request.epsilon)) {
        return "epsilon must be a non-negative number for range queries, "
               "got NaN";
      }
      if (request.epsilon < 0.0) {
        return "epsilon must be >= 0 for range queries, got " +
               FormatDouble(request.epsilon);
      }
      break;
    case QueryType::kContainment:
    case QueryType::kExact:
    case QueryType::kSubset:
      break;  // Signature-only queries: nothing to validate.
  }
  return std::string();
}

QueryResult Execute(const IndexBackend& backend, const QueryRequest& request,
                    BufferPool* pool) {
  QueryResult result;
  result.error = ValidateRequest(request);
  if (!result.ok()) return result;
  const QueryContext ctx{pool, &result.trace};
  Timer timer;
  backend.Run(request, ctx, &result);
  result.elapsed_us = timer.ElapsedMs() * 1000.0;
  return result;
}

}  // namespace sgtree
