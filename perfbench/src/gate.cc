#include "gate.h"

#include <algorithm>
#include <unordered_set>

#include "common/rng.h"
#include "exec/index_backend.h"

namespace perfbench {
namespace {

using sgtree::Neighbor;
using sgtree::QueryRequest;
using sgtree::QueryResult;
using sgtree::QueryType;

std::vector<Neighbor> Canonical(std::vector<Neighbor> neighbors) {
  std::sort(neighbors.begin(), neighbors.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.tid < b.tid;
            });
  return neighbors;
}

std::vector<uint64_t> Canonical(std::vector<uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

QueryResult BruteForce(const sgtree::LinearScan& scan,
                       const QueryRequest& request) {
  const sgtree::LinearScanBackend backend(scan);
  if (request.type != QueryType::kExact) {
    return sgtree::Execute(backend, request);
  }
  QueryRequest range = request;
  range.type = QueryType::kRange;
  range.epsilon = 0;
  QueryResult result = sgtree::Execute(backend, range);
  for (const Neighbor& n : result.neighbors) result.ids.push_back(n.tid);
  result.neighbors.clear();
  std::sort(result.ids.begin(), result.ids.end());
  return result;
}

bool SameAnswer(const QueryResult& got, const QueryResult& want,
                std::string* why) {
  if (!got.ok() || !want.ok()) {
    *why = "error: got '" + got.error + "', want '" + want.error + "'";
    return false;
  }
  if (Canonical(got.neighbors) != Canonical(want.neighbors)) {
    *why = "neighbors differ: got " + std::to_string(got.neighbors.size()) +
           ", want " + std::to_string(want.neighbors.size());
    return false;
  }
  if (Canonical(got.ids) != Canonical(want.ids)) {
    *why = "ids differ: got " + std::to_string(got.ids.size()) + ", want " +
           std::to_string(want.ids.size());
    return false;
  }
  return true;
}

void CheckAnswer(const sgtree::LinearScan& scan, const QueryRequest& request,
                 const QueryResult& got, GateReport* report) {
  ++report->checked;
  std::string why;
  if (SameAnswer(got, BruteForce(scan, request), &why)) return;
  ++report->wrong;
  if (report->examples.size() < 5) {
    report->examples.push_back("query type " +
                               std::to_string(static_cast<int>(request.type)) +
                               ": " + why);
  }
}

std::vector<size_t> SampleIndexes(size_t n, size_t count, uint64_t seed) {
  count = std::min(count, n);
  sgtree::Rng rng(seed);
  std::unordered_set<size_t> picked;
  while (picked.size() < count) picked.insert(rng.UniformInt(n));
  std::vector<size_t> out(picked.begin(), picked.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
