#ifndef SGTREE_EXEC_INDEX_BACKEND_H_
#define SGTREE_EXEC_INDEX_BACKEND_H_

#include "baseline/linear_scan.h"
#include "common/distance.h"
#include "exec/query_api.h"
#include "inverted/inverted_index.h"
#include "sgtable/sg_table.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"

namespace sgtree {

/// IndexBackend adapters for the four mutable index structures. Each one
/// replaces a per-backend overload of the old executor matrix: the mapping
/// from QueryType to the structure's native entry points lives here, once.
/// All adapters are non-owning views — the underlying index must outlive
/// the adapter — and are trivially copyable, so build them on the fly per
/// task (the sharded router constructs one per shard task).

/// The SG-tree, whether built by inserts or loaded from a static image
/// (ThawStatic): the only backend answering all six query types. Every
/// node read is charged to ctx; with no pool each one is a random I/O, the
/// paper's per-query cold-cache cost.
/// `shared_bound`, when non-null, attaches the cross-partition k-NN
/// pruning bound (see SharedPruneBound in sgtree/search.h); it affects
/// only kKnn / kBestFirstKnn.
class SgTreeBackend : public IndexBackend {
 public:
  explicit SgTreeBackend(const SgTree& tree,
                         SharedPruneBound* shared_bound = nullptr)
      : tree_(&tree), shared_bound_(shared_bound) {}

  const char* name() const override { return "sgtree"; }
  std::string SupportReason(QueryType /*type*/) const override {
    return std::string();  // All six query types.
  }
  void Run(const QueryRequest& request, const QueryContext& ctx,
           QueryResult* result) const override;

  const SgTree& tree() const { return *tree_; }

 private:
  const SgTree* tree_;
  SharedPruneBound* shared_bound_;
};

/// The SG-table baseline (Hamming only): kKnn / kBestFirstKnn via
/// KNearest, kRange via Range. The table does not index set predicates.
class SgTableBackend : public IndexBackend {
 public:
  explicit SgTableBackend(const SgTable& table) : table_(&table) {}

  const char* name() const override { return "sgtable"; }
  std::string SupportReason(QueryType type) const override {
    if (type == QueryType::kKnn || type == QueryType::kBestFirstKnn ||
        type == QueryType::kRange) {
      return std::string();
    }
    return "sgtable indexes Hamming-distance buckets only; set predicates "
           "need the sgtree, inverted, or linear_scan backend";
  }
  void Run(const QueryRequest& request, const QueryContext& ctx,
           QueryResult* result) const override;

 private:
  const SgTable* table_;
};

/// The inverted-file baseline: kContainment -> Containing, kSubset ->
/// ContainedIn, k-NN types -> KNearest, kRange -> Range. Exact match needs
/// signatures, not posting lists, so kExact is unsupported.
class InvertedIndexBackend : public IndexBackend {
 public:
  explicit InvertedIndexBackend(const InvertedIndex& index)
      : index_(&index) {}

  const char* name() const override { return "inverted"; }
  std::string SupportReason(QueryType type) const override {
    if (type != QueryType::kExact) return std::string();
    return "the inverted file stores posting lists, not signatures; exact "
           "match needs the sgtree backend";
  }
  void Run(const QueryRequest& request, const QueryContext& ctx,
           QueryResult* result) const override;

 private:
  const InvertedIndex* index_;
};

/// The exact sequential scan — the ground-truth oracle of the test suite,
/// now reachable through the same API as the real indexes. `metric` is the
/// distance used by the k-NN and range types (the scan itself is
/// metric-agnostic). kExact is unsupported: the scan exposes no signature
/// equality entry point.
class LinearScanBackend : public IndexBackend {
 public:
  explicit LinearScanBackend(const LinearScan& scan,
                             Metric metric = Metric::kHamming)
      : scan_(&scan), metric_(metric) {}

  const char* name() const override { return "linear_scan"; }
  std::string SupportReason(QueryType type) const override {
    if (type != QueryType::kExact) return std::string();
    return "the linear scan exposes no signature-equality entry point; "
           "exact match needs the sgtree backend";
  }
  void Run(const QueryRequest& request, const QueryContext& ctx,
           QueryResult* result) const override;

 private:
  const LinearScan* scan_;
  Metric metric_;
};

}  // namespace sgtree

#endif  // SGTREE_EXEC_INDEX_BACKEND_H_
