// Tests for the unified query API (exec/query_api.h): boundary validation,
// the Execute() dispatch, and the IndexBackend adapters against the native
// entry points they wrap.

#include "exec/query_api.h"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/linear_scan.h"
#include "common/rng.h"
#include "exec/index_backend.h"
#include "exec/query_executor.h"
#include "inverted/inverted_index.h"
#include "sgtable/sg_table.h"
#include "sgtree/search.h"
#include "sgtree/sg_tree.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace sgtree {
namespace {

using ::sgtree::testing::ClusteredDataset;
using ::sgtree::testing::RandomSignature;

constexpr uint32_t kBits = 120;

struct Fixture {
  Fixture() : dataset(ClusteredDataset(900, 500, kBits, 8, 10, 2)) {
    SgTreeOptions options;
    options.num_bits = kBits;
    options.max_entries = 8;
    tree = std::make_unique<SgTree>(options);
    for (const Transaction& txn : dataset.transactions) tree->Insert(txn);
    scan = std::make_unique<LinearScan>(dataset);
  }

  Dataset dataset;
  std::unique_ptr<SgTree> tree;
  std::unique_ptr<LinearScan> scan;
};

QueryRequest Request(QueryType type, const Signature& query, uint32_t k = 3,
                     double epsilon = 8.0) {
  QueryRequest request;
  request.type = type;
  request.query = query;
  request.k = k;
  request.epsilon = epsilon;
  return request;
}

// ---------------------------------------------------------------------------
// Boundary validation.
// ---------------------------------------------------------------------------

TEST(ValidateRequestTest, KnnRequiresPositiveK) {
  const Signature q = Signature::FromItems(std::vector<uint32_t>{1}, kBits);
  for (QueryType type : {QueryType::kKnn, QueryType::kBestFirstKnn}) {
    EXPECT_FALSE(ValidateRequest(Request(type, q, 0)).empty());
    EXPECT_TRUE(ValidateRequest(Request(type, q, 1)).empty());
  }
}

TEST(ValidateRequestTest, RangeRequiresNonNegativeEpsilon) {
  const Signature q = Signature::FromItems(std::vector<uint32_t>{1}, kBits);
  EXPECT_FALSE(
      ValidateRequest(Request(QueryType::kRange, q, 1, -0.5)).empty());
  EXPECT_FALSE(
      ValidateRequest(Request(QueryType::kRange, q, 1,
                              std::nan("")))
          .empty());
  EXPECT_TRUE(ValidateRequest(Request(QueryType::kRange, q, 1, 0.0)).empty());
}

// The messages must name the offending value — a rejection that does not
// say what was passed sends the caller to a debugger.
TEST(ValidateRequestTest, MessagesIncludeOffendingValue) {
  const Signature q = Signature::FromItems(std::vector<uint32_t>{1}, kBits);
  for (QueryType type : {QueryType::kKnn, QueryType::kBestFirstKnn}) {
    const std::string message = ValidateRequest(Request(type, q, 0));
    EXPECT_NE(message.find("k must be > 0"), std::string::npos) << message;
    EXPECT_NE(message.find("got 0"), std::string::npos) << message;
  }
  const std::string neg =
      ValidateRequest(Request(QueryType::kRange, q, 1, -3.0));
  EXPECT_NE(neg.find("epsilon must be >= 0"), std::string::npos) << neg;
  EXPECT_NE(neg.find("got -3"), std::string::npos) << neg;
  const std::string frac =
      ValidateRequest(Request(QueryType::kRange, q, 1, -0.25));
  EXPECT_NE(frac.find("got -0.25"), std::string::npos) << frac;
  const std::string nan_message =
      ValidateRequest(Request(QueryType::kRange, q, 1, std::nan("")));
  EXPECT_NE(nan_message.find("got NaN"), std::string::npos) << nan_message;
}

TEST(ValidateRequestTest, IdQueriesIgnoreKAndEpsilon) {
  const Signature q = Signature::FromItems(std::vector<uint32_t>{1}, kBits);
  for (QueryType type :
       {QueryType::kContainment, QueryType::kExact, QueryType::kSubset}) {
    EXPECT_TRUE(ValidateRequest(Request(type, q, 0, -1.0)).empty());
  }
}

TEST(ExecuteTest, InvalidRequestYieldsEmptyErrorResult) {
  Fixture f;
  const Signature q = Signature::FromItems(std::vector<uint32_t>{1, 2}, kBits);
  for (const QueryRequest& bad :
       {Request(QueryType::kKnn, q, 0), Request(QueryType::kRange, q, 1, -1)}) {
    const QueryResult result = Execute(SgTreeBackend(*f.tree), bad);
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.neighbors.empty());
    EXPECT_TRUE(result.ids.empty());
    // The backend never ran: no work was charged, nothing was timed.
    EXPECT_EQ(result.trace.nodes_visited(), 0u);
    EXPECT_EQ(result.elapsed_us, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Adapter support matrix: Supports() is honest, and running an unsupported
// type through Execute yields an empty (non-error) result.
// ---------------------------------------------------------------------------

TEST(BackendSupportTest, MatrixMatchesDocumentedCapabilities) {
  Fixture f;
  SgTableOptions topt;
  const SgTable table(f.dataset, topt);
  const InvertedIndex inverted(f.dataset);

  const SgTreeBackend tree_backend(*f.tree);
  const SgTableBackend table_backend(table);
  const InvertedIndexBackend inverted_backend(inverted);
  const LinearScanBackend scan_backend(*f.scan);

  for (QueryType type :
       {QueryType::kKnn, QueryType::kBestFirstKnn, QueryType::kRange,
        QueryType::kContainment, QueryType::kExact, QueryType::kSubset}) {
    EXPECT_TRUE(tree_backend.Supports(type));
    const bool distance_type = type == QueryType::kKnn ||
                               type == QueryType::kBestFirstKnn ||
                               type == QueryType::kRange;
    EXPECT_EQ(table_backend.Supports(type), distance_type);
    EXPECT_EQ(inverted_backend.Supports(type), type != QueryType::kExact);
    EXPECT_EQ(scan_backend.Supports(type), type != QueryType::kExact);
  }

  // Unsupported type: empty result, not an error.
  const Signature q = Signature::FromItems(std::vector<uint32_t>{2, 5}, kBits);
  const QueryResult r =
      Execute(table_backend, Request(QueryType::kContainment, q));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.ids.empty());
}

TEST(BackendSupportTest, ReasonsNameTheBackendAndTheAlternative) {
  Fixture f;
  SgTableOptions topt;
  const SgTable table(f.dataset, topt);
  const InvertedIndex inverted(f.dataset);

  const SgTableBackend table_backend(table);
  const InvertedIndexBackend inverted_backend(inverted);
  const LinearScanBackend scan_backend(*f.scan);

  EXPECT_EQ(table_backend.SupportReason(QueryType::kContainment),
            "sgtable indexes Hamming-distance buckets only; set predicates "
            "need the sgtree, inverted, or linear_scan backend");
  EXPECT_EQ(inverted_backend.SupportReason(QueryType::kExact),
            "the inverted file stores posting lists, not signatures; exact "
            "match needs the sgtree backend");
  EXPECT_EQ(scan_backend.SupportReason(QueryType::kExact),
            "the linear scan exposes no signature-equality entry point; "
            "exact match needs the sgtree backend");
  // Supported combos report an empty reason (the Supports() contract).
  EXPECT_EQ(table_backend.SupportReason(QueryType::kKnn), "");
  EXPECT_EQ(inverted_backend.SupportReason(QueryType::kSubset), "");
}

TEST(BackendSupportTest, JoinCapabilityColumn) {
  Fixture f;
  SgTableOptions topt;
  const SgTable table(f.dataset, topt);
  const InvertedIndex inverted(f.dataset);

  // Only tree-shaped backends can enumerate per-transaction item sets, so
  // only they qualify as collection-join inputs.
  EXPECT_EQ(SgTreeBackend(*f.tree).JoinInputReason(), "");
  EXPECT_EQ(SgTableBackend(table).JoinInputReason(),
            "sgtable stores signature buckets, not per-transaction item "
            "sets; join from an sgtree-backed index instead");
  EXPECT_EQ(InvertedIndexBackend(inverted).JoinInputReason(),
            "the inverted file stores per-item posting lists, not "
            "per-transaction item sets; join from an sgtree-backed index "
            "instead");
  // LinearScanBackend inherits the default refusal, which names it.
  EXPECT_EQ(LinearScanBackend(*f.scan).JoinInputReason(),
            "backend 'linear_scan' cannot enumerate per-transaction item "
            "sets; join from an sgtree-backed index instead");
}

// ---------------------------------------------------------------------------
// Execute() against the native entry points it replaces.
// ---------------------------------------------------------------------------

TEST(ExecuteTest, SgTreeBackendMatchesDirectCalls) {
  Fixture f;
  Rng rng(901);
  BufferPool pool(64);
  for (int trial = 0; trial < 10; ++trial) {
    const Signature q = RandomSignature(rng, kBits, 0.07);

    pool.Clear();
    auto knn = Execute(SgTreeBackend(*f.tree), Request(QueryType::kKnn, q),
                       &pool);
    EXPECT_EQ(knn.neighbors, DfsKNearest(*f.tree, q, 3));

    auto best =
        Execute(SgTreeBackend(*f.tree), Request(QueryType::kBestFirstKnn, q));
    EXPECT_EQ(best.neighbors, BestFirstKNearest(*f.tree, q, 3));

    auto range = Execute(SgTreeBackend(*f.tree), Request(QueryType::kRange, q));
    EXPECT_EQ(range.neighbors, RangeSearch(*f.tree, q, 8.0));

    auto contain =
        Execute(SgTreeBackend(*f.tree), Request(QueryType::kContainment, q));
    EXPECT_EQ(contain.ids, ContainmentSearch(*f.tree, q));

    auto exact = Execute(SgTreeBackend(*f.tree), Request(QueryType::kExact, q));
    EXPECT_EQ(exact.ids, ExactSearch(*f.tree, q));

    auto subset =
        Execute(SgTreeBackend(*f.tree), Request(QueryType::kSubset, q));
    EXPECT_EQ(subset.ids, SubsetSearch(*f.tree, q));
  }
}

TEST(ExecuteTest, LinearScanBackendMatchesTreeAnswers) {
  // The scan through the unified API is the same oracle the legacy tests
  // used directly: tree and scan must agree on every supported type.
  Fixture f;
  Rng rng(902);
  const LinearScanBackend scan_backend(*f.scan);
  const SgTreeBackend tree_backend(*f.tree);
  for (int trial = 0; trial < 10; ++trial) {
    const Signature q = RandomSignature(rng, kBits, 0.07);
    for (QueryType type :
         {QueryType::kKnn, QueryType::kRange, QueryType::kContainment,
          QueryType::kSubset}) {
      const QueryResult via_tree = Execute(tree_backend, Request(type, q));
      const QueryResult via_scan = Execute(scan_backend, Request(type, q));
      EXPECT_EQ(via_tree.neighbors, via_scan.neighbors) << "trial " << trial;
      EXPECT_EQ(via_tree.ids, via_scan.ids) << "trial " << trial;
    }
  }
}

TEST(ExecutorGenericRunTest, InvalidRequestsSurfaceInBatchOrder) {
  Fixture f;
  const Signature q = Signature::FromItems(std::vector<uint32_t>{4, 9}, kBits);
  std::vector<QueryRequest> batch = {Request(QueryType::kKnn, q, 3),
                                     Request(QueryType::kKnn, q, 0),
                                     Request(QueryType::kRange, q, 1, -2.0)};
  QueryExecutor executor;
  const auto results = executor.Run(SgTreeBackend(*f.tree), batch);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_FALSE(results[2].ok());
  EXPECT_TRUE(results[1].neighbors.empty());
  EXPECT_TRUE(results[2].neighbors.empty());
}

}  // namespace
}  // namespace sgtree
