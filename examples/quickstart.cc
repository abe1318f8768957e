// Quickstart: build an SG-tree over a handful of market-basket
// transactions and run the three similarity queries.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <vector>

#include "exec/index_backend.h"
#include "exec/query_api.h"
#include "sgtree/sg_tree.h"

int main() {
  using namespace sgtree;

  // A dictionary of 8 items: 0=bread 1=milk 2=eggs 3=butter 4=beer
  // 5=diapers 6=coffee 7=tea.
  const char* names[] = {"bread",  "milk",    "eggs",   "butter",
                         "beer",   "diapers", "coffee", "tea"};
  SgTreeOptions options;
  options.num_bits = 8;      // Signature width = dictionary size.
  options.max_entries = 4;   // Tiny nodes so the example builds a real tree.
  SgTree tree(options);

  const std::vector<Transaction> baskets = {
      {1, {0, 1, 2}},     // bread, milk, eggs
      {2, {0, 1, 3}},     // bread, milk, butter
      {3, {4, 5}},        // beer, diapers
      {4, {4, 5, 0}},     // beer, diapers, bread
      {5, {6, 7}},        // coffee, tea
      {6, {6, 0, 1}},     // coffee, bread, milk
      {7, {0, 1, 2, 3}},  // bread, milk, eggs, butter
      {8, {4, 6}},        // beer, coffee
  };
  for (const Transaction& basket : baskets) {
    tree.Insert(basket);
  }
  std::printf("Indexed %zu baskets in a tree of height %u (%llu nodes)\n\n",
              tree.size(), tree.height(),
              static_cast<unsigned long long>(tree.node_count()));

  // A new customer bought bread, milk and coffee. Who shops most alike?
  const Signature query =
      Signature::FromItems(std::vector<uint32_t>{0, 1, 6}, 8);

  // Every query goes through the unified API: build a QueryRequest, pick
  // a backend, call Execute(). The same request shapes run unchanged
  // against the SG-table, the inverted file, or a sharded index.
  const SgTreeBackend backend(tree);

  QueryRequest nn_request;
  nn_request.type = QueryType::kKnn;
  nn_request.query = query;
  const QueryResult nn = Execute(backend, nn_request);
  std::printf("Nearest basket to {bread, milk, coffee}: basket %llu "
              "(Hamming distance %.0f)\n",
              static_cast<unsigned long long>(nn.neighbors[0].tid),
              nn.neighbors[0].distance);

  std::printf("\nTop-3 most similar baskets:\n");
  QueryRequest knn_request = nn_request;
  knn_request.k = 3;
  for (const Neighbor& n : Execute(backend, knn_request).neighbors) {
    std::printf("  basket %llu at distance %.0f\n",
                static_cast<unsigned long long>(n.tid), n.distance);
  }

  std::printf("\nBaskets within distance 2:\n");
  QueryRequest range_request;
  range_request.type = QueryType::kRange;
  range_request.query = query;
  range_request.epsilon = 2.0;
  for (const Neighbor& n : Execute(backend, range_request).neighbors) {
    std::printf("  basket %llu at distance %.0f\n",
                static_cast<unsigned long long>(n.tid), n.distance);
  }

  // Containment: who bought BOTH beer and diapers?
  const Signature beer_diapers =
      Signature::FromItems(std::vector<uint32_t>{4, 5}, 8);
  std::printf("\nBaskets containing {%s, %s}:", names[4], names[5]);
  QueryRequest contain_request;
  contain_request.type = QueryType::kContainment;
  contain_request.query = beer_diapers;
  for (uint64_t tid : Execute(backend, contain_request).ids) {
    std::printf(" %llu", static_cast<unsigned long long>(tid));
  }
  std::printf("\n");
  return 0;
}
