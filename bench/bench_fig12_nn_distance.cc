// Figure 12: nearest-neighbor cost as a function of the distance of the
// nearest neighbor, on T30.I18.D200K. The paper runs 1000 queries and
// averages costs over five distance ranges: 0, 1-3, 4-10, 11-20, >20.
// Near queries are fast for both methods (the SG-table can win at 1-3);
// distant "outlier" queries are handled much faster by the SG-tree.

#include <array>
#include <string>

#include "bench/bench_common.h"

namespace sgtree::bench {
namespace {

struct Accumulator {
  QueryTrace tree_trace;
  QueryTrace table_trace;
  double tree_ms = 0;
  double table_ms = 0;
  uint32_t count = 0;
};

void Run() {
  QuestOptions qopt = PaperQuest(30, 18, 200'000);
  QuestGenerator gen(qopt);
  const Dataset dataset = gen.Generate();
  // The paper uses 1000 queries for this experiment (10x the usual count)
  // so every distance bucket is populated.
  const uint32_t num_queries = NumQueries() * 10;
  const auto queries =
      ToSignatures(gen.GenerateQueries(num_queries), dataset.num_items);

  const BuiltTree built = BuildTree(dataset, DefaultTreeOptions(dataset));
  const SgTable table(dataset, DefaultTableOptions());

  const std::array<std::string, 5> labels = {"0", "1 to 3", "4 to 10",
                                             "11 to 20", ">20"};
  std::array<Accumulator, 5> buckets;
  auto bucket_of = [](double d) {
    if (d <= 0) return 0;
    if (d <= 3) return 1;
    if (d <= 10) return 2;
    if (d <= 20) return 3;
    return 4;
  };

  for (const Signature& q : queries) {
    built.tree->buffer_pool().Clear();
    QueryTrace tree_trace;
    Timer tree_timer;
    const Neighbor nn =
        DfsNearest(*built.tree, q, built.tree->OwnPoolContext(&tree_trace));
    const double tree_ms = tree_timer.ElapsedMs();

    QueryTrace table_trace;
    Timer table_timer;
    table.Nearest(q, QueryContext{nullptr, &table_trace});
    const double table_ms = table_timer.ElapsedMs();

    Accumulator& acc = buckets[bucket_of(nn.distance)];
    acc.tree_trace += tree_trace;
    acc.table_trace += table_trace;
    acc.tree_ms += tree_ms;
    acc.table_ms += table_ms;
    ++acc.count;
  }

  PrintHeader("Figure 12: NN cost by NN distance (T30.I18.D200K)",
              "nn_distance");
  for (size_t b = 0; b < buckets.size(); ++b) {
    const Accumulator& acc = buckets[b];
    if (acc.count == 0) {
      std::printf("%-14s (no queries landed in this range)\n",
                  labels[b].c_str());
      continue;
    }
    const double n = acc.count;
    PrintRow(labels[b], "SG-table",
             {100.0 * acc.table_trace.candidates_verified /
                  (n * dataset.size()),
              acc.table_ms / n, acc.table_trace.buffer_misses / n});
    PrintRow(labels[b], "SG-tree",
             {100.0 * acc.tree_trace.candidates_verified /
                  (n * dataset.size()),
              acc.tree_ms / n, acc.tree_trace.buffer_misses / n});
  }
  std::printf("\nExpected shape (paper): both fast at small distances (the\n"
              "SG-table can win in the 1-3 range); the SG-tree is much\n"
              "faster on distant/outlier queries.\n");
}

}  // namespace
}  // namespace sgtree::bench

int main() {
  sgtree::bench::Run();
  return 0;
}
