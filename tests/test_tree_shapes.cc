// Pins the exact shape of trees built by every update path: for a set of
// fixed histories (insertion under each split and ChooseSubtree policy,
// erases that condense and reinsert, each bulk-load order, fixed-
// dimensionality data, and a thaw followed by more updates) it records the
// CRC-32C and size of the tree's static image and its node count, and
// compares them with tests/golden/tree_shapes.txt.
//
// A change to how nodes are stored must leave every line unchanged. After
// a deliberate change to the trees themselves, regenerate the file with
//   SGTREE_REGEN_GOLDEN=1 ctest -R TreeShapeTest
// and review the diff.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "data/census_generator.h"
#include "data/quest_generator.h"
#include "sgtree/bulk_load.h"
#include "sgtree/invariant_auditor.h"
#include "sgtree/sg_tree.h"
#include "static/static_tree_builder.h"
#include "static/static_tree_view.h"

namespace sgtree {
namespace {

constexpr uint32_t kTransactions = 2000;

Dataset QuestData() {
  QuestOptions quest;
  quest.num_transactions = kTransactions;
  quest.avg_transaction_size = 10;
  quest.avg_itemset_size = 6;
  quest.num_items = 500;
  quest.num_patterns = 200;
  quest.seed = 11;
  return QuestGenerator(quest).Generate();
}

SgTreeOptions TreeOptions(uint32_t num_bits) {
  SgTreeOptions options;
  options.num_bits = num_bits;
  // A small capacity makes the trees four levels deep, so directory splits,
  // condensing and reinsertion above the leaves all run.
  options.max_entries = 12;
  return options;
}

// One line of the golden file: "<history> crc=<hex> bytes=<n> nodes=<n>".
std::string ShapeLine(const std::string& history, const SgTree& tree) {
  const AuditReport audit = AuditTree(tree);
  EXPECT_TRUE(audit.ok()) << history << ": " << audit.FirstMessage();
  const std::vector<uint8_t> image = BuildStaticImage(tree);
  std::ostringstream line;
  line << history << " crc=" << std::hex << Crc32c(image) << std::dec
       << " bytes=" << image.size() << " nodes=" << tree.node_count();
  return line.str();
}

void EraseEveryThird(const Dataset& data, SgTree* tree) {
  for (size_t i = 0; i < data.transactions.size(); i += 3) {
    ASSERT_TRUE(tree->Erase(data.transactions[i]));
  }
}

std::vector<std::string> AllShapes() {
  std::vector<std::string> lines;
  const Dataset quest = QuestData();

  const SplitPolicy splits[] = {SplitPolicy::kLinear, SplitPolicy::kQuadratic,
                                SplitPolicy::kAverage, SplitPolicy::kMinimum};
  const ChooseSubtreePolicy chooses[] = {ChooseSubtreePolicy::kMinEnlargement,
                                         ChooseSubtreePolicy::kMinOverlap};
  for (const SplitPolicy split : splits) {
    for (const ChooseSubtreePolicy choose : chooses) {
      SgTreeOptions options = TreeOptions(quest.num_items);
      options.split_policy = split;
      options.choose_policy = choose;
      SgTree tree(options);
      for (const Transaction& txn : quest.transactions) tree.Insert(txn);
      const std::string name =
          SplitPolicyName(split) + "/" + ChooseSubtreePolicyName(choose);
      lines.push_back(ShapeLine("insert/" + name, tree));
      EraseEveryThird(quest, &tree);
      lines.push_back(ShapeLine("erase/" + name, tree));
    }
  }

  const BulkLoadOrder orders[] = {BulkLoadOrder::kGrayCode,
                                  BulkLoadOrder::kClusterPartition,
                                  BulkLoadOrder::kMinHash};
  for (const BulkLoadOrder order : orders) {
    BulkLoadOptions bulk;
    bulk.order = order;
    const std::unique_ptr<SgTree> tree =
        BulkLoad(quest, TreeOptions(quest.num_items), bulk);
    lines.push_back(ShapeLine("bulk/" + BulkLoadOrderName(order), *tree));
  }

  {
    CensusOptions census_options;
    census_options.num_tuples = kTransactions;
    const Dataset census = CensusGenerator(census_options).Generate();
    SgTreeOptions options = TreeOptions(census.num_items);
    options.fixed_dimensionality = census.fixed_dimensionality;
    SgTree tree(options);
    for (const Transaction& txn : census.transactions) tree.Insert(txn);
    lines.push_back(ShapeLine("fixed-dimensionality", tree));
  }

  {
    // Thaw the inserted tree's image, then keep updating the thawed tree:
    // splits must steer around the adopted page ids.
    SgTree built(TreeOptions(quest.num_items));
    for (size_t i = 0; i < 1500; ++i) built.Insert(quest.transactions[i]);
    const std::vector<uint8_t> image = BuildStaticImage(built);
    std::string error;
    StaticOpenOptions open;
    open.tree = TreeOptions(quest.num_items);
    const std::unique_ptr<StaticTreeView> view =
        StaticTreeView::OpenFromBytes(image.data(), image.size(), open,
                                      &error);
    EXPECT_NE(view, nullptr) << error;
    if (view == nullptr) return lines;
    const std::unique_ptr<SgTree> thawed = ThawStatic(*view);
    for (size_t i = 1500; i < 2000; ++i) thawed->Insert(quest.transactions[i]);
    for (size_t i = 0; i < 1000; i += 5) {
      EXPECT_TRUE(thawed->Erase(quest.transactions[i]));
    }
    lines.push_back(ShapeLine("thaw+500i+200e", *thawed));
  }
  return lines;
}

std::string GoldenPath() {
  return std::string(SGTREE_GOLDEN_DIR) + "/tree_shapes.txt";
}

TEST(TreeShapeTest, HistoriesMatchPinnedShapes) {
  const std::vector<std::string> lines = AllShapes();
  if (std::getenv("SGTREE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out) << "cannot write golden " << GoldenPath();
    for (const std::string& line : lines) out << line << "\n";
    ASSERT_TRUE(out.good());
    return;
  }
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in) << "missing golden fixture " << GoldenPath()
                  << " (regenerate with SGTREE_REGEN_GOLDEN=1)";
  std::map<std::string, std::string> pinned;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) pinned[line.substr(0, line.find(' '))] = line;
  }
  EXPECT_EQ(pinned.size(), lines.size());
  for (const std::string& shape : lines) {
    const std::string history = shape.substr(0, shape.find(' '));
    ASSERT_EQ(pinned.count(history), 1u) << "unpinned history " << history;
    EXPECT_EQ(shape, pinned[history]);
  }
}

}  // namespace
}  // namespace sgtree
