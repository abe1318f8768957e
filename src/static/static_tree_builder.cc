#include "static/static_tree_builder.h"

#include <cstring>
#include <span>

#include "common/bit_ops.h"
#include "common/crc32.h"
#include "durability/env.h"
#include "sgtree/node.h"
#include "static/static_format.h"
#include "storage/page.h"

namespace sgtree {

namespace sf = static_format;

std::vector<uint8_t> BuildStaticImage(const SgTree& tree) {
  const uint32_t num_bits = tree.num_bits();
  const uint64_t words = WordsForBits(num_bits);

  // BFS from the root fixes the node order (root = node 0, children always
  // after parents) and the node-index <-> PageId bijection the search layer
  // charges through. A directory's children take consecutive indexes, so
  // its entry e becomes a ref to node first_child[i] + e.
  std::vector<PageId> order;
  std::vector<uint64_t> first_child;
  if (tree.root() != kInvalidPageId) order.push_back(tree.root());
  uint64_t file_size = sf::kHeaderSize;
  for (size_t i = 0; i < order.size(); ++i) {
    const NodeView node = tree.GetNodeNoCharge(order[i]);
    first_child.push_back(order.size());
    if (!node.IsLeaf()) {
      for (size_t e = 0; e < node.Count(); ++e) {
        order.push_back(static_cast<PageId>(node.EntryAt(e).ref));
      }
    }
    file_size += 8 + node.words().size() * 8;
  }

  const uint64_t node_count = order.size();
  const uint64_t nodes_offset = sf::kHeaderSize + node_count * 8;
  std::vector<uint8_t> image(file_size, 0);
  uint8_t* base = image.data();

  // Node index, then each record copied word for word (the host is
  // little-endian, static_format.h), with directory refs renumbered.
  uint64_t offset = nodes_offset;
  for (uint64_t i = 0; i < node_count; ++i) {
    const NodeView node = tree.GetNodeNoCharge(order[i]);
    sf::StoreU64(base + sf::kHeaderSize + i * 8, offset);
    const std::span<const uint64_t> record = node.words();
    std::memcpy(base + offset, record.data(), record.size() * 8);
    if (!node.IsLeaf()) {
      // Entry e starts where a record of e entries would end.
      for (uint64_t e = 0; e < node.Count(); ++e) {
        sf::StoreU64(base + offset + 8 * NodeRecordWords(e, words),
                     first_child[i] + e);
      }
    }
    offset += record.size() * 8;
  }

  // Header, then its two checksums (body first: the header CRC covers the
  // stored body CRC).
  const auto [area_lo, area_hi] = tree.TransactionAreaBounds();
  std::memcpy(base + sf::kMagicOffset, sf::kMagic, sizeof(sf::kMagic));
  sf::StoreU32(base + sf::kVersionOffset, sf::kVersion);
  sf::StoreU32(base + sf::kFlagsOffset, 0);
  sf::StoreU32(base + sf::kNumBitsOffset, num_bits);
  sf::StoreU32(base + sf::kMaxEntriesOffset, tree.max_entries());
  sf::StoreU32(base + sf::kHeightOffset,
               node_count == 0 ? 0 : tree.height());
  sf::StoreU32(base + sf::kRootOffset,
               node_count == 0 ? sf::kInvalidRoot : 0);
  sf::StoreU64(base + sf::kSizeOffset, tree.size());
  sf::StoreU64(base + sf::kNodeCountOffset, node_count);
  sf::StoreU64(base + sf::kIndexOffsetOffset, sf::kHeaderSize);
  sf::StoreU64(base + sf::kNodesOffsetOffset, nodes_offset);
  sf::StoreU64(base + sf::kFileSizeOffset, file_size);
  sf::StoreU32(base + sf::kAreaLoOffset, area_lo);
  sf::StoreU32(base + sf::kAreaHiOffset, area_hi);
  sf::StoreU32(base + sf::kBodyCrcOffset,
               Crc32c(base + sf::kHeaderSize, file_size - sf::kHeaderSize));
  sf::StoreU32(base + sf::kHeaderCrcOffset,
               Crc32c(base, sf::kHeaderCrcOffset));
  return image;
}

bool BuildStaticTree(const SgTree& tree, const std::string& path,
                     std::string* error) {
  return AtomicWriteFile(Env::Posix(), path, BuildStaticImage(tree), error);
}

std::unique_ptr<SgTree> ThawStatic(const StaticTreeView& view) {
  auto tree = std::make_unique<SgTree>(view.options());
  for (uint64_t i = 0; i < view.node_count(); ++i) {
    const auto id = static_cast<PageId>(i);
    const NodeView record = view.GetNodeNoCharge(id);
    tree->AdoptNode(id, record.level(), record.Count()).Assign(record);
  }
  const auto [area_lo, area_hi] = view.stored_area_window();
  if (area_lo <= area_hi && area_hi <= view.num_bits() && view.size() > 0) {
    tree->NoteTransactionArea(area_lo);
    tree->NoteTransactionArea(area_hi);
  }
  tree->SetRoot(view.root(), view.height(), view.size());
  tree->ResetIo();
  return tree;
}

std::unique_ptr<SgTree> LoadTree(const std::string& path,
                                 const SgTreeOptions& runtime_options,
                                 std::string* error) {
  StaticOpenOptions open_options;
  open_options.tree = runtime_options;
  const std::unique_ptr<StaticTreeView> view =
      StaticTreeView::Open(Env::Posix(), path, open_options, error);
  if (view == nullptr) return nullptr;
  return ThawStatic(*view);
}

}  // namespace sgtree
