#include "static/static_tree_builder.h"

#include <cstring>
#include <deque>
#include <unordered_map>

#include "common/bit_ops.h"
#include "common/crc32.h"
#include "durability/env.h"
#include "sgtree/node.h"
#include "static/static_format.h"
#include "storage/page.h"

namespace sgtree {

namespace {

namespace sf = static_format;

bool BuildFail(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = reason;
  return false;
}

}  // namespace

bool BuildStaticImage(const SgTree& tree, std::vector<uint8_t>* out,
                      std::string* error) {
  const uint32_t num_bits = tree.num_bits();
  const uint32_t max_entries = tree.max_entries();
  const uint64_t words = WordsForBits(num_bits);
  if (max_entries > sf::kMaxNodeEntries) {
    return BuildFail(error,
                     "node capacity " + std::to_string(max_entries) +
                         " exceeds the static format's 16-bit entry count");
  }

  // BFS from the root fixes the node order (root = node 0, children always
  // after parents) and the node-index <-> PageId bijection the search layer
  // charges through.
  std::vector<PageId> order;
  std::unordered_map<PageId, uint64_t> index_of;
  if (tree.root() != kInvalidPageId) {
    std::deque<PageId> queue{tree.root()};
    index_of[tree.root()] = 0;
    while (!queue.empty()) {
      const PageId id = queue.front();
      queue.pop_front();
      order.push_back(id);
      const Node& node = tree.GetNodeNoCharge(id);
      if (node.IsLeaf()) continue;
      for (size_t i = 0; i < node.Count(); ++i) {
        const PageId child = static_cast<PageId>(node.EntryAt(i).ref);
        index_of[child] = static_cast<uint64_t>(index_of.size());
        queue.push_back(child);
      }
    }
  }

  const uint64_t node_count = order.size();
  const uint64_t nodes_offset = sf::kHeaderSize + node_count * 8;
  uint64_t file_size = nodes_offset;
  for (const PageId id : order) {
    file_size += sf::NodeRecordBytes(tree.GetNodeNoCharge(id).Count(), words);
  }

  out->assign(file_size, 0);
  uint8_t* base = out->data();

  // Node index + records.
  uint64_t offset = nodes_offset;
  for (uint64_t i = 0; i < node_count; ++i) {
    const Node& node = tree.GetNodeNoCharge(order[i]);
    sf::StoreU64(base + sf::kHeaderSize + i * 8, offset);
    uint8_t* rec = base + offset;
    sf::StoreU16(rec, node.level);
    sf::StoreU16(rec + 2, static_cast<uint16_t>(node.Count()));
    // Bytes 4..7 stay zero (reserved).
    uint8_t* cursor = rec + 8;
    for (size_t e = 0; e < node.Count(); ++e) {
      const Entry& entry = node.EntryAt(e);
      if (entry.sig.num_bits() != num_bits) {
        return BuildFail(error, "entry signature width mismatch in tree");
      }
      const uint64_t ref = node.IsLeaf()
                               ? entry.ref
                               : index_of.at(static_cast<PageId>(entry.ref));
      sf::StoreU64(cursor, ref);
      cursor += 8;
      const std::span<const uint64_t> sig_words = entry.sig.words();
      for (uint64_t w = 0; w < words; ++w) {
        sf::StoreU64(cursor, sig_words[w]);
        cursor += 8;
      }
    }
    offset += sf::NodeRecordBytes(node.Count(), words);
  }

  // Header, then its two checksums (body first: the header CRC covers the
  // stored body CRC).
  const auto [area_lo, area_hi] = tree.TransactionAreaBounds();
  std::memcpy(base + sf::kMagicOffset, sf::kMagic, sizeof(sf::kMagic));
  sf::StoreU32(base + sf::kVersionOffset, sf::kVersion);
  sf::StoreU32(base + sf::kFlagsOffset, 0);
  sf::StoreU32(base + sf::kNumBitsOffset, num_bits);
  sf::StoreU32(base + sf::kMaxEntriesOffset, max_entries);
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
  if (error != nullptr) error->clear();
  return true;
}

bool BuildStaticTree(const SgTree& tree, const std::string& path,
                     std::string* error) {
  std::vector<uint8_t> image;
  if (!BuildStaticImage(tree, &image, error)) return false;
  return AtomicWriteFile(Env::Posix(), path, image, error);
}

std::unique_ptr<SgTree> ThawStatic(const StaticTreeView& view) {
  auto tree = std::make_unique<SgTree>(view.options());
  for (uint64_t i = 0; i < view.node_count(); ++i) {
    const auto id = static_cast<PageId>(i);
    const StaticNodeView record = view.GetNodeNoCharge(id);
    Node* node = tree->AdoptNode(id, record.level());
    node->entries.reserve(record.Count());
    for (uint32_t e = 0; e < record.Count(); ++e) {
      const StaticEntry entry = record.EntryAt(e);
      node->entries.push_back(Entry{entry.sig.ToSignature(), entry.ref});
    }
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
