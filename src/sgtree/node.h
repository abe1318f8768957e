#ifndef SGTREE_SGTREE_NODE_H_
#define SGTREE_SGTREE_NODE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/bit_ops.h"
#include "common/signature.h"

namespace sgtree {

// One SG-tree node is one page of (signature, ref) entries (Section 3),
// stored as one record of 64-bit words. The static image
// (static/static_format.h) stores the records in a file, and a tree reads
// each record either in its heap or in place in an image it holds:
//
//   word 0:  u16 level (0 = leaf) | u16 count << 16 | u32 reserved (0)
//   then `count` entries of: u64 ref, then WordsForBits(W) signature words
//
// A leaf entry's ref is a transaction id. A directory entry's ref is the
// child's PageId (in the image, its node index), and its signature is the
// OR of every signature in the child (coverage, Definition 5).

/// Words of the record header.
inline constexpr uint64_t kNodeHeaderWords = 1;

/// The largest node capacity M: an overflowing node holds M+1 entries
/// before it splits, and the header counts them in 16 bits.
inline constexpr uint32_t kMaxNodeEntries = 0xffff - 1;

/// Words of one entry (the entry stride): the ref plus `sig_words`
/// signature words.
constexpr uint64_t NodeEntryWords(uint64_t sig_words) { return 1 + sig_words; }

/// Words of one record holding `count` entries.
constexpr uint64_t NodeRecordWords(uint64_t count, uint64_t sig_words) {
  return kNodeHeaderWords + count * NodeEntryWords(sig_words);
}

/// An entry in flight, owned outside any node: the signature being
/// inserted, an orphan waiting to be reinserted, or bulk-load input.
struct Entry {
  Signature sig;
  uint64_t ref = 0;
};

/// One entry of a record, viewed in place: the signature words are read
/// straight out of the record (zero copy).
struct EntryView {
  SignatureView sig;
  uint64_t ref = 0;
};

/// A node record, viewed in place. It is the only node type: SgTree hands
/// it out, so the searches, the auditor and the image builder read every
/// node through it. Cheap to copy (pointer + width); the record must
/// outlive the view.
class NodeView {
 public:
  NodeView(const uint64_t* record, uint32_t num_bits)
      : record_(record), num_bits_(num_bits) {}

  uint16_t level() const {
    return static_cast<uint16_t>(record_[0] & 0xffff);
  }
  bool IsLeaf() const { return level() == 0; }
  uint32_t Count() const {
    return static_cast<uint32_t>((record_[0] >> 16) & 0xffff);
  }
  uint32_t num_bits() const { return num_bits_; }

  EntryView EntryAt(size_t i) const {
    const uint64_t* entry = EntryWords(i);
    return {SignatureView(num_bits_, entry + 1), entry[0]};
  }

  /// Entries in record order, for range-for.
  class Iterator {
   public:
    Iterator(const NodeView* node, size_t i) : node_(node), i_(i) {}
    EntryView operator*() const { return node_->EntryAt(i_); }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return i_ != other.i_; }

   private:
    const NodeView* node_;
    size_t i_;
  };
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, Count()}; }

  /// The record's words: the header and Count() entries.
  std::span<const uint64_t> words() const {
    return {record_, NodeRecordWords(Count(), WordsForBits(num_bits_))};
  }

  /// OR of every entry's signature: what the parent entry must carry.
  Signature Cover() const {
    Signature cover(num_bits_);
    OrEntriesInto(cover.mutable_words().data());
    return cover;
  }

  /// ORs every entry's signature into `words` (WordsForBits(num_bits())
  /// words).
  void OrEntriesInto(uint64_t* words) const {
    const uint32_t sig_words = WordsForBits(num_bits_);
    for (uint32_t e = 0; e < Count(); ++e) {
      const uint64_t* sig = EntryWords(e) + 1;
      for (uint32_t w = 0; w < sig_words; ++w) words[w] |= sig[w];
    }
  }

 protected:
  /// Offset of entry i from the start of the record.
  size_t EntryOffset(size_t i) const {
    return kNodeHeaderWords + i * NodeEntryWords(WordsForBits(num_bits_));
  }
  const uint64_t* EntryWords(size_t i) const {
    return record_ + EntryOffset(i);
  }

 private:
  const uint64_t* record_;  // Aligned start of the record.
  uint32_t num_bits_;
};

/// A node record edited in place. The record's owner provides the
/// capacity: SgTree reserves every heap record for max_entries + 1
/// entries, so an overflowing insert appends before the node splits.
class MutableNodeView : public NodeView {
 public:
  MutableNodeView(uint64_t* record, uint32_t num_bits)
      : NodeView(record, num_bits), mutable_record_(record) {}

  /// Empties the record and sets its level.
  void Reset(uint16_t level) { mutable_record_[0] = level; }

  /// Appends an entry with the given signature words.
  void Append(std::span<const uint64_t> sig_words, uint64_t ref) {
    uint64_t* entry = MutableEntryWords(Count());
    entry[0] = ref;
    std::copy(sig_words.begin(), sig_words.end(), entry + 1);
    SetCount(Count() + 1);
  }

  /// Appends an entry for child `ref` carrying the OR of `child`'s entries.
  void AppendCover(const NodeView& child, uint64_t ref) {
    uint64_t* entry = MutableEntryWords(Count());
    entry[0] = ref;
    std::fill_n(entry + 1, WordsForBits(num_bits()), 0);
    child.OrEntriesInto(entry + 1);
    SetCount(Count() + 1);
  }

  /// Sets entry i's signature to the OR of `child`'s entries.
  void SetCover(size_t i, const NodeView& child) {
    uint64_t* sig = MutableSigWords(i);
    std::fill_n(sig, WordsForBits(num_bits()), 0);
    child.OrEntriesInto(sig);
  }

  /// ORs `sig_words` into entry i's signature.
  void UnionInto(size_t i, std::span<const uint64_t> sig_words) {
    uint64_t* sig = MutableSigWords(i);
    for (size_t w = 0; w < sig_words.size(); ++w) sig[w] |= sig_words[w];
  }

  /// Removes entry i and shifts the later entries down, keeping the order.
  void Erase(size_t i) {
    const uint64_t* end = EntryWords(Count());
    std::copy(EntryWords(i + 1), end, MutableEntryWords(i));
    SetCount(Count() - 1);
  }

  uint64_t* MutableSigWords(size_t i) { return MutableEntryWords(i) + 1; }
  void SetRef(size_t i, uint64_t ref) { MutableEntryWords(i)[0] = ref; }

 private:
  uint64_t* MutableEntryWords(size_t i) {
    return mutable_record_ + EntryOffset(i);
  }
  void SetCount(uint32_t count) {
    mutable_record_[0] = (mutable_record_[0] & ~uint64_t{0xffff0000}) |
                         (uint64_t{count} << 16);
  }

  uint64_t* mutable_record_;
};

}  // namespace sgtree

#endif  // SGTREE_SGTREE_NODE_H_
