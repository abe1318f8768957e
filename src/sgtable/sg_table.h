#ifndef SGTREE_SGTABLE_SG_TABLE_H_
#define SGTREE_SGTABLE_SG_TABLE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "baseline/linear_scan.h"
#include "common/signature.h"
#include "data/transaction.h"
#include "sgtable/item_clustering.h"
#include "storage/page.h"
#include "storage/query_context.h"

namespace sgtree {

/// Build parameters of the signature table. Unlike the SG-tree these are
/// hardwired at construction time — the paper's central criticism of the
/// structure.
struct SgTableOptions {
  ItemClusteringOptions clustering;
  /// Activation threshold theta: a transaction activates a vertical
  /// signature V when |t AND V| >= theta.
  uint32_t activation_threshold = 2;
  /// Page size used to charge bucket reads as random I/Os.
  uint32_t page_size = kDefaultPageSize;
  /// Cap on transactions scanned when building the co-occurrence matrix
  /// (0 = scan everything).
  uint32_t cooccurrence_sample = 0;
};

/// The SG-table baseline (Aggarwal, Wolf & Yu, SIGMOD'99; Section 2.2.1 of
/// the paper): items are clustered into K "vertical signatures"; each
/// transaction is hashed to the bucket named by the K-bit code of which
/// signatures it activates. Nearest-neighbor search computes an optimistic
/// distance lower bound per occupied bucket, reads buckets in ascending
/// bound order and stops when the bound exceeds the best distance found.
///
/// Only Hamming distance is supported — the bucket bound is specific to it.
class SgTable {
 public:
  /// Builds the table from `dataset`: co-occurrence scan, item clustering,
  /// then hashing of every transaction.
  SgTable(const Dataset& dataset, const SgTableOptions& options);

  /// Hashes one new transaction into the table. Note the vertical
  /// signatures are NOT re-derived — exactly the staleness the paper's
  /// dynamic-update experiment (Figure 17) exercises.
  void Insert(const Transaction& txn);

  size_t size() const { return size_; }
  uint32_t num_bits() const { return num_bits_; }
  const std::vector<VerticalSignature>& vertical_signatures() const {
    return groups_;
  }
  size_t occupied_buckets() const { return buckets_.size(); }

  /// K-bit activation code of a transaction signature (bit i set iff it
  /// activates vertical signature i).
  uint64_t ActivationCode(const Signature& sig) const;

  /// Lower bound on the Hamming distance between `query` and any
  /// transaction hashed to bucket `code`.
  double BucketBound(const Signature& query, uint64_t code) const;

  // -- Queries (Hamming distance) --------------------------------------
  //
  // Every query fills the context's QueryTrace (buckets count as leaf
  // nodes; reading one charges its simulated pages as buffer misses — the
  // table models no buffer pool, so `ctx.pool` is ignored).

  Neighbor Nearest(const Signature& query,
                   const QueryContext& ctx = {}) const;
  std::vector<Neighbor> KNearest(const Signature& query, uint32_t k,
                                 const QueryContext& ctx = {}) const;
  std::vector<Neighbor> Range(const Signature& query, double epsilon,
                              const QueryContext& ctx = {}) const;

 private:
  struct Bucket {
    std::vector<Signature> signatures;
    std::vector<uint64_t> tids;
    size_t bytes = 0;  // Simulated on-disk size, for I/O accounting.
  };

  struct BoundedBucket {
    double bound;
    const Bucket* bucket;
  };

  /// Occupied buckets sorted by ascending BucketBound for `query`.
  std::vector<BoundedBucket> SortedBuckets(const Signature& query,
                                           const QueryContext& ctx) const;

  void ChargeBucketRead(const Bucket& bucket, const QueryContext& ctx) const;

  SgTableOptions options_;
  uint32_t num_bits_ = 0;
  size_t size_ = 0;
  std::vector<VerticalSignature> groups_;
  std::vector<Signature> group_bitmaps_;
  std::map<uint64_t, Bucket> buckets_;
};

}  // namespace sgtree

#endif  // SGTREE_SGTABLE_SG_TABLE_H_
