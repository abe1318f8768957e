#include "sgtree/join.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/check.h"
#include "common/distance.h"
#include "common/signature_ops.h"

namespace sgtree {
namespace {

// Joins traverse two trees at once: per-tree node reads and buffer traffic
// are charged to that tree's own context, while the pair-level counters
// (comparisons, pruning decisions, results) go to one primary sink — the
// first context that has somewhere to put them. When both contexts share
// one trace, the totals are identical to charging everything into it
// directly.
QueryContext PrimarySink(const QueryContext& ctx_a,
                         const QueryContext& ctx_b) {
  QueryContext primary;
  primary.trace = ctx_a.trace != nullptr ? ctx_a.trace : ctx_b.trace;
  return primary;
}

bool PairLess(const JoinPair& x, const JoinPair& y) {
  if (x.distance != y.distance) return x.distance < y.distance;
  if (x.tid_a != y.tid_a) return x.tid_a < y.tid_a;
  return x.tid_b < y.tid_b;
}

// Containment pairs carry their distance in (tid_a, tid_b), so id order is
// the natural canonical order there.
bool IdPairLess(const JoinPair& x, const JoinPair& y) {
  if (x.tid_a != y.tid_a) return x.tid_a < y.tid_a;
  return x.tid_b < y.tid_b;
}

class VectorSink : public JoinSink {
 public:
  explicit VectorSink(std::vector<JoinPair>* out) : out_(out) {}
  bool OnPair(const JoinPair& pair) override {
    out_->push_back(pair);
    return true;
  }

 private:
  std::vector<JoinPair>* out_;
};

}  // namespace

double PairMinDist(SignatureView a, bool leaf_a, SignatureView b,
                   bool leaf_b, Metric metric,
                   uint32_t fixed_dimensionality) {
  if (leaf_a && leaf_b) return DistanceOf(a, b, metric);
  if (leaf_a) return MinDistBound(a, b, metric, fixed_dimensionality);
  if (leaf_b) return MinDistBound(b, a, metric, fixed_dimensionality);

  // Both covering signatures: transactions on either side may be any
  // non-empty subsets, so only the shared-item count c = |a AND b| helps.
  const uint32_t c = sig::IntersectCount(a, b);
  const uint32_t d = fixed_dimensionality;
  switch (metric) {
    case Metric::kHamming:
      if (d > 0) return 2.0 * (d - std::min(c, d));
      return c == 0 ? 2.0 : 0.0;  // Disjoint non-empty sets differ in >= 2.
    case Metric::kJaccard:
    case Metric::kDice:
    case Metric::kCosine:
      // With |ta| = |tb| = d, all three similarities are at most
      // min(c, d) / d; without fixed sizes, only disjointness prunes.
      if (d > 0) return 1.0 - static_cast<double>(std::min(c, d)) / d;
      return c == 0 ? 1.0 : 0.0;
  }
  return 0.0;
}

namespace {

struct JoinContext {
  const SgTree* tree_a;
  const SgTree* tree_b;
  QueryContext ctx_a;
  QueryContext ctx_b;
  Metric metric;
  uint32_t fixed_dim;
  double epsilon;
  JoinSink* sink;
  QueryContext primary;  // Pair-level counter sink (pool unused).
  bool cancelled = false;
};

void JoinNodes(JoinContext& ctx, PageId id_a, PageId id_b) {
  const NodeView na = ctx.tree_a->GetNode(id_a, ctx.ctx_a);
  const NodeView nb = ctx.tree_b->GetNode(id_b, ctx.ctx_b);
  ctx.ctx_a.CountNode(na.IsLeaf());
  ctx.ctx_b.CountNode(nb.IsLeaf());

  if (na.IsLeaf() && nb.IsLeaf()) {
    for (const EntryView ea : na) {
      for (const EntryView eb : nb) {
        ctx.primary.CountVerified(1);
        const double d = DistanceOf(ea.sig, eb.sig, ctx.metric);
        if (d <= ctx.epsilon) {
          ctx.primary.CountResults(1);
          if (!ctx.sink->OnPair({ea.ref, eb.ref, d})) {
            ctx.cancelled = true;
            return;
          }
        } else {
          ctx.primary.CountFalseDrops(1);
        }
      }
    }
    return;
  }

  if (!na.IsLeaf() && !nb.IsLeaf()) {
    for (const EntryView ea : na) {
      for (const EntryView eb : nb) {
        const double bound = PairMinDist(ea.sig, false, eb.sig, false,
                                         ctx.metric, ctx.fixed_dim);
        ctx.primary.CountBounds(1);
        if (bound <= ctx.epsilon) {
          ctx.primary.CountDescended(1);
          JoinNodes(ctx, static_cast<PageId>(ea.ref),
                    static_cast<PageId>(eb.ref));
          if (ctx.cancelled) return;
        } else {
          ctx.primary.CountPruned(1);
        }
      }
    }
    return;
  }

  // Mixed levels: keep the leaf side fixed, descend the directory side into
  // every child some leaf entry cannot rule out. Several signature pairs
  // feed one decision here, which is why the joins only promise
  // descended + pruned <= signatures_tested.
  const bool a_is_leaf = na.IsLeaf();
  const NodeView leaf = a_is_leaf ? na : nb;
  const NodeView dir = a_is_leaf ? nb : na;
  for (const EntryView ed : dir) {
    bool needed = false;
    for (const EntryView el : leaf) {
      const double bound = PairMinDist(el.sig, true, ed.sig, false,
                                       ctx.metric, ctx.fixed_dim);
      ctx.primary.CountBounds(1);
      if (bound <= ctx.epsilon) {
        needed = true;
        break;
      }
    }
    if (!needed) {
      ctx.primary.CountPruned(1);
      continue;
    }
    ctx.primary.CountDescended(1);
    if (a_is_leaf) {
      JoinNodes(ctx, id_a, static_cast<PageId>(ed.ref));
    } else {
      JoinNodes(ctx, static_cast<PageId>(ed.ref), id_b);
    }
    if (ctx.cancelled) return;
  }
}

// R ⋈⊆ S traversal. The R (a) side is descended unconditionally — a
// covering signature admits no subset prune, since any subset of it
// (including the empty set) may live below — so the only real pruning
// happens on the S (b) side once the R side reaches a leaf: an S directory
// child whose covering signature does not contain some R leaf signature
// cannot hold a superset of it. Unconditional descents still charge one
// tested signature each so descended + pruned <= signatures_tested holds.
void ContainJoinNodes(JoinContext& ctx, PageId id_a, PageId id_b) {
  const NodeView na = ctx.tree_a->GetNode(id_a, ctx.ctx_a);

  if (!na.IsLeaf()) {
    ctx.ctx_a.CountNode(false);
    for (const EntryView ea : na) {
      ctx.primary.CountBounds(1);
      ctx.primary.CountDescended(1);
      ContainJoinNodes(ctx, static_cast<PageId>(ea.ref), id_b);
      if (ctx.cancelled) return;
    }
    return;
  }

  ctx.ctx_a.CountNode(true);
  const NodeView nb = ctx.tree_b->GetNode(id_b, ctx.ctx_b);
  ctx.ctx_b.CountNode(nb.IsLeaf());

  if (nb.IsLeaf()) {
    for (const EntryView ea : na) {
      for (const EntryView eb : nb) {
        ctx.primary.CountVerified(1);
        if (sig::Contains(eb.sig, ea.sig)) {
          ctx.primary.CountResults(1);
          const double gap = sig::AndNotCount(eb.sig, ea.sig);
          if (!ctx.sink->OnPair({ea.ref, eb.ref, gap})) {
            ctx.cancelled = true;
            return;
          }
        } else {
          ctx.primary.CountFalseDrops(1);
        }
      }
    }
    return;
  }

  for (const EntryView eb : nb) {
    bool needed = false;
    for (const EntryView ea : na) {
      ctx.primary.CountBounds(1);
      if (sig::Contains(eb.sig, ea.sig)) {
        needed = true;
        break;
      }
    }
    if (!needed) {
      ctx.primary.CountPruned(1);
      continue;
    }
    ctx.primary.CountDescended(1);
    // Re-entering with the same leaf `id_a` re-reads it from the pool; the
    // recursion stays in the leaf × node arm until `eb` bottoms out.
    ContainJoinNodes(ctx, id_a, static_cast<PageId>(eb.ref));
    if (ctx.cancelled) return;
  }
}

}  // namespace

bool SimilarityJoinInto(const SgTree& a, const SgTree& b, double epsilon,
                        const QueryContext& ctx_a, const QueryContext& ctx_b,
                        JoinSink* sink) {
  SGTREE_ASSERT(a.num_bits() == b.num_bits());
  if (a.root() == kInvalidPageId || b.root() == kInvalidPageId) return true;
  const uint32_t fixed_dim = a.options().fixed_dimensionality ==
                                     b.options().fixed_dimensionality
                                 ? a.options().fixed_dimensionality
                                 : 0;
  JoinContext ctx{&a,        &b,      ctx_a, ctx_b, a.options().metric,
                  fixed_dim, epsilon, sink,  PrimarySink(ctx_a, ctx_b)};
  JoinNodes(ctx, a.root(), b.root());
  return !ctx.cancelled;
}

std::vector<JoinPair> SimilarityJoin(const SgTree& a, const SgTree& b,
                                     double epsilon,
                                     const QueryContext& ctx_a,
                                     const QueryContext& ctx_b) {
  std::vector<JoinPair> result;
  VectorSink sink(&result);
  SimilarityJoinInto(a, b, epsilon, ctx_a, ctx_b, &sink);
  std::sort(result.begin(), result.end(), PairLess);
  return result;
}

bool ContainmentJoinInto(const SgTree& a, const SgTree& b,
                         const QueryContext& ctx_a, const QueryContext& ctx_b,
                         JoinSink* sink) {
  SGTREE_ASSERT(a.num_bits() == b.num_bits());
  if (a.root() == kInvalidPageId || b.root() == kInvalidPageId) return true;
  JoinContext ctx{&a,
                  &b,
                  ctx_a,
                  ctx_b,
                  a.options().metric,
                  0,
                  0.0,
                  sink,
                  PrimarySink(ctx_a, ctx_b)};
  ContainJoinNodes(ctx, a.root(), b.root());
  return !ctx.cancelled;
}

std::vector<JoinPair> ContainmentJoin(const SgTree& a, const SgTree& b,
                                      const QueryContext& ctx_a,
                                      const QueryContext& ctx_b) {
  std::vector<JoinPair> result;
  VectorSink sink(&result);
  ContainmentJoinInto(a, b, ctx_a, ctx_b, &sink);
  std::sort(result.begin(), result.end(), IdPairLess);
  return result;
}

std::vector<JoinPair> ClosestPairs(const SgTree& a, const SgTree& b,
                                   uint32_t k, const QueryContext& ctx_a,
                                   const QueryContext& ctx_b) {
  SGTREE_ASSERT(a.num_bits() == b.num_bits());
  std::vector<JoinPair> best;  // Max-heap under PairLess.
  if (a.root() == kInvalidPageId || b.root() == kInvalidPageId || k == 0) {
    return best;
  }
  const QueryContext primary = PrimarySink(ctx_a, ctx_b);
  const Metric metric = a.options().metric;
  const uint32_t fixed_dim = a.options().fixed_dimensionality ==
                                     b.options().fixed_dimensionality
                                 ? a.options().fixed_dimensionality
                                 : 0;

  auto tau = [&]() {
    return best.size() < k ? std::numeric_limits<double>::infinity()
                           : best.front().distance;
  };
  auto offer = [&](const JoinPair& pair) {
    if (best.size() < k) {
      best.push_back(pair);
      std::push_heap(best.begin(), best.end(), PairLess);
    } else if (PairLess(pair, best.front())) {
      std::pop_heap(best.begin(), best.end(), PairLess);
      best.back() = pair;
      std::push_heap(best.begin(), best.end(), PairLess);
    }
  };

  struct QueueItem {
    double bound;
    PageId node_a;
    PageId node_b;
  };
  auto cmp = [](const QueueItem& x, const QueueItem& y) {
    return x.bound > y.bound;
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, decltype(cmp)> queue(
      cmp);
  queue.push({0.0, a.root(), b.root()});
  bool at_root = true;  // The root pair is enqueued without a test.

  while (!queue.empty()) {
    const QueueItem item = queue.top();
    queue.pop();
    if (item.bound >= tau()) {
      // This pair and everything still queued was tested but never visited.
      primary.CountPruned(1 + queue.size());
      break;
    }
    if (at_root) {
      at_root = false;
    } else {
      primary.CountDescended(1);
    }
    const NodeView na = a.GetNode(item.node_a, ctx_a);
    const NodeView nb = b.GetNode(item.node_b, ctx_b);
    ctx_a.CountNode(na.IsLeaf());
    ctx_b.CountNode(nb.IsLeaf());

    if (na.IsLeaf() && nb.IsLeaf()) {
      primary.CountVerified(uint64_t{na.Count()} * nb.Count());
      for (const EntryView ea : na) {
        for (const EntryView eb : nb) {
          offer({ea.ref, eb.ref, DistanceOf(ea.sig, eb.sig, metric)});
        }
      }
      continue;
    }

    if (!na.IsLeaf() && !nb.IsLeaf()) {
      for (const EntryView ea : na) {
        for (const EntryView eb : nb) {
          const double bound =
              PairMinDist(ea.sig, false, eb.sig, false, metric, fixed_dim);
          primary.CountBounds(1);
          if (bound < tau()) {
            queue.push({bound, static_cast<PageId>(ea.ref),
                        static_cast<PageId>(eb.ref)});
          } else {
            primary.CountPruned(1);
          }
        }
      }
      continue;
    }

    const bool a_is_leaf = na.IsLeaf();
    const NodeView leaf = a_is_leaf ? na : nb;
    const NodeView dir = a_is_leaf ? nb : na;
    for (const EntryView ed : dir) {
      double min_bound = std::numeric_limits<double>::infinity();
      for (const EntryView el : leaf) {
        min_bound = std::min(
            min_bound,
            PairMinDist(el.sig, true, ed.sig, false, metric, fixed_dim));
      }
      primary.CountBounds(leaf.Count());
      if (min_bound < tau()) {
        if (a_is_leaf) {
          queue.push({min_bound, item.node_a, static_cast<PageId>(ed.ref)});
        } else {
          queue.push({min_bound, static_cast<PageId>(ed.ref), item.node_b});
        }
      } else {
        primary.CountPruned(1);
      }
    }
  }

  std::sort(best.begin(), best.end(), PairLess);
  primary.CountResults(best.size());
  return best;
}

}  // namespace sgtree

