#include "join/tree_join.h"

#include <string>

#include "common/distance.h"
#include "storage/buffer_pool.h"

namespace sgtree {

TreeJoinBackend::TreeJoinBackend(const SgTree& r, const SgTree& s,
                                 uint32_t buffer_pages)
    : r_(&r), s_(&s), buffer_pages_(buffer_pages) {}

std::string TreeJoinBackend::SupportReason(const JoinRequest& request) const {
  if (r_->num_bits() != s_->num_bits()) {
    return "tree join requires both trees to share signature width, got " +
           std::to_string(r_->num_bits()) + " vs " +
           std::to_string(s_->num_bits());
  }
  if (request.type == JoinType::kSimilarity &&
      request.metric != r_->options().metric) {
    // The traversal prunes with the bounds the tree was built for; a
    // different request metric would silently answer the wrong join.
    return "tree join runs the trees' build-time metric (" +
           MetricName(r_->options().metric) + "), got " +
           MetricName(request.metric);
  }
  return std::string();
}

bool TreeJoinBackend::Run(const JoinRequest& request, const QueryContext& ctx,
                          JoinSink* sink) const {
  BufferPool pool_r(buffer_pages_);
  BufferPool pool_s(buffer_pages_);
  const QueryContext ctx_r{&pool_r, ctx.trace};
  const QueryContext ctx_s{&pool_s, ctx.trace};
  if (request.type == JoinType::kContainment) {
    return ContainmentJoinInto(*r_, *s_, ctx_r, ctx_s, sink);
  }
  return SimilarityJoinInto(*r_, *s_, JoinDistanceBound(request), ctx_r,
                            ctx_s, sink);
}

}  // namespace sgtree
