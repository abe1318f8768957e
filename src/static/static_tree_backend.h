#ifndef SGTREE_STATIC_STATIC_TREE_BACKEND_H_
#define SGTREE_STATIC_STATIC_TREE_BACKEND_H_

#include "exec/query_api.h"
#include "sgtree/search_core.h"
#include "static/static_tree_view.h"

namespace sgtree {

/// IndexBackend over an immutable static SG-tree image — the fifth backend
/// (the mutable four live in exec/index_backend.h; this one sits here so
/// sg_exec does not depend on the static format). Answers all six query
/// types through the same templated search cores the dynamic tree
/// instantiates, so its results — values and trace — are
/// byte-identical to SgTreeBackend over the equivalent dynamic tree.
/// Non-owning and trivially copyable, like the other adapters; `shared_
/// bound` attaches the cross-partition k-NN pruning bound and affects only
/// kKnn / kBestFirstKnn.
class StaticTreeBackend : public IndexBackend {
 public:
  explicit StaticTreeBackend(const StaticTreeView& view,
                             SharedPruneBound* shared_bound = nullptr)
      : view_(&view), shared_bound_(shared_bound) {}

  const char* name() const override { return "static"; }
  std::string SupportReason(QueryType /*type*/) const override {
    return std::string();  // All six query types.
  }
  std::string JoinInputReason() const override {
    return "static images serve point queries only; joins walk mutable "
           "trees — thaw the image (LoadTree) or open the durable form to "
           "join";
  }
  void Run(const QueryRequest& request, const QueryContext& ctx,
           QueryResult* result) const override;

  const StaticTreeView& view() const { return *view_; }

 private:
  const StaticTreeView* view_;
  SharedPruneBound* shared_bound_;
};

}  // namespace sgtree

#endif  // SGTREE_STATIC_STATIC_TREE_BACKEND_H_
