#include "common/distance.h"

namespace sgtree {

std::string MetricName(Metric metric) {
  switch (metric) {
    case Metric::kHamming:
      return "hamming";
    case Metric::kJaccard:
      return "jaccard";
    case Metric::kDice:
      return "dice";
    case Metric::kCosine:
      return "cosine";
  }
  return "unknown";
}

double Distance(const Signature& a, const Signature& b, Metric metric) {
  return DistanceOf(a, b, metric);
}

double MinDistBound(SignatureView query, SignatureView entry, Metric metric,
                    uint32_t fixed_dimensionality) {
  if (fixed_dimensionality == 0) {
    return MinDistBoundAreaStatsOf(query, entry, metric, 0,
                                   query.num_bits());
  }
  return MinDistBoundAreaStatsOf(query, entry, metric, fixed_dimensionality,
                                 fixed_dimensionality);
}

double MinDistBoundAreaStats(const Signature& query, const Signature& entry,
                             Metric metric, uint32_t min_area,
                             uint32_t max_area) {
  return MinDistBoundAreaStatsOf(query, entry, metric, min_area, max_area);
}

}  // namespace sgtree
