#ifndef SGTREE_COMMON_DISTANCE_H_
#define SGTREE_COMMON_DISTANCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/signature.h"
#include "common/signature_ops.h"

namespace sgtree {

/// Set-theoretic similarity metrics supported by the SG-tree search
/// algorithms. Hamming is the paper's primary metric; Jaccard and Dice are
/// the Section 6 (future work) extensions.
enum class Metric {
  kHamming,  // |q XOR t| = |q \ t| + |t \ q|
  kJaccard,  // 1 - |q AND t| / |q OR t|
  kDice,     // 1 - 2 |q AND t| / (|q| + |t|)
  kCosine,   // 1 - |q AND t| / sqrt(|q| * |t|)
};

std::string MetricName(Metric metric);

/// Exact distance between two data signatures under `metric`.
/// Hamming distances are integral; Jaccard/Dice are in [0, 1]. The distance
/// between two empty sets is 0 under every metric.
double Distance(const Signature& a, const Signature& b, Metric metric);

/// Lower bound on Distance(q, t) for every transaction t indexed below a
/// directory entry with signature `entry`, exploiting the coverage property
/// (t's signature is contained in `entry`).
///
/// Hamming: every item of q missing from `entry` is missing from every t
/// below it, so mindist = |q AND NOT entry|.
///
/// Jaccard: |q AND t| <= c := |q AND entry| and |q OR t| >= |q|, so
/// similarity <= c / |q| and mindist = 1 - c / |q| (0 for an empty q).
///
/// Dice: |q AND t| <= c and |t| >= |q AND t|, giving
/// mindist = 1 - 2c / (|q| + c) (the maximizing t is the c shared items).
///
/// Cosine: similarity c' / sqrt(|q| |t|) with c' <= c and |t| >= c' is
/// maximized at t = the c shared items, giving mindist = 1 - sqrt(c / |q|).
///
/// `fixed_dimensionality` (Section 6 optimization): when every indexed
/// transaction has exactly d items (categorical data with d attributes),
/// Hamming distance is |q| + d - 2 |q AND t| >= |q| + d - 2 |q AND entry|,
/// a strictly tighter bound than the generic one. Pass d, or 0 when the
/// collection does not have fixed-size transactions.
///
/// Takes views, so an owning Signature and a signature read in place from
/// a node record both bind.
double MinDistBound(SignatureView query, SignatureView entry, Metric metric,
                    uint32_t fixed_dimensionality = 0);

/// Generalization of the Section 6 optimization from fixed dimensionality
/// to arbitrary *transaction-size statistics*: when every transaction below
/// the entry is known to have between `min_area` and `max_area` items, the
/// bound tightens whenever the query's overlap with the entry falls outside
/// that window. With min_area == max_area == d this is exactly the paper's
/// fixed-dimensionality bound; with (0, num_bits) it reduces to the generic
/// one.
///
/// Hamming derivation: dist = |q| + s - 2m with s = |t| in [min_area,
/// max_area] and m = |q AND t| <= min(c, s), c = |q AND entry|. Minimizing
/// over (s, m) gives
///   c <  min_area: |q| + min_area - 2c
///   c >  max_area: |q| - max_area
///   otherwise:     |q| - c          (the generic bound)
/// The similarity metrics tighten analogously (see the implementation).
double MinDistBoundAreaStats(const Signature& query, const Signature& entry,
                             Metric metric, uint32_t min_area,
                             uint32_t max_area);

// ---------------------------------------------------------------------------
// Implementation templates, generic over signature-like types (Signature or
// the zero-copy SignatureView of the static mmap'ed tree). These ARE the
// implementation: the Signature overloads above delegate here, so both the
// dynamic and the static search path execute the same floating-point
// expressions on the same integer inputs — which is what makes static-tree
// answers byte-identical to dynamic-tree answers, IEEE rounding included.
// ---------------------------------------------------------------------------

/// Generic form of Distance(); see that declaration for the semantics. The
/// set metrics get |a AND b| and |b| from one pass over the words and read
/// |a OR b| as |a| + |b| - |a AND b|: the same integers as counting it
/// directly, so the same doubles come out.
template <typename A, typename B>
double DistanceOf(const A& a, const B& b, Metric metric) {
  switch (metric) {
    case Metric::kHamming:
      return static_cast<double>(sig::XorCount(a, b));
    case Metric::kJaccard: {
      const auto [inter, b_area] = sig::IntersectAndArea(a, b);
      const uint32_t uni = sig::Area(a) + b_area - inter;
      if (uni == 0) return 0.0;  // Both empty: identical sets.
      return 1.0 - static_cast<double>(inter) / uni;
    }
    case Metric::kDice: {
      const auto [inter, b_area] = sig::IntersectAndArea(a, b);
      const uint32_t total = sig::Area(a) + b_area;
      if (total == 0) return 0.0;
      return 1.0 - 2.0 * inter / total;
    }
    case Metric::kCosine: {
      const auto [inter, b_area] = sig::IntersectAndArea(a, b);
      const uint32_t a_area = sig::Area(a);
      if (a_area == 0 && b_area == 0) return 0.0;
      if (a_area == 0 || b_area == 0) return 1.0;
      return 1.0 - inter / std::sqrt(static_cast<double>(a_area) * b_area);
    }
  }
  return 0.0;
}

/// Generic form of MinDistBoundAreaStats(); see that declaration and the
/// header comment above for the per-metric derivations.
template <typename Q, typename E>
double MinDistBoundAreaStatsOf(const Q& query, const E& entry, Metric metric,
                               uint32_t min_area, uint32_t max_area) {
  // c = |q AND entry| and |q| from one pass over the words.
  const auto [c, q_area] = sig::IntersectAndArea(entry, query);
  // Maximum achievable overlap given that |t| <= max_area.
  const uint32_t cc = std::min(c, max_area);

  switch (metric) {
    case Metric::kHamming: {
      // dist = |q| + |t| - 2 |q AND t|, minimized over |t| in [min, max]
      // and |q AND t| <= min(c, |t|); see the header for the derivation.
      int64_t bound;
      if (c < min_area) {
        bound = static_cast<int64_t>(q_area) + min_area - 2 * int64_t{c};
      } else if (c > max_area) {
        bound = static_cast<int64_t>(q_area) - max_area;
      } else {
        bound = static_cast<int64_t>(q_area) - c;  // Generic bound.
      }
      return static_cast<double>(std::max<int64_t>(bound, 0));
    }
    case Metric::kJaccard: {
      if (q_area == 0) return 0.0;  // An empty transaction below could tie.
      // similarity = |q AND t| / |q OR t| with |q OR t| = |q| + |t| -
      // |q AND t| >= |q| + max(min_area, cc) - cc.
      const double denom = q_area + (min_area > cc ? min_area - cc : 0u);
      return 1.0 - cc / denom;
    }
    case Metric::kDice: {
      if (q_area == 0) return 0.0;
      // similarity = 2 |q AND t| / (|q| + |t|), |t| >= max(min_area, cc).
      return 1.0 - 2.0 * cc / (q_area + std::max(min_area, cc));
    }
    case Metric::kCosine: {
      if (q_area == 0) return 0.0;
      if (cc == 0) return 1.0;
      // similarity = |q AND t| / sqrt(|q| |t|), |t| >= max(min_area, cc).
      return 1.0 - cc / std::sqrt(static_cast<double>(q_area) *
                                  std::max(min_area, cc));
    }
  }
  return 0.0;
}

}  // namespace sgtree

#endif  // SGTREE_COMMON_DISTANCE_H_
