// Ground truth computation and guarantee verification.
//
// Used by (a) the Scan baseline, (b) target resolution, (c) tests and the
// benchmark harness, which count how often Guarantees 1 and 2 hold and
// compute the paper's Delta_d accuracy metric (Section 5.3).

#ifndef FASTMATCH_CORE_VERIFY_H_
#define FASTMATCH_CORE_VERIFY_H_

#include <memory>
#include <vector>

#include "core/distance.h"
#include "core/histogram.h"
#include "core/histsim.h"
#include "core/params.h"
#include "storage/column_store.h"
#include "util/result.h"

namespace fastmatch {

/// \brief The candidate/group domain of one (z_attr, x_attrs) binding:
/// |VZ| candidates by the mixed-radix composite group of the x
/// attributes (Appendix A.1.3), with each factor's cardinality.
struct CountDomain {
  int num_candidates = 0;
  int num_groups = 0;
  std::vector<int> x_cards;
};

/// \brief Validates (z_attr, x_attrs) against `schema` and computes its
/// domain: the one bound every counting path (the exact scan and the
/// block reader) applies before allocating a |VZ| x |VX| CountMatrix.
/// InvalidArgument for an out-of-range attribute, no x attribute, a
/// candidate or group-factor cardinality over 2^24 (checked before any
/// narrowing to int), or a composite group cardinality over 2^24.
Result<CountDomain> ComputeCountDomain(const Schema& schema, int z_attr,
                                       const std::vector<int>& x_attrs);

/// \brief Exact per-candidate histograms from a full scan of one pinned
/// view (`schema` is its store's); composite grouping per Appendix
/// A.1.3 when several x-attributes are given. Rejects the binding
/// exactly as ComputeCountDomain does.
Result<CountMatrix> ComputeExactCounts(const Schema& schema,
                                       const StoreView& view, int z_attr,
                                       const std::vector<int>& x_attrs);

/// \brief ComputeExactCounts over one PinView() of `store`'s current
/// generation, so a concurrent append cannot tear the count.
Result<CountMatrix> ComputeExactCounts(const ColumnStore& store, int z_attr,
                                       const std::vector<int>& x_attrs);

/// \brief The exact answer to a query, from exact counts.
struct GroundTruth {
  /// Exact distance to the target per candidate (MaxDistance convention
  /// for empty candidates).
  std::vector<double> distances;
  /// Exact top-k among candidates with selectivity >= sigma, ascending
  /// distance (ties by id).
  std::vector<int> topk;
  /// Selectivity-eligible flag per candidate (N_i / N >= sigma).
  std::vector<bool> eligible;
  int64_t total_rows = 0;
};

/// \brief Ranks candidates exactly: the Scan baseline's logic.
GroundTruth ComputeGroundTruth(const CountMatrix& exact,
                               const Distribution& target, Metric metric,
                               double sigma, int k);

/// \brief Outcome of checking one approximate answer against the truth.
struct GuaranteeCheck {
  bool separation_ok = true;      // Guarantee 1
  bool reconstruction_ok = true;  // Guarantee 2
  double delta_d = 0;             // total relative error in visual distance
  /// Worst observed slack: max over non-output eligible candidates of
  /// (furthest output's true distance) - (their true distance); guarantee 1
  /// requires this < eps.
  double worst_separation = 0;
  /// Worst reconstruction error among outputs.
  double worst_reconstruction = 0;
  /// Every candidate that MatchResult::exact flags has a `counts` row
  /// equal to its true row: an exact flag is a fact about the relation,
  /// not a probabilistic claim, so this must hold on every answer.
  bool exact_ok = true;
};

/// \brief Verifies Guarantees 1 and 2 and computes Delta_d (paper 5.3):
///
///   Delta_d = (sum_{i in M} d(r_i, q) - sum_{j in M*} d(r*_j, q))
///             / sum_{j in M*} d(r*_j, q)
///
/// where M is the approximate output with *estimated* histograms and M*
/// is the exact top-k (Delta_d can therefore be negative). Also checks
/// every exact flag against `exact` (GuaranteeCheck::exact_ok).
GuaranteeCheck CheckGuarantees(const MatchResult& result,
                               const CountMatrix& exact,
                               const GroundTruth& truth,
                               const Distribution& target,
                               const HistSimParams& params);

}  // namespace fastmatch

#endif  // FASTMATCH_CORE_VERIFY_H_
