#include "core/verify.h"

#include <algorithm>
#include <limits>
#include <cmath>

#include "util/logging.h"

namespace fastmatch {

namespace {

/// Typed inner loop: candidate codes ZT, single-group codes via a
/// precomputed per-row group id would cost memory, so composite groups are
/// computed inline (the common case is a single x attribute).
template <typename ZT>
void AccumulateExact(const ColumnStore& store, int z_attr,
                     const std::vector<int>& x_attrs,
                     const std::vector<int>& x_cards, CountMatrix* out) {
  const Column& z_col = store.column(z_attr);
  const StorePin pin = store.Pin();
  if (x_attrs.size() == 1) {
    const Column& x_col = store.column(x_attrs[0]);
    for (BlockId b = 0; b < pin.num_blocks; ++b) {
      RowId begin, end;
      pin.BlockRowRange(b, &begin, &end);
      const ZT* z_data = z_col.chunk_data<ZT>(b);
      for (RowId r = begin; r < end; ++r) {
        out->Add(static_cast<int>(z_data[r - begin]),
                 static_cast<int>(x_col.Get(r)));
      }
    }
    return;
  }
  for (BlockId b = 0; b < pin.num_blocks; ++b) {
    RowId begin, end;
    pin.BlockRowRange(b, &begin, &end);
    const ZT* z_data = z_col.chunk_data<ZT>(b);
    for (RowId r = begin; r < end; ++r) {
      int g = 0;
      for (size_t i = 0; i < x_attrs.size(); ++i) {
        g = g * x_cards[i] + static_cast<int>(store.column(x_attrs[i]).Get(r));
      }
      out->Add(static_cast<int>(z_data[r - begin]), g);
    }
  }
}

}  // namespace

Result<CountDomain> ComputeCountDomain(const Schema& schema, int z_attr,
                                       const std::vector<int>& x_attrs) {
  constexpr uint32_t kMaxCells = 1u << 24;
  const int num_attrs = schema.num_attributes();
  if (z_attr < 0 || z_attr >= num_attrs) {
    return Status::InvalidArgument("z_attr out of range");
  }
  if (x_attrs.empty()) {
    return Status::InvalidArgument("at least one x attribute required");
  }
  if (schema.attribute(z_attr).cardinality > kMaxCells) {
    return Status::InvalidArgument("candidate cardinality too large");
  }
  CountDomain domain;
  domain.num_candidates =
      static_cast<int>(schema.attribute(z_attr).cardinality);
  int64_t groups = 1;
  for (int a : x_attrs) {
    if (a < 0 || a >= num_attrs) {
      return Status::InvalidArgument("x_attr out of range");
    }
    // Bound each factor before narrowing it: a u32 cardinality cast to
    // int could wrap negative and slip through the product check.
    if (schema.attribute(a).cardinality > kMaxCells) {
      return Status::InvalidArgument("composite group cardinality too large");
    }
    const int card = static_cast<int>(schema.attribute(a).cardinality);
    domain.x_cards.push_back(card);
    groups *= card;
    if (groups > kMaxCells) {
      return Status::InvalidArgument("composite group cardinality too large");
    }
  }
  domain.num_groups = static_cast<int>(groups);
  return domain;
}

Result<CountMatrix> ComputeExactCounts(const ColumnStore& store, int z_attr,
                                       const std::vector<int>& x_attrs) {
  FASTMATCH_ASSIGN_OR_RETURN(
      CountDomain domain, ComputeCountDomain(store.schema(), z_attr, x_attrs));
  CountMatrix out(domain.num_candidates, domain.num_groups);
  switch (store.schema().attribute(z_attr).type()) {
    case ValueType::kU8:
      AccumulateExact<uint8_t>(store, z_attr, x_attrs, domain.x_cards, &out);
      break;
    case ValueType::kU16:
      AccumulateExact<uint16_t>(store, z_attr, x_attrs, domain.x_cards, &out);
      break;
    case ValueType::kU32:
      AccumulateExact<uint32_t>(store, z_attr, x_attrs, domain.x_cards, &out);
      break;
  }
  return out;
}

GroundTruth ComputeGroundTruth(const CountMatrix& exact,
                               const Distribution& target, Metric metric,
                               double sigma, int k) {
  GroundTruth truth;
  const int vz = exact.num_candidates();
  truth.distances.resize(vz);
  truth.eligible.resize(vz);
  int64_t total = 0;
  for (int i = 0; i < vz; ++i) total += exact.RowTotal(i);
  truth.total_rows = total;

  std::vector<int> eligible_ids;
  for (int i = 0; i < vz; ++i) {
    truth.distances[i] =
        HistDistance(metric, exact.NormalizedRow(i), target);
    const bool ok =
        static_cast<double>(exact.RowTotal(i)) >=
        sigma * static_cast<double>(total);
    truth.eligible[i] = ok;
    if (ok) eligible_ids.push_back(i);
  }
  std::sort(eligible_ids.begin(), eligible_ids.end(), [&](int a, int b) {
    return truth.distances[a] < truth.distances[b] ||
           (truth.distances[a] == truth.distances[b] && a < b);
  });
  const size_t kk = std::min<size_t>(static_cast<size_t>(k),
                                     eligible_ids.size());
  truth.topk.assign(eligible_ids.begin(), eligible_ids.begin() + kk);
  return truth;
}

GuaranteeCheck CheckGuarantees(const MatchResult& result,
                               const CountMatrix& exact,
                               const GroundTruth& truth,
                               const Distribution& target,
                               const HistSimParams& params) {
  GuaranteeCheck check;
  const double eps_sep = params.SeparationEps();
  const double eps_rec = params.ReconstructionEps();

  std::vector<bool> in_output(truth.distances.size(), false);
  for (int i : result.topk) in_output[i] = true;

  // ------------------------------------------------------- Guarantee 1
  // Furthest output, by *true* distance.
  double furthest_output = 0;
  for (int i : result.topk) {
    furthest_output = std::max(furthest_output, truth.distances[i]);
  }
  // Every eligible non-output candidate must be less than eps closer to
  // the target than the furthest output.
  check.worst_separation = 0;
  for (size_t i = 0; i < truth.distances.size(); ++i) {
    if (in_output[i] || !truth.eligible[i]) continue;
    const double slack = furthest_output - truth.distances[i];
    check.worst_separation = std::max(check.worst_separation, slack);
  }
  check.separation_ok = check.worst_separation < eps_sep;

  // ------------------------------------------------------- Guarantee 2
  check.worst_reconstruction = 0;
  for (int i : result.topk) {
    const Distribution est = result.counts.NormalizedRow(i);
    const Distribution tru = exact.NormalizedRow(i);
    double err;
    if (est.empty() && tru.empty()) {
      err = 0;  // both undefined: a candidate with zero tuples
    } else {
      err = HistDistance(params.metric, est, tru);
    }
    check.worst_reconstruction = std::max(check.worst_reconstruction, err);
  }
  check.reconstruction_ok = check.worst_reconstruction < eps_rec;

  // --------------------------------------------------------- Exactness
  for (size_t i = 0; i < result.exact.size() && check.exact_ok; ++i) {
    if (!result.exact[i]) continue;
    const int c = static_cast<int>(i);
    check.exact_ok = c < result.counts.num_candidates() &&
                     c < exact.num_candidates() &&
                     std::ranges::equal(result.counts.Row(c), exact.Row(c));
  }

  // ----------------------------------------------------------- Delta_d
  double est_sum = 0;
  for (int i : result.topk) {
    est_sum += HistDistance(params.metric, result.counts.NormalizedRow(i),
                            target);
  }
  double true_sum = 0;
  for (int j : truth.topk) true_sum += truth.distances[j];
  if (true_sum > 0) {
    check.delta_d = (est_sum - true_sum) / true_sum;
  } else {
    check.delta_d = est_sum > 0 ? std::numeric_limits<double>::infinity() : 0;
  }
  return check;
}

}  // namespace fastmatch
