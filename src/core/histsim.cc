#include "core/histsim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "stats/deviation.h"
#include "stats/hypergeometric.h"
#include "stats/multiple_testing.h"
#include "util/logging.h"

namespace fastmatch {

namespace {

constexpr double kLog2 = 0.6931471805599453;

/// Multiplies a sample count by a slack factor without overflowing past
/// the deviation formulas' saturation sentinel.
int64_t SaturatingScale(int64_t n, int64_t factor) {
  return n > kSampleCountSaturated / factor ? kSampleCountSaturated
                                            : n * factor;
}

}  // namespace

HistSimMachine::HistSimMachine(HistSimParams params, Distribution target)
    : params_(std::move(params)), target_(std::move(target)) {}

void HistSimMachine::RefreshTau(int i) {
  Distribution d = total_.NormalizedRow(i);
  tau_[i] = HistDistance(params_.metric, d, target_);
}

void HistSimMachine::MarkExact(int i) {
  if (exact_[i]) return;
  if (prior_counts_.num_candidates() == vz_) {
    // The caller's exhaustion proves ITS window's counts exact, and an
    // overlapping prior may double-count rows of that window: remove
    // the prior's row so the exact claim covers exactly the caller's
    // window (the same semantics a cold query has).
    int64_t* row =
        total_.MutableData() + static_cast<size_t>(i) * total_.num_groups();
    const auto prior_row = prior_counts_.Row(i);
    int64_t removed = 0;
    for (int g = 0; g < total_.num_groups(); ++g) {
      row[g] -= prior_row[static_cast<size_t>(g)];
      removed += prior_row[static_cast<size_t>(g)];
    }
    total_.MutableRowTotals()[i] -= removed;
    RefreshTau(i);
  }
  exact_[i] = true;
}

Status HistSimMachine::Begin(int num_candidates, int num_groups,
                             int64_t total_rows, const Stage1Prior* prior) {
  if (phase_ != Phase::kCreated) {
    return Status::FailedPrecondition("HistSimMachine::Begin called twice");
  }
  phase_ = Phase::kFailed;  // until every validation below passes
  FASTMATCH_RETURN_IF_ERROR(params_.Validate());
  vz_ = num_candidates;
  vx_ = num_groups;
  n_total_ = total_rows;
  if (vz_ <= 0 || vx_ <= 0) {
    return Status::InvalidArgument("sampler reports empty domain");
  }
  if (static_cast<int>(target_.size()) != vx_) {
    return Status::InvalidArgument("target has wrong number of groups");
  }
  if (n_total_ <= 0) {
    return Status::FailedPrecondition("relation is empty");
  }

  eps_sep_ = params_.SeparationEps();
  log_delta_third_ = std::log(params_.delta / 3.0);
  log_delta_bar_ = std::log(params_.delta) - std::log(static_cast<double>(vz_));

  // The deviation-bound inversions saturate at int64 max instead of
  // overflowing; a saturated requirement means the parameters demand more
  // samples than any relation can hold, so reject them up front. Checked
  // at the stage-3 target and at the round-1 stage-2 worst case
  // (eps'_i >= eps/2 by construction of the split point).
  if (Stage3Samples(params_.ReconstructionEps(), vx_,
                    std::max(params_.k, params_.k_hi), params_.delta) ==
          kSampleCountSaturated ||
      DeviationSamples(eps_sep_ / 2, vx_, log_delta_third_ - kLog2) ==
          kSampleCountSaturated) {
    return Status::InvalidArgument(
        "epsilon too small: the required sample count overflows int64");
  }

  // A warm start's prior is caller data, so its checks are statuses,
  // not CHECKs; a failure leaves the machine failed with no demand (the
  // same contract as a bad Supply).
  if (prior != nullptr) {
    if (prior->counts == nullptr || prior->rows_drawn <= 0) {
      return Status::InvalidArgument(
          "stage-1 prior has no counts or a non-positive row count");
    }
    if (prior->counts->num_candidates() != vz_ ||
        prior->counts->num_groups() != vx_) {
      return Status::InvalidArgument(
          "stage-1 prior does not match the sampling domain");
    }
  }

  total_ = CountMatrix(vz_, vx_);
  pruned_.assign(vz_, false);
  exact_.assign(vz_, false);
  tau_.assign(vz_, MaxDistance(params_.metric));

  demand_.kind = SampleDemand::Kind::kRows;
  demand_.rows = params_.stage1_samples;
  demand_.targets.clear();
  phase_ = Phase::kStage1;

  if (prior != nullptr) {
    // Warm start: the stage-1 demand just issued is satisfied from the
    // prior sample, exactly as if the caller had drawn it.
    diag_.stage1_warm = true;
    // Only a prior spanning the whole relation makes counts exact here;
    // otherwise exactness comes from the caller's own exhaustion signal,
    // which MarkExact makes sound for an overlapping prior by
    // subtracting the prior's row.
    const bool all_consumed = prior->rows_drawn >= n_total_;
    if (prior->overlapping && !all_consumed) prior_counts_ = *prior->counts;
    return Supply(*prior->counts,
                  std::vector<bool>(static_cast<size_t>(vz_), false),
                  all_consumed, prior->rows_drawn);
  }
  return Status::OK();
}

Status HistSimMachine::AcceptSupply(const char* caller,
                                    const CountMatrix& fresh,
                                    const std::vector<bool>& exhausted,
                                    bool all_consumed, int64_t rows_drawn) {
  if (phase_ != Phase::kStage1 && phase_ != Phase::kStage2 &&
      phase_ != Phase::kStage3) {
    return Status::FailedPrecondition(std::string("HistSimMachine::") +
                                      caller + ": no demand outstanding");
  }
  FASTMATCH_CHECK_EQ(fresh.num_candidates(), vz_);
  FASTMATCH_CHECK_EQ(fresh.num_groups(), vx_);
  FASTMATCH_CHECK_EQ(static_cast<int>(exhausted.size()), vz_);

  // The caller's exhaustion signal certifies window exactness (MarkExact
  // handles overlapping warm priors).
  data_exhausted_ = all_consumed;
  for (int i = 0; i < vz_; ++i) {
    if (all_consumed || exhausted[i]) MarkExact(i);
  }
  // Every phase's fresh sample folds into the totals once, here (Alg. 1
  // l.15-16 for a stage-2 round, which is tested on `fresh` alone), and
  // its rows are booked to the phase's stage once.
  total_.Merge(fresh);
  int64_t& samples = phase_ == Phase::kStage1   ? diag_.stage1_samples
                     : phase_ == Phase::kStage2 ? diag_.stage2_samples
                                                : diag_.stage3_samples;
  samples += rows_drawn;
  return Status::OK();
}

Status HistSimMachine::Supply(const CountMatrix& fresh,
                              const std::vector<bool>& exhausted,
                              bool all_consumed, int64_t rows_drawn) {
  FASTMATCH_RETURN_IF_ERROR(
      AcceptSupply("Supply", fresh, exhausted, all_consumed, rows_drawn));
  Status status;
  switch (phase_) {
    case Phase::kStage1:
      status = FinishStage1(rows_drawn);
      break;
    case Phase::kStage2:
      status = FinishStage2Round(fresh);
      break;
    default:
      status = Finalize();
      break;
  }
  if (!status.ok()) {
    phase_ = Phase::kFailed;
    demand_ = SampleDemand{};
  }
  return status;
}

Status HistSimMachine::FinishStage1(int64_t rows_drawn) {
  // Under-representation test (null: N_i >= sigma * N) only when a
  // pruning threshold was requested and sampling was partial.
  const int64_t k_rare = static_cast<int64_t>(
      std::ceil(params_.sigma * static_cast<double>(n_total_)));
  if (params_.sigma > 0 && k_rare >= 1 && rows_drawn > 0 &&
      !data_exhausted_) {
    int64_t max_ni = 0;
    for (int i = 0; i < vz_; ++i) {
      max_ni = std::max(max_ni, total_.RowTotal(i));
    }
    HypergeomCdfTable table(n_total_, k_rare, rows_drawn, max_ni);
    std::vector<double> log_pvalues(vz_);
    for (int i = 0; i < vz_; ++i) {
      log_pvalues[i] = table.LogCdf(total_.RowTotal(i));
    }
    for (int i : HolmBonferroniReject(log_pvalues, log_delta_third_)) {
      pruned_[i] = true;
    }
  } else if (data_exhausted_ && params_.sigma > 0) {
    // Complete data: prune by exact selectivity (Scan's behaviour).
    for (int i = 0; i < vz_; ++i) {
      if (static_cast<double>(total_.RowTotal(i)) <
          params_.sigma * static_cast<double>(n_total_)) {
        pruned_[i] = true;
      }
    }
  }

  for (int i = 0; i < vz_; ++i) {
    if (!pruned_[i]) active_set_.push_back(i);
    RefreshTau(i);
  }
  diag_.pruned_candidates = vz_ - static_cast<int>(active_set_.size());

  if (active_set_.empty()) {
    return Status::FailedPrecondition(
        "all candidates were pruned as rare; lower sigma or raise "
        "stage1_samples");
  }

  // Effective k: cannot return more candidates than survive pruning.
  k_eff_ = std::min<int>(params_.k, static_cast<int>(active_set_.size()));
  diag_.chosen_k = k_eff_;
  need_stage2_ = static_cast<int>(active_set_.size()) > k_eff_;
  chose_k_ = params_.k_hi <= 0;
  log_dupper_ = log_delta_third_;
  round_t_ = 0;
  phase_ = Phase::kStage2;
  return PrepareStage2RoundOrAdvance();
}

Status HistSimMachine::PrepareStage2RoundOrAdvance() {
  if (!need_stage2_) return BeginStage3();

  ++round_t_;
  log_dupper_ -= kLog2;  // delta/3 / 2^t at round t

  std::vector<int> order = active_set_;
  std::sort(order.begin(), order.end(),
            [this](int a, int b) { return TauLess(a, b); });

  // Appendix A.2.3: given a k-range [k, k_hi], pick the boundary with
  // the widest distance gap once initial estimates exist.
  if (!chose_k_) {
    const int hi =
        std::min<int>(params_.k_hi, static_cast<int>(order.size()) - 1);
    double best_gap = -1;
    for (int kk = params_.k; kk <= hi; ++kk) {
      const double gap = tau_[order[kk]] - tau_[order[kk - 1]];
      if (gap > best_gap) {
        best_gap = gap;
        k_eff_ = kk;
      }
    }
    diag_.chosen_k = k_eff_;
    chose_k_ = true;
  }

  matching_.assign(order.begin(), order.begin() + k_eff_);
  const double max_m_tau = tau_[matching_.back()];
  const double min_rest_tau = tau_[order[k_eff_]];
  split_s_ = 0.5 * (max_m_tau + min_rest_tau);
  in_m_.assign(vz_, false);
  for (int i : matching_) in_m_[i] = true;

  // All-exact shortcut: every remaining estimate is exact, so the
  // separation is exact and no further samples can help.
  bool all_exact = true;
  for (int i : active_set_) {
    if (!exact_[i]) {
      all_exact = false;
      break;
    }
  }
  if (all_exact) return BeginStage3();

  // Per-candidate fresh-sample targets for this round (Equation 1),
  // assuming tau_i is correct: the round must reconstruct candidate i
  // to within eps'_i for its test to reject.
  //
  // Equation 1 alone makes the round's P-value land exactly at
  // delta_upper when the observed round distance equals the estimate,
  // i.e. each test rejects with only ~50% probability (less for
  // i in M, since the empirical l1 distance is biased upward). The
  // paper's system oversampled implicitly -- whole blocks feed every
  // candidate, so all but the scan-length-limiting candidate receive
  // far more than n'_i -- and reports termination "within 4 or 5
  // iterations". We make the slack explicit with a 2x factor, which
  // drives the design-point P-value to ~delta_upper^2 * 2^-|VX| and
  // keeps round counts small even when targets are hit exactly.
  // Correctness is unaffected (extra samples never hurt the test).
  constexpr int64_t kRoundSafetyFactor = 2;
  std::vector<int64_t> targets(vz_, -1);
  for (int i : active_set_) {
    if (exact_[i]) continue;
    const double eps_prime = in_m_[i]
                                 ? (split_s_ + eps_sep_ / 2 - tau_[i])
                                 : (tau_[i] - (split_s_ - eps_sep_ / 2));
    // eps'_i >= eps/2 holds by construction of s; guard anyway against
    // floating-point equality corner cases.
    const double eps_safe = std::max(eps_prime, eps_sep_ / 2);
    targets[i] = SaturatingScale(DeviationSamples(eps_safe, vx_, log_dupper_),
                                 kRoundSafetyFactor);
  }
  demand_.kind = SampleDemand::Kind::kTargets;
  demand_.rows = 0;
  demand_.targets = std::move(targets);
  return Status::OK();
}

Status HistSimMachine::FinishStage2Round(const CountMatrix& fresh) {
  // The round is already folded into the totals; the next round's
  // split point and the stage-3 top-ups read the refreshed estimates.
  for (int i : active_set_) RefreshTau(i);

  // The multiple hypothesis test of Lemma 4 over fresh samples.
  std::vector<double> log_pvalues;
  log_pvalues.reserve(active_set_.size());
  for (int i : active_set_) {
    double lp;
    if (exact_[i]) {
      // Fully enumerated candidate: its true distance is known, so the
      // null is simply true or false. A true null can never be
      // rejected; a false null is rejected error-free.
      const double tau_exact = HistDistance(
          params_.metric, total_.NormalizedRow(i), target_);
      const bool null_true = in_m_[i]
                                 ? (tau_exact >= split_s_ + eps_sep_ / 2)
                                 : (tau_exact <= split_s_ - eps_sep_ / 2);
      lp = null_true ? 0.0 : -std::numeric_limits<double>::infinity();
    } else {
      const Distribution d_round = fresh.NormalizedRow(i);
      const double tau_round = HistDistance(params_.metric, d_round, target_);
      double eps_i;
      if (in_m_[i]) {
        eps_i = split_s_ + eps_sep_ / 2 - tau_round;
      } else if (split_s_ - eps_sep_ / 2 >= 0) {
        eps_i = tau_round - (split_s_ - eps_sep_ / 2);
      } else {
        eps_i = std::numeric_limits<double>::infinity();
      }
      lp = LogDeviationPValue(eps_i, fresh.RowTotal(i), vx_);
    }
    log_pvalues.push_back(lp);
  }

  if (SimultaneousReject(log_pvalues, log_dupper_)) return BeginStage3();
  return PrepareStage2RoundOrAdvance();
}

Status HistSimMachine::BeginStage3() {
  if (!need_stage2_ || matching_.empty()) {
    // Everything left is a winner (|A| <= k), or stage 2 never assigned:
    // recompute from current estimates.
    std::vector<int> order = active_set_;
    std::sort(order.begin(), order.end(),
              [this](int a, int b) { return TauLess(a, b); });
    matching_.assign(
        order.begin(),
        order.begin() + std::min<size_t>(order.size(),
                                         static_cast<size_t>(k_eff_)));
  }
  diag_.rounds = round_t_;

  const int64_t needed = Stage3Samples(params_.ReconstructionEps(), vx_,
                                       k_eff_, params_.delta);
  std::vector<int64_t> targets(vz_, -1);
  bool any = false;
  for (int i : matching_) {
    if (exact_[i]) continue;
    const int64_t missing = needed - total_.RowTotal(i);
    if (missing > 0) {
      targets[i] = missing;
      any = true;
    }
  }
  if (any) {
    demand_.kind = SampleDemand::Kind::kTargets;
    demand_.rows = 0;
    demand_.targets = std::move(targets);
    phase_ = Phase::kStage3;
    return Status::OK();
  }
  return Finalize();
}

double HistSimMachine::ErrorBarFor(bool is_exact, int64_t n) const {
  if (is_exact) return 0;
  const double max_distance = MaxDistance(params_.metric);
  if (n <= 0) return max_distance;
  // Theorem 1 at delta/|VZ| per candidate (union bound over candidates),
  // with |tau_hat - tau| <= ||r_hat - r||_1 transferring the l1
  // deviation radius to the distance estimate; clamped at the metric's
  // diameter, past which a bar carries no information.
  return std::min(DeviationEpsilon(n, vx_, log_delta_bar_), max_distance);
}

Status HistSimMachine::Finalize() {
  // Re-estimate every candidate from the final pooled counts: stages 2/3
  // over-deliver rows to non-matching candidates at block granularity,
  // and the reported per-candidate error bars assume the distance
  // reflects the full pooled sample.
  for (int i = 0; i < vz_; ++i) RefreshTau(i);
  std::sort(matching_.begin(), matching_.end(),
            [this](int a, int b) { return TauLess(a, b); });
  result_.topk = matching_;
  result_.topk_distances.clear();
  result_.topk_distances.reserve(matching_.size());
  for (int i : matching_) result_.topk_distances.push_back(tau_[i]);
  result_.distances = tau_;
  result_.error_bars.resize(static_cast<size_t>(vz_));
  for (int i = 0; i < vz_; ++i) {
    result_.error_bars[static_cast<size_t>(i)] =
        ErrorBarFor(exact_[i], total_.RowTotal(i));
  }
  result_.counts = std::move(total_);
  result_.pruned = std::move(pruned_);
  result_.exact = exact_;
  diag_.exact_candidates = static_cast<int>(
      std::count(exact_.begin(), exact_.end(), true));
  diag_.data_exhausted = data_exhausted_;
  result_.diag = diag_;

  phase_ = Phase::kDone;
  demand_ = SampleDemand{};
  return Status::OK();
}

MatchResult HistSimMachine::TakeResult() {
  FASTMATCH_CHECK(phase_ == Phase::kDone)
      << "HistSimMachine::TakeResult before completion";
  return std::move(result_);
}

ProgressUpdate HistSimMachine::Progress(const CountMatrix* partial,
                                        int64_t partial_rows) const {
  ProgressUpdate up;
  // Only a live machine has a pool to report: kDone has moved its counts
  // into the result, kCreated/kFailed never had one.
  if (phase_ != Phase::kStage1 && phase_ != Phase::kStage2 &&
      phase_ != Phase::kStage3) {
    return up;
  }
  // Pooled estimate: all folded phases plus the caller's
  // not-yet-supplied partial phase sample.
  CountMatrix pooled = total_;
  if (partial != nullptr) pooled.Merge(*partial);
  up.distances.resize(static_cast<size_t>(vz_));
  up.error_bars.resize(static_cast<size_t>(vz_));
  up.exact = exact_;
  for (int i = 0; i < vz_; ++i) {
    const int64_t n = pooled.RowTotal(i);
    up.distances[static_cast<size_t>(i)] =
        HistDistance(params_.metric, pooled.NormalizedRow(i), target_);
    up.error_bars[static_cast<size_t>(i)] = ErrorBarFor(exact_[i], n);
  }
  // Completed stages logged their drawn rows into the diag counters;
  // the in-flight phase's rows are the caller's partial.
  up.rows_consumed = diag_.stage1_samples + diag_.stage2_samples +
                     diag_.stage3_samples + partial_rows;
  up.topk = RankedTopK(up.distances);
  up.topk_distances.reserve(up.topk.size());
  for (int i : up.topk) {
    up.topk_distances.push_back(up.distances[static_cast<size_t>(i)]);
  }
  return up;
}

std::vector<int> HistSimMachine::RankedTopK(
    const std::vector<double>& tau) const {
  std::vector<int> order;
  if (!active_set_.empty()) {
    order = active_set_;
  } else {
    order.resize(static_cast<size_t>(vz_));
    std::iota(order.begin(), order.end(), 0);
  }
  std::sort(order.begin(), order.end(), [&tau](int a, int b) {
    return tau[static_cast<size_t>(a)] < tau[static_cast<size_t>(b)] ||
           (tau[static_cast<size_t>(a)] == tau[static_cast<size_t>(b)] &&
            a < b);
  });
  order.resize(std::min(
      order.size(),
      static_cast<size_t>(k_eff_ > 0 ? k_eff_ : std::max(params_.k, 1))));
  return order;
}

Status HistSimMachine::HarvestBestEffort(const CountMatrix& fresh,
                                         const std::vector<bool>& exhausted,
                                         bool all_consumed,
                                         int64_t rows_drawn) {
  FASTMATCH_RETURN_IF_ERROR(AcceptSupply("HarvestBestEffort", fresh,
                                         exhausted, all_consumed, rows_drawn));
  diag_.rounds = round_t_;
  for (int i = 0; i < vz_; ++i) RefreshTau(i);

  // Rank whatever the pool says (a harvest mid-stage-1 has no pruning
  // decisions yet: every candidate is still in play).
  matching_ = RankedTopK(tau_);
  if (diag_.chosen_k == 0) {
    diag_.chosen_k = static_cast<int>(matching_.size());
  }

  result_.best_effort = true;
  const Status status = Finalize();
  if (!status.ok()) {
    phase_ = Phase::kFailed;
    demand_ = SampleDemand{};
  }
  return status;
}

// --------------------------------------------------------------- HistSim

HistSim::HistSim(HistSimParams params, Distribution target)
    : params_(std::move(params)), target_(std::move(target)) {}

Result<MatchResult> HistSim::Run(Sampler* sampler) {
  FASTMATCH_RETURN_IF_ERROR(params_.Validate());
  if (sampler == nullptr) {
    return Status::InvalidArgument("HistSim::Run: null sampler");
  }

  HistSimMachine machine(params_, target_);
  FASTMATCH_RETURN_IF_ERROR(machine.Begin(sampler->num_candidates(),
                                          sampler->num_groups(),
                                          sampler->total_rows()));

  const int vz = sampler->num_candidates();
  const int vx = sampler->num_groups();
  CountMatrix fresh(vz, vx);
  while (!machine.done()) {
    const SampleDemand& demand = machine.demand();
    fresh.Reset();
    std::vector<bool> exhausted(vz, false);
    int64_t drawn;
    if (demand.kind == SampleDemand::Kind::kRows) {
      drawn = sampler->SampleRows(demand.rows, &fresh);
    } else {
      const int64_t consumed_before = sampler->rows_consumed();
      sampler->SampleUntilTargets(demand.targets, &fresh, &exhausted);
      drawn = sampler->rows_consumed() - consumed_before;
    }
    FASTMATCH_RETURN_IF_ERROR(
        machine.Supply(fresh, exhausted, sampler->AllConsumed(), drawn));
  }
  return machine.TakeResult();
}

}  // namespace fastmatch
