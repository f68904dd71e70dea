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

Status HistSimMachine::Begin(int num_candidates, int num_groups,
                             int64_t total_rows) {
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

  total_ = CountMatrix(vz_, vx_);
  pruned_.assign(vz_, false);
  exact_.assign(vz_, false);
  tau_.assign(vz_, MaxDistance(params_.metric));

  demand_.kind = SampleDemand::Kind::kRows;
  demand_.rows = params_.stage1_samples;
  demand_.targets.clear();
  phase_ = Phase::kStage1;
  return Status::OK();
}

Status HistSimMachine::AcceptSupply(const char* caller,
                                    const CountMatrix& pooled,
                                    const std::vector<bool>& exhausted) {
  if (phase_ != Phase::kStage1 && phase_ != Phase::kStage2 &&
      phase_ != Phase::kStage3) {
    return Status::FailedPrecondition(std::string("HistSimMachine::") +
                                      caller + ": no demand outstanding");
  }
  FASTMATCH_CHECK_EQ(pooled.num_candidates(), vz_);
  FASTMATCH_CHECK_EQ(pooled.num_groups(), vx_);
  FASTMATCH_CHECK_EQ(static_cast<int>(exhausted.size()), vz_);
  // The pooled sample only grows: every held count is still in it.
  for (int i = 0; i < vz_; ++i) {
    for (int g = 0; g < vx_; ++g) {
      FASTMATCH_CHECK_GE(pooled.At(i, g), total_.At(i, g)) << "lost a row";
    }
  }

  // The caller's exhaustion signal is the only source of exactness.
  for (int i = 0; i < vz_; ++i) {
    if (exhausted[i]) exact_[i] = true;
  }
  return Status::OK();
}

int64_t HistSimMachine::FoldPooled(const CountMatrix& pooled,
                                   int64_t pooled_rows) {
  // Every phase's fresh rows join the held counts once, here, and are
  // booked to the phase's stage once.
  const int64_t drawn = pooled_rows - diag_.stage1_samples -
                        diag_.stage2_samples - diag_.stage3_samples;
  FASTMATCH_CHECK_GE(drawn, 0) << "pooled rows lost a held row";
  int64_t& samples = phase_ == Phase::kStage1   ? diag_.stage1_samples
                     : phase_ == Phase::kStage2 ? diag_.stage2_samples
                                                : diag_.stage3_samples;
  samples += drawn;
  total_ = pooled;
  return drawn;
}

Status HistSimMachine::Supply(const CountMatrix& pooled,
                              const std::vector<bool>& exhausted,
                              int64_t pooled_rows) {
  FASTMATCH_RETURN_IF_ERROR(AcceptSupply("Supply", pooled, exhausted));
  // A stage-2 round is tested on its own fresh rows, so the test reads
  // the held counts before the round joins them.
  const bool rejected =
      phase_ == Phase::kStage2 && Stage2RoundRejects(pooled);
  const int64_t drawn = FoldPooled(pooled, pooled_rows);
  Status status;
  switch (phase_) {
    case Phase::kStage1:
      status = FinishStage1(drawn);
      break;
    case Phase::kStage2:
      // The next round's split point and the stage-3 top-ups read the
      // refreshed estimates.
      for (int i : active_set_) RefreshTau(i);
      status = rejected ? BeginStage3() : PrepareStage2RoundOrAdvance();
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
  // pruning threshold was requested and sampling was partial: every
  // candidate exact means every row of the relation was read.
  const bool data_exhausted =
      std::find(exact_.begin(), exact_.end(), false) == exact_.end();
  const int64_t k_rare = static_cast<int64_t>(
      std::ceil(params_.sigma * static_cast<double>(n_total_)));
  if (params_.sigma > 0 && k_rare >= 1 && rows_drawn > 0 &&
      !data_exhausted) {
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
  } else if (data_exhausted && params_.sigma > 0) {
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

bool HistSimMachine::Stage2RoundRejects(const CountMatrix& pooled) const {
  std::vector<int64_t> fresh(static_cast<size_t>(vx_));
  std::vector<double> log_pvalues;
  log_pvalues.reserve(active_set_.size());
  for (int i : active_set_) {
    double lp;
    if (exact_[i]) {
      // Fully enumerated candidate: its true distance is known, so the
      // null is simply true or false. A true null can never be
      // rejected; a false null is rejected error-free.
      const double tau_exact =
          HistDistance(params_.metric, pooled.NormalizedRow(i), target_);
      const bool null_true = in_m_[i]
                                 ? (tau_exact >= split_s_ + eps_sep_ / 2)
                                 : (tau_exact <= split_s_ - eps_sep_ / 2);
      lp = null_true ? 0.0 : -std::numeric_limits<double>::infinity();
    } else {
      for (int g = 0; g < vx_; ++g) {
        fresh[static_cast<size_t>(g)] = pooled.At(i, g) - total_.At(i, g);
      }
      const double tau_round =
          HistDistance(params_.metric, Normalize(fresh), target_);
      double eps_i;
      if (in_m_[i]) {
        eps_i = split_s_ + eps_sep_ / 2 - tau_round;
      } else if (split_s_ - eps_sep_ / 2 >= 0) {
        eps_i = tau_round - (split_s_ - eps_sep_ / 2);
      } else {
        eps_i = std::numeric_limits<double>::infinity();
      }
      lp = LogDeviationPValue(eps_i, pooled.RowTotal(i) - total_.RowTotal(i),
                              vx_);
    }
    log_pvalues.push_back(lp);
  }
  return SimultaneousReject(log_pvalues, log_dupper_);
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
  diag_.data_exhausted = diag_.exact_candidates == vz_;
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

ProgressUpdate HistSimMachine::Progress(const CountMatrix& pooled,
                                        int64_t pooled_rows) const {
  ProgressUpdate up;
  // Only a live machine has a pool to report: kDone has moved its counts
  // into the result, kCreated/kFailed never had one.
  if (phase_ != Phase::kStage1 && phase_ != Phase::kStage2 &&
      phase_ != Phase::kStage3) {
    return up;
  }
  FASTMATCH_CHECK_EQ(pooled.num_candidates(), vz_);
  FASTMATCH_CHECK_EQ(pooled.num_groups(), vx_);
  up.distances.resize(static_cast<size_t>(vz_));
  up.error_bars.resize(static_cast<size_t>(vz_));
  up.exact = exact_;
  for (int i = 0; i < vz_; ++i) {
    up.distances[static_cast<size_t>(i)] =
        HistDistance(params_.metric, pooled.NormalizedRow(i), target_);
    up.error_bars[static_cast<size_t>(i)] =
        ErrorBarFor(exact_[i], pooled.RowTotal(i));
  }
  up.rows_consumed = pooled_rows;
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

Status HistSimMachine::HarvestBestEffort(const CountMatrix& pooled,
                                         const std::vector<bool>& exhausted,
                                         int64_t pooled_rows) {
  FASTMATCH_RETURN_IF_ERROR(
      AcceptSupply("HarvestBestEffort", pooled, exhausted));
  FoldPooled(pooled, pooled_rows);
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

  // One cumulative matrix: the samplers add each phase's fresh rows to
  // it, and the machine takes them as pooled minus what it holds.
  const int vz = sampler->num_candidates();
  CountMatrix pooled(vz, sampler->num_groups());
  while (!machine.done()) {
    const SampleDemand& demand = machine.demand();
    std::vector<bool> exhausted(vz, false);
    if (demand.kind == SampleDemand::Kind::kRows) {
      sampler->SampleRows(demand.rows, &pooled);
    } else {
      sampler->SampleUntilTargets(demand.targets, &pooled, &exhausted);
    }
    // A consumed relation has enumerated every candidate.
    if (sampler->AllConsumed()) exhausted.assign(exhausted.size(), true);
    FASTMATCH_RETURN_IF_ERROR(
        machine.Supply(pooled, exhausted, sampler->rows_consumed()));
  }
  return machine.TakeResult();
}

}  // namespace fastmatch
