// HistSim (paper Algorithm 1): the three-stage sampling algorithm that
// returns the top-k candidates closest to a target under normalized l1,
// with the separation and reconstruction guarantees (Problem 1) holding
// jointly with probability > 1 - delta.
//
//   Stage 1  prune rare candidates: hypergeometric under-representation
//            test per candidate, Holm-Bonferroni at level delta/3.
//   Stage 2  identify top-k: rounds of fresh samples; per-round split
//            point s, null hypotheses "tau*_i >= s + eps/2" (i in M) /
//            "tau*_j <= s - eps/2" (j not in M); P-values from the
//            Theorem-1 l1 deviation bound; all-or-nothing simultaneous
//            rejection at level delta/3/2^t.
//   Stage 3  reconstruct: top up winners to
//            n_i >= 2/eps^2 (|VX| log 2 + log(3k/delta)).
//
// The algorithm lives in HistSimMachine, a resumable state machine that
// is deliberately ignorant of where samples come from: it publishes a
// SampleDemand (stage-1 row count or stage-2/3 per-candidate targets),
// the caller obtains the samples however it likes and feeds them back
// through Supply(), and the machine advances to the next demand. This
// inversion is what lets the batch executor interleave N query runs over
// one shared scan. HistSim is the single-query driver: it satisfies each
// demand from a core/sampler.h Sampler (row-level reference
// implementation, or the block-based FastMatch engine).

#ifndef FASTMATCH_CORE_HISTSIM_H_
#define FASTMATCH_CORE_HISTSIM_H_

#include <vector>

#include "core/histogram.h"
#include "core/params.h"
#include "core/sampler.h"
#include "util/result.h"

namespace fastmatch {

/// \brief Counters describing one HistSim run.
struct HistSimDiagnostics {
  int64_t stage1_samples = 0;   ///< fresh tuples drawn in stage 1
  int64_t stage2_samples = 0;   ///< fresh tuples drawn across stage-2 rounds
  int64_t stage3_samples = 0;   ///< fresh tuples drawn in stage 3
  int rounds = 0;               ///< stage-2 rounds executed
  int pruned_candidates = 0;    ///< flagged rare in stage 1
  /// Stage 1 was served from a prior sample (the batch executor supplied
  /// a warm query's stage 1 from its Stage1Snapshot): stage1_samples
  /// counts the prior's rows, none of which were drawn by this run.
  bool stage1_warm = false;
  int exact_candidates = 0;     ///< fully enumerated (exhausted) candidates
  /// Every candidate is exact: the whole relation was consumed.
  bool data_exhausted = false;
  int chosen_k = 0;             ///< k actually returned (k-range extension)
};

/// \brief Output of a run: the estimated top-k plus all estimate state.
struct MatchResult {
  /// Candidate ids, ascending estimated distance to the target.
  std::vector<int> topk;
  /// Estimated distances of the top-k (same order).
  std::vector<double> topk_distances;
  /// Final estimated distance per candidate (MaxDistance for zero-sample
  /// candidates).
  std::vector<double> distances;
  /// Per-candidate deviation radius at confidence 1 - delta: with
  /// probability > 1 - delta, |distances[i] - true_distance_i| <=
  /// error_bars[i] simultaneously for every candidate (Theorem 1 at
  /// delta/|VZ| per candidate, |tau_hat - tau| <= ||r_hat - r||_1).
  /// 0 for exact candidates; MaxDistance for zero-sample candidates.
  std::vector<double> error_bars;
  /// Final cumulative counts per candidate.
  CountMatrix counts;
  /// Stage-1 pruning decision per candidate.
  std::vector<bool> pruned;
  /// Candidates whose every row of the relation is in `counts`: the
  /// run's own scan enumerated them, or the scan a warm prior resumed
  /// from did so together with it.
  std::vector<bool> exact;
  /// The run was harvested before its three stages completed (execution
  /// budget expired): topk/distances rank whatever samples were pooled
  /// at harvest time and error_bars are the honest per-candidate radii
  /// over those samples. Guarantees 1 and 2 are NOT claimed; the
  /// per-candidate bars are the result's only confidence statement.
  bool best_effort = false;
  HistSimDiagnostics diag;
};

/// \brief A point-in-time snapshot of a running query's answer,
/// surfaced at chunk boundaries by the batch executor (the anytime /
/// progressive-results channel).
///
/// Soundness: every sample behind the snapshot is a scan prefix of the
/// pre-shuffled store (plus any warm prior, itself such a prefix), so
/// the pooled per-candidate counts are uniform without-replacement
/// samples and Theorem 1 applies at the pooled size — the same §4.1
/// argument that makes block sampling and stage-1 reuse sound. Bars are
/// per-candidate at delta/|VZ| (union bound), so all of them contain
/// the true distances simultaneously with probability > 1 - delta, and
/// they shrink weakly as the scan pools more rows.
struct ProgressUpdate {
  /// Per-query update number, strictly increasing from 1.
  uint64_t sequence = 0;
  /// Current top-k guess, ascending estimated distance (ties by id).
  std::vector<int> topk;
  /// Estimated distances of the current top-k (same order).
  std::vector<double> topk_distances;
  /// Estimated distance per candidate over the pooled sample.
  std::vector<double> distances;
  /// Per-candidate deviation radius (see MatchResult::error_bars).
  std::vector<double> error_bars;
  /// Candidates whose pooled counts are exact (bar is 0).
  std::vector<bool> exact;
  /// Rows behind this query's pooled estimate (all phases + partial).
  int64_t rows_consumed = 0;
  /// Blocks the shared scan has read so far (batch-level).
  int64_t blocks_read = 0;
  /// True exactly once, on the update emitted at completion: its
  /// topk/distances/error_bars/exact equal the delivered MatchResult
  /// bit for bit.
  bool final_update = false;
};

/// \brief What the algorithm needs next from the data layer.
///
/// Targets follow the per-call fresh-counter rule (core/sampler.h):
/// a target counts only samples drawn for THIS phase, never counts the
/// machine already holds from earlier phases — the stage-2 tests are
/// computed over the round's fresh sample alone.
struct SampleDemand {
  enum class Kind {
    kNone,     ///< nothing outstanding (machine finished or not begun)
    kRows,     ///< stage 1: `rows` fresh tuples, uniform w/o replacement
    kTargets,  ///< stage 2/3: per-candidate fresh-sample targets
  };
  Kind kind = Kind::kNone;
  /// Fresh tuples requested (kRows only).
  int64_t rows = 0;
  /// Per-candidate fresh-sample targets; -1 means no requirement.
  std::vector<int64_t> targets;
};

/// \brief One HistSim run as a resumable state machine.
///
/// Protocol: Begin() once, then alternate demand() / Supply() until
/// done(), then TakeResult(). A demand may legally be over-satisfied
/// (block granularity and shared scans deliver more rows than asked;
/// extra uniform samples never hurt the statistics) — Supply() takes
/// whatever was actually consumed for the phase.
class HistSimMachine {
 public:
  /// \param params problem parameters (validated in Begin)
  /// \param target resolved target distribution q, |VX| entries summing
  ///        to 1
  HistSimMachine(HistSimParams params, Distribution target);

  /// \brief Validates parameters against the sampling domain and issues
  /// the stage-1 demand. A caller holding a stage-1 sample already (a
  /// warm start) satisfies that demand with an ordinary Supply.
  Status Begin(int num_candidates, int num_groups, int64_t total_rows);

  /// \brief True once the run completed; TakeResult() is then valid.
  bool done() const { return phase_ == Phase::kDone; }

  /// \brief True when Begin or Supply returned an error; the machine is
  /// then dead and must be discarded.
  bool failed() const { return phase_ == Phase::kFailed; }

  /// \brief The outstanding demand (Kind::kNone iff done or failed).
  const SampleDemand& demand() const { return demand_; }

  /// \brief Feeds the samples that satisfied the current demand and
  /// advances to the next demand (or to completion).
  ///
  /// `pooled` is the query's whole sample so far, this phase's tuples
  /// included: a superset of held() cell for cell (CHECKed), and the
  /// phase's fresh sample is `pooled - held()`. `exhausted[i]` marks
  /// candidate i fully enumerated: every one of its rows in the relation
  /// is in `pooled`, so its counts are exact from then on. It is the
  /// machine's only exactness signal; a caller that consumed the whole
  /// relation marks every candidate. `pooled_rows` is the tuple count
  /// behind `pooled`.
  Status Supply(const CountMatrix& pooled, const std::vector<bool>& exhausted,
                int64_t pooled_rows);

  /// \brief Moves the finished result out. Requires done(); valid once.
  MatchResult TakeResult();

  /// \brief Point-in-time answer snapshot from a live machine (any
  /// phase with a demand outstanding; also valid when done) over the
  /// caller's pooled sample (the Supply contract). Const: never advances
  /// the machine. rows_consumed is `pooled_rows`;
  /// blocks_read/sequence/final_update are the caller's to stamp.
  ProgressUpdate Progress(const CountMatrix& pooled,
                          int64_t pooled_rows) const;

  /// \brief Completes the machine NOW from the caller's pooled sample,
  /// producing a best_effort MatchResult (TakeResult becomes valid).
  /// Arguments follow the Supply contract. Valid only with a demand
  /// outstanding; a failure leaves the machine failed, exactly like a
  /// bad Supply.
  Status HarvestBestEffort(const CountMatrix& pooled,
                           const std::vector<bool>& exhausted,
                           int64_t pooled_rows);

  /// \brief The counts the machine holds: the pooled sample of the last
  /// phase supplied (zero before the first).
  /// A caller's pooled counts minus these are the in-flight phase's
  /// fresh sample. Valid while a demand is outstanding.
  const CountMatrix& held() const { return total_; }

 private:
  enum class Phase { kCreated, kStage1, kStage2, kStage3, kDone, kFailed };

  void RefreshTau(int i);
  bool TauLess(int a, int b) const {
    return tau_[a] < tau_[b] || (tau_[a] == tau_[b] && a < b);
  }
  /// The current top-k guess under per-candidate distances `tau`: the
  /// stage-1 survivors once stage 1 decided (every candidate before),
  /// ordered by distance with ties broken by id, cut at k_eff_ (the
  /// requested k while stage 1 has not fixed it). Shared by Progress
  /// and HarvestBestEffort.
  std::vector<int> RankedTopK(const std::vector<double>& tau) const;
  /// The prologue Supply and HarvestBestEffort share: refuses a call
  /// with no demand outstanding (FailedPrecondition naming `caller`),
  /// CHECKs the arguments' shape and that `pooled` holds every held
  /// cell, and marks the signalled candidates exact.
  Status AcceptSupply(const char* caller, const CountMatrix& pooled,
                      const std::vector<bool>& exhausted);
  /// Makes `pooled` the held counts and books its new rows to the
  /// current stage's sample counter; returns those rows.
  int64_t FoldPooled(const CountMatrix& pooled, int64_t pooled_rows);

  /// Per-candidate deviation radius from `n` pooled rows: 0 when
  /// `is_exact`, MaxDistance when n == 0, else Theorem 1 at delta/|VZ|
  /// clamped to MaxDistance. Shared by Finalize and Progress so the
  /// final update equals the delivered result bit for bit.
  double ErrorBarFor(bool is_exact, int64_t n) const;

  Status FinishStage1(int64_t rows_drawn);
  /// Picks M and the split point from the current estimates, and either
  /// issues the round's targets demand or falls through to stage 3 when
  /// every remaining estimate is exact.
  Status PrepareStage2RoundOrAdvance();
  /// The multiple hypothesis test of Lemma 4 on the round's own fresh
  /// sample, `pooled - held()` (Alg. 1 l.15-16): true when every null
  /// is rejected simultaneously. Runs before the round is folded in.
  bool Stage2RoundRejects(const CountMatrix& pooled) const;
  Status BeginStage3();
  Status Finalize();

  HistSimParams params_;
  Distribution target_;
  Phase phase_ = Phase::kCreated;
  SampleDemand demand_;
  MatchResult result_;
  HistSimDiagnostics diag_;

  int vz_ = 0;
  int vx_ = 0;
  int64_t n_total_ = 0;
  double eps_sep_ = 0;
  double log_delta_third_ = 0;
  /// log(delta / |VZ|): the per-candidate level behind error bars.
  double log_delta_bar_ = 0;

  CountMatrix total_;  // held counts: the pooled sample of every phase
  std::vector<bool> pruned_;
  std::vector<bool> exact_;
  std::vector<double> tau_;     // estimated distance per candidate
  std::vector<int> active_set_;  // A: non-pruned candidate ids
  std::vector<int> matching_;    // M: current top-k guess
  std::vector<bool> in_m_;
  double split_s_ = 0;
  int k_eff_ = 0;
  bool chose_k_ = false;
  bool need_stage2_ = false;
  double log_dupper_ = 0;
  int round_t_ = 0;
};

/// \brief One top-k-similar query execution over a Sampler (the
/// single-query driver around HistSimMachine).
class HistSim {
 public:
  /// \param params problem parameters (validated in Run)
  /// \param target resolved target distribution q
  HistSim(HistSimParams params, Distribution target);

  /// \brief Runs all three stages to completion against `sampler`.
  Result<MatchResult> Run(Sampler* sampler);

 private:
  HistSimParams params_;
  Distribution target_;
};

}  // namespace fastmatch

#endif  // FASTMATCH_CORE_HISTSIM_H_
