// The sampling abstraction HistSim runs against.
//
// The paper stresses that HistSim's correctness is independent of how
// samples are obtained, as long as they are uniform without replacement
// ("our algorithm is agnostic to the sampling approach"). This interface
// is that seam: the statistics side (core/histsim) asks for samples; the
// implementation decides where they come from. The library's one
// implementation is engine/sampling_engine.h, the FastMatch block-based
// engine with bitmap-driven AnyActive selection and lookahead. The tests
// add a second, tests/row_sampler.h: direct row-level sampling over a
// ColumnStore, the reference the statistics are validated against.

#ifndef FASTMATCH_CORE_SAMPLER_H_
#define FASTMATCH_CORE_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "core/histogram.h"

namespace fastmatch {

/// \brief Source of uniform without-replacement samples, grouped into
/// (candidate, group) counts.
class Sampler {
 public:
  virtual ~Sampler() = default;

  /// Number of candidates |VZ|.
  virtual int num_candidates() const = 0;
  /// Number of x-axis groups |VX|.
  virtual int num_groups() const = 0;
  /// Total number of datapoints N.
  virtual int64_t total_rows() const = 0;

  /// \brief Stage-1 style sampling: draw up to `m` fresh tuples uniformly
  /// without replacement, adding them into `out`. Returns the number of
  /// tuples actually drawn (less than `m` only when the data ran out).
  virtual int64_t SampleRows(int64_t m, CountMatrix* out) = 0;

  /// \brief Stage-2/3 style sampling: draw fresh tuples until every
  /// candidate i with targets[i] >= 0 has received >= targets[i] samples
  /// *drawn during this call*, or until that candidate's tuples are
  /// exhausted. targets[i] < 0 means "no requirement for i". `out` may
  /// already hold counts from earlier phases (callers legally accumulate
  /// several rounds into one matrix); pre-existing counts never satisfy
  /// a target.
  ///
  /// This is the per-call fresh-counter rule, and it is load-bearing:
  /// HistSim's stage-2 tests are computed over each round's fresh
  /// sample, so counting carried-over tuples toward a target silently
  /// weakens the round's statistics. Implementations must measure
  /// per-call progress from zero (SamplingEngine: row totals minus their
  /// value at call entry), never from `out`'s pre-existing totals;
  /// regression tests pin this for RowSampler and SamplingEngine.
  ///
  /// `exhausted` (size |VZ|) is set true for every candidate known to be
  /// fully enumerated across the sampler's lifetime (all its tuples have
  /// been consumed); such candidates' cumulative counts are exact. These
  /// flags are HistSimMachine's only exactness signal.
  virtual void SampleUntilTargets(const std::vector<int64_t>& targets,
                                  CountMatrix* out,
                                  std::vector<bool>* exhausted) = 0;

  /// \brief True when every tuple has been consumed: every candidate is
  /// then exhausted, which HistSim::Run marks before its next Supply.
  virtual bool AllConsumed() const = 0;

  /// \brief Fresh tuples drawn over the sampler's lifetime.
  virtual int64_t rows_consumed() const = 0;
};

}  // namespace fastmatch

#endif  // FASTMATCH_CORE_SAMPLER_H_
