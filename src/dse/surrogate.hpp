#pragma once
// dse::SurrogateModel — the surrogate evaluator tier (autoAx / ApproxGNN
// direction): a lightweight online model trained from this evaluator's own
// ground-truth measurements that predicts the accuracy degradation of unseen
// configurations, so the Evaluator can SKIP kernel runs it is confident
// about.
//
// The correctness argument rests on how Algorithm 1 consumes Δacc: only
// through the feasibility test Δacc <= acc_th. For an infeasible state the
// reward is exactly -R regardless of power/time; for a feasible state the
// reward is +/-1 from the power/time thresholds (EXACT here, via the counts
// memo below) and best-feasible ranking uses BaselineObjective, which for
// feasible points reads only power/time. So a prediction whose FEASIBILITY
// CLASSIFICATION is correct leaves the RL trajectory, the final fronts, and
// the best-feasible selections byte-identical to a surrogate-off run while
// the kernel run is saved. TrySkip therefore skips on BOTH sides of the
// threshold — but only when TWO independent signals agree: the predicted
// log(Δacc) clears the threshold cut by a self-calibrating safety margin
// (derived from the fit's out-of-sample errors), AND a ground-truth
// dominance witness exists on the same side (the operator catalogs are
// accuracy-ordered, so a config approximating strictly less than an
// observed feasible point is feasible, and one approximating strictly more
// than an observed infeasible point is infeasible, up to rare error
// cancellation). The remaining valves:
//   * the saturation configuration (Algorithm 1's terminate state) and
//     empty-mask configurations are never skipped;
//   * Δpower/Δtime of a predicted measurement are EXACT, computed through
//     the same EnergyModel the real measurement path uses from either a
//     mask -> OpCounts memo of earlier ground-truth runs or a quadratic
//     counts model (operation counts are bias + per-variable + pairwise
//     terms in the mask bits for every straight-line kernel) that is only
//     trusted after it reproduces EVERY observed mask's counts exactly and
//     is cross-checked against each later observation. A mask whose counts
//     are unavailable on both paths, or counts ever observed to be
//     input-dependent or off-model, disable skipping;
//   * every `audit_period`-th skip-eligible configuration is executed anyway
//     (a deterministic honesty probe that keeps feeding the model);
//   * the Explorer ground-truths the final solution and best-feasible
//     configurations if they were answered by prediction
//     (Evaluator::GroundTruth), so reported solutions, best-feasible rows,
//     and Pareto-front points are always real measurements.
//
// Model: ridge regression (util::FitLinearModel) in log(Δacc) space over
// one-hot operator features gated by "any variable selected" plus
// per-variable indicators. Predictions are memoized so repeat visits of a
// skipped configuration are answered identically forever. A resumed run
// rebuilds the model by replaying its steps (see dse/checkpoint.hpp).
//
// Deterministic by construction: the model trains only on this evaluator's
// own evaluation sequence (never on shared-cache traffic, which is
// scheduling-dependent), refits at fixed observation counts, and takes the
// skip decision BEFORE any shared cache is consulted.

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "dse/configuration.hpp"
#include "energy/energy_model.hpp"
#include "instrument/measurement.hpp"
#include "util/linear_regression.hpp"

namespace axdse::dse {

/// Tuning knobs of the surrogate tier. The defaults are deliberately
/// conservative: a missed skip costs one kernel run, a wrong skip could cost
/// result fidelity (guarded by the surrogate-on == surrogate-off byte
/// identity suites in tests/dse_surrogate_test.cpp).
struct SurrogateOptions {
  /// Ground-truth observations before the first fit (raised internally to
  /// 2x the feature dimension when that is larger).
  std::size_t min_samples = 48;
  /// Refit cadence in observations after the first fit.
  std::size_t refit_interval = 32;
  /// Skip only when |prediction - threshold| > margin_factor * residual
  /// scale (the fit's max absolute training residual, floored below).
  double margin_factor = 1.0;
  /// Floor of the residual scale (log-space units).
  double residual_floor = 3.0;
  /// Every Nth skip-eligible configuration is executed anyway (0 disables
  /// auditing).
  std::size_t audit_period = 8;
  /// Ridge regularization of the fit.
  double ridge_lambda = 1e-3;
};

/// Online infeasibility predictor for one Evaluator. Not thread-safe (like
/// the Evaluator that owns it).
class SurrogateModel {
 public:
  /// `energy` must outlive the model (the owning Evaluator guarantees it).
  /// `acc_threshold` is RewardConfig::acc_threshold; a non-positive
  /// threshold disables skipping entirely.
  SurrogateModel(const SpaceShape& shape, double acc_threshold,
                 const energy::EnergyModel& energy, double precise_power_mw,
                 double precise_time_ns, const SurrogateOptions& options = {});

  /// Feeds one ground-truth measurement: appends a training observation,
  /// updates the mask -> OpCounts memo (detecting input-dependent counts),
  /// and refits on cadence.
  void Observe(const Configuration& config, const instrument::Measurement& m);

  /// The memoized predicted measurement of a previously skipped
  /// configuration, or nullptr. Repeat visits MUST be answered from here
  /// first so a configuration skipped once keeps its predicted value even
  /// after the model drifts.
  const instrument::Measurement* Lookup(const Configuration& config) const;

  /// Skip decision for a configuration seen for the first time. On true the
  /// predicted measurement (exact Δpower/Δtime, confidently classified Δacc
  /// on either side of the threshold) was memoized and copied to *out; on
  /// false the caller must ground-truth.
  bool TrySkip(const Configuration& config, instrument::Measurement* out);

  /// Drops a memoized prediction after its ground truth was computed (the
  /// Explorer's solution valve). No-op when `config` was never skipped.
  void Invalidate(const Configuration& config);

  /// Distinct configurations currently answered by prediction only.
  std::size_t NumPredicted() const noexcept { return predicted_.size(); }

 private:
  /// Deterministic map key of a full configuration: adder index, multiplier
  /// index, then mask words.
  using FullKey = std::vector<std::uint64_t>;
  /// Map key of a variable mask alone (mask words).
  using MaskKey = std::vector<std::uint64_t>;

  static FullKey FullKeyOf(const Configuration& config);
  static MaskKey MaskKeyOf(const Configuration& config);

  std::vector<double> Features(const Configuration& config) const;
  void Refit();
  bool IsSaturation(const Configuration& config) const noexcept;

  /// Compact (adder, multiplier, mask) triple of the dominance order.
  struct Point {
    std::uint32_t adder = 0;
    std::uint32_t multiplier = 0;
    std::vector<std::uint64_t> mask;
  };
  /// a approximates at least as aggressively as b: operator indices >= and
  /// mask a superset (operator sets are accuracy-ordered, so this implies
  /// Δacc(a) >= Δacc(b) up to error cancellation).
  static bool Dominates(const Point& a, const Point& b);
  static Point PointOf(const Configuration& config);

  /// Quadratic mask features [bias | x_v | x_i*x_j (i<j)] of the counts
  /// model.
  std::vector<double> MaskFeatures(const MaskKey& mask) const;
  /// Fits the per-field quadratic counts models and validates them against
  /// every observed mask (exact integer match required).
  void TryFitCounts();
  /// Counts of an unseen mask through the validated quadratic model; false
  /// when the model is not (yet) trusted.
  bool PredictCounts(const MaskKey& mask, energy::OpCounts* out) const;

  SpaceShape shape_;
  double acc_threshold_ = 0.0;
  double cut_ = 0.0;  ///< log(acc_threshold + eps)
  const energy::EnergyModel* energy_;
  double precise_power_mw_ = 0.0;
  double precise_time_ns_ = 0.0;
  SurrogateOptions options_;
  std::size_t dim_ = 0;
  std::size_t min_samples_ = 0;

  std::vector<std::vector<double>> rows_;    ///< training features
  std::vector<double> targets_;              ///< clamped log(Δacc)
  util::LinearModelFit fit_;
  double margin_ = 0.0;
  /// Permanent margin floor raised past every confidently-misclassified
  /// ground truth (self-calibration; see Observe). Never shrinks.
  double calibration_floor_ = 0.0;
  /// Running max out-of-sample (pre-training) prediction error — the honest
  /// error scale the margin is derived from. Never shrinks.
  double prequential_max_ = 0.0;

  /// Dominance witnesses: ground-truth feasible / infeasible points. A skip
  /// additionally requires a witness on its side of the threshold (see
  /// TrySkip), so a barely-misplaced regression alone can never misclassify.
  std::vector<Point> feasible_witnesses_;
  std::vector<Point> infeasible_witnesses_;

  std::map<MaskKey, energy::OpCounts> mask_counts_;
  bool counts_unstable_ = false;
  std::uint64_t audit_counter_ = 0;

  /// Quadratic counts model (one fit per OpCounts field), derived purely
  /// from the observation sequence.
  std::size_t counts_dim_ = 0;  ///< 0 disables the model (space too large)
  std::vector<std::vector<double>> counts_rows_;  ///< one row per new mask
  std::vector<double> counts_targets_[4];
  util::LinearModelFit counts_fits_[4];
  bool counts_model_ok_ = false;

  std::map<FullKey, instrument::Measurement> predicted_;
};

}  // namespace axdse::dse
