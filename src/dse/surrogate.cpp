#include "dse/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace axdse::dse {

namespace {

// Numeric anchors of the log-space model. kEps keeps log() defined at
// Δacc = 0; the clamp bounds keep deeply feasible (Δacc ~ 0) and wildly
// infeasible observations from dominating the residual scale — only the
// neighbourhood of the threshold matters for the skip decision.
constexpr double kEps = 1e-12;
constexpr double kClampBelow = 6.0;
constexpr double kClampAbove = 20.0;

// Bound on the quadratic counts model's feature dimension (1 + V + V(V-1)/2)
// — beyond it the exact normal-equation fit gets too expensive and the
// surrogate falls back to the mask memo alone.
constexpr std::size_t kMaxCountsDim = 512;
// Retry cadence (in new distinct masks) of the counts fit while it is not
// yet validated.
constexpr std::size_t kCountsFitInterval = 64;

// Reads/writes OpCounts as an indexable quadruple, in declaration order.
std::uint64_t CountField(const axdse::energy::OpCounts& counts, int field) {
  switch (field) {
    case 0: return counts.precise_adds;
    case 1: return counts.approx_adds;
    case 2: return counts.precise_muls;
    default: return counts.approx_muls;
  }
}

void SetCountField(axdse::energy::OpCounts& counts, int field,
                   std::uint64_t value) {
  switch (field) {
    case 0: counts.precise_adds = value; break;
    case 1: counts.approx_adds = value; break;
    case 2: counts.precise_muls = value; break;
    default: counts.approx_muls = value; break;
  }
}

}  // namespace

SurrogateModel::SurrogateModel(const SpaceShape& shape, double acc_threshold,
                               const energy::EnergyModel& energy,
                               double precise_power_mw, double precise_time_ns,
                               const SurrogateOptions& options)
    : shape_(shape),
      acc_threshold_(acc_threshold),
      cut_(std::log(std::max(acc_threshold, 0.0) + kEps)),
      energy_(&energy),
      precise_power_mw_(precise_power_mw),
      precise_time_ns_(precise_time_ns),
      options_(options) {
  dim_ = 1 + shape_.num_adders + shape_.num_multipliers + shape_.num_variables;
  min_samples_ = std::max(options_.min_samples, 2 * dim_);
  const std::size_t v = shape_.num_variables;
  const std::size_t quad_dim = 1 + v + v * (v - 1) / 2;
  counts_dim_ = quad_dim <= kMaxCountsDim ? quad_dim : 0;
}

SurrogateModel::FullKey SurrogateModel::FullKeyOf(const Configuration& config) {
  FullKey key;
  key.reserve(2 + config.MaskWords().size());
  key.push_back(config.AdderIndex());
  key.push_back(config.MultiplierIndex());
  key.insert(key.end(), config.MaskWords().begin(), config.MaskWords().end());
  return key;
}

SurrogateModel::MaskKey SurrogateModel::MaskKeyOf(const Configuration& config) {
  return config.MaskWords();
}

std::vector<double> SurrogateModel::Features(const Configuration& config) const {
  // [bias | adder one-hot | multiplier one-hot | variable indicators].
  // The operator one-hots are gated by "any variable selected": with an
  // empty mask no operation is approximate and Δacc is 0 no matter which
  // operators are nominally selected, so those rows must not teach the model
  // anything about the operators.
  std::vector<double> f(dim_, 0.0);
  f[0] = 1.0;
  const double any = config.NoneSelected() ? 0.0 : 1.0;
  f[1 + config.AdderIndex()] = any;
  f[1 + shape_.num_adders + config.MultiplierIndex()] = any;
  const std::size_t vars_base = 1 + shape_.num_adders + shape_.num_multipliers;
  for (std::size_t v = 0; v < shape_.num_variables; ++v)
    if (config.VariableSelected(v)) f[vars_base + v] = 1.0;
  return f;
}

bool SurrogateModel::IsSaturation(const Configuration& config) const noexcept {
  return shape_.num_adders > 0 && shape_.num_multipliers > 0 &&
         config.AdderIndex() + 1 == shape_.num_adders &&
         config.MultiplierIndex() + 1 == shape_.num_multipliers &&
         config.AllVariablesSelected();
}

SurrogateModel::Point SurrogateModel::PointOf(const Configuration& config) {
  Point p;
  p.adder = config.AdderIndex();
  p.multiplier = config.MultiplierIndex();
  p.mask = config.MaskWords();
  return p;
}

bool SurrogateModel::Dominates(const Point& a, const Point& b) {
  if (a.adder < b.adder || a.multiplier < b.multiplier) return false;
  for (std::size_t w = 0; w < b.mask.size(); ++w)
    if ((b.mask[w] & ~a.mask[w]) != 0) return false;  // b selects more than a
  return true;
}

std::vector<double> SurrogateModel::MaskFeatures(const MaskKey& mask) const {
  const std::size_t v_count = shape_.num_variables;
  std::vector<double> f(counts_dim_, 0.0);
  f[0] = 1.0;
  const auto bit = [&](std::size_t v) {
    return (mask[v / 64] >> (v % 64)) & 1u ? 1.0 : 0.0;
  };
  for (std::size_t v = 0; v < v_count; ++v) f[1 + v] = bit(v);
  std::size_t k = 1 + v_count;
  for (std::size_t i = 0; i < v_count; ++i)
    for (std::size_t j = i + 1; j < v_count; ++j) f[k++] = bit(i) * bit(j);
  return f;
}

void SurrogateModel::TryFitCounts() {
  // Exact fit (no ridge): the counts of every straight-line kernel are an
  // integer-valued quadratic in the mask bits, so the model is only trusted
  // when it reproduces EVERY observed mask exactly after rounding.
  util::LinearModelFit fits[4];
  for (int field = 0; field < 4; ++field) {
    fits[field] =
        util::FitLinearModel(counts_rows_, counts_targets_[field], 0.0);
    if (!fits[field].Ok()) return;
  }
  for (std::size_t i = 0; i < counts_rows_.size(); ++i) {
    for (int field = 0; field < 4; ++field) {
      const double pred = fits[field].Predict(counts_rows_[i]);
      if (!std::isfinite(pred) ||
          std::abs(pred - counts_targets_[field][i]) >= 0.5)
        return;
    }
  }
  for (int field = 0; field < 4; ++field) counts_fits_[field] = fits[field];
  counts_model_ok_ = true;
}

bool SurrogateModel::PredictCounts(const MaskKey& mask,
                                   energy::OpCounts* out) const {
  if (!counts_model_ok_) return false;
  const std::vector<double> f = MaskFeatures(mask);
  for (int field = 0; field < 4; ++field) {
    const double pred = counts_fits_[field].Predict(f);
    if (!std::isfinite(pred)) return false;
    const double rounded = std::round(pred);
    if (rounded < 0.0) return false;
    SetCountField(*out, field, static_cast<std::uint64_t>(rounded));
  }
  return true;
}

void SurrogateModel::Refit() {
  fit_ = util::FitLinearModel(rows_, targets_, options_.ridge_lambda);
  if (!fit_.Ok()) return;
  double max_residual = 0.0;
  for (std::size_t i = 0; i < rows_.size(); ++i)
    max_residual = std::max(max_residual,
                            std::abs(fit_.Predict(rows_[i]) - targets_[i]));
  margin_ = std::max(options_.margin_factor *
                         std::max({max_residual, prequential_max_,
                                   options_.residual_floor}),
                     calibration_floor_);
}

void SurrogateModel::Observe(const Configuration& config,
                             const instrument::Measurement& m) {
  if (!FitsShape(shape_, config))
    throw std::invalid_argument(
        "SurrogateModel::Observe: configuration does not fit the space");

  // Margin self-calibration against every ground truth BEFORE it joins the
  // training set. This is an honest out-of-sample (prequential) error of
  // exactly the model a skip of this configuration would have used — audits
  // routinely route confident configurations through here, so the skip
  // region itself is probed. Two floors, both permanent:
  //   * the running max prequential error scales the margin like the
  //     training residuals do, but without their optimism;
  //   * a confidently-misclassified observation pushes the margin past its
  //     own confidence (with headroom) so that exact mistake cannot recur.
  if (fit_.Ok()) {
    const double pred = fit_.Predict(Features(config));
    if (std::isfinite(pred)) {
      const double y = std::clamp(std::log(std::max(m.delta_acc, 0.0) + kEps),
                                  cut_ - kClampBelow, cut_ + kClampAbove);
      prequential_max_ = std::max(prequential_max_, std::abs(pred - y));
      const bool pred_infeasible = pred > cut_;
      const bool true_infeasible = m.delta_acc > acc_threshold_;
      if (pred_infeasible != true_infeasible)
        calibration_floor_ =
            std::max(calibration_floor_, 1.25 * std::abs(pred - cut_));
      margin_ = std::max(
          options_.margin_factor *
              std::max(prequential_max_, options_.residual_floor),
          calibration_floor_);
    }
  }

  // Learn (or cross-check) the operation counts of this variable mask. The
  // op split depends only on which variables are selected, not on the
  // operator choice — if two runs with the same mask ever disagree, that
  // assumption is wrong for this kernel and exact-cost prediction is
  // impossible: stop skipping permanently.
  const auto [it, inserted] = mask_counts_.emplace(MaskKeyOf(config), m.counts);
  if (!inserted && !(it->second == m.counts)) counts_unstable_ = true;
  if (inserted && counts_dim_ > 0) {
    // A validated quadratic counts model must keep matching reality: one
    // off-model mask means its predictions cannot be trusted anywhere.
    if (counts_model_ok_) {
      energy::OpCounts predicted;
      if (!PredictCounts(it->first, &predicted) || !(predicted == m.counts))
        counts_unstable_ = true;
    }
    counts_rows_.push_back(MaskFeatures(it->first));
    for (int field = 0; field < 4; ++field)
      counts_targets_[field].push_back(
          static_cast<double>(CountField(m.counts, field)));
    if (!counts_model_ok_ && !counts_unstable_ &&
        counts_rows_.size() >= counts_dim_ &&
        (counts_rows_.size() - counts_dim_) % kCountsFitInterval == 0)
      TryFitCounts();
  }

  // Record the ground truth as a dominance witness, keeping each set an
  // antichain: the feasible side only Pareto-maximal points (the most
  // aggressive configurations known feasible), the infeasible side only
  // Pareto-minimal ones — anything else witnesses nothing those cannot.
  {
    const Point point = PointOf(config);
    if (m.delta_acc <= acc_threshold_) {
      bool covered = false;
      for (const Point& q : feasible_witnesses_)
        if (Dominates(q, point)) { covered = true; break; }
      if (!covered) {
        std::erase_if(feasible_witnesses_,
                      [&](const Point& q) { return Dominates(point, q); });
        feasible_witnesses_.push_back(point);
      }
    } else {
      bool covered = false;
      for (const Point& q : infeasible_witnesses_)
        if (Dominates(point, q)) { covered = true; break; }
      if (!covered) {
        std::erase_if(infeasible_witnesses_,
                      [&](const Point& q) { return Dominates(q, point); });
        infeasible_witnesses_.push_back(point);
      }
    }
  }

  rows_.push_back(Features(config));
  targets_.push_back(std::clamp(
      std::log(std::max(m.delta_acc, 0.0) + kEps), cut_ - kClampBelow,
      cut_ + kClampAbove));

  const std::size_t interval = std::max<std::size_t>(options_.refit_interval, 1);
  if (rows_.size() >= min_samples_ &&
      (rows_.size() - min_samples_) % interval == 0)
    Refit();
}

const instrument::Measurement* SurrogateModel::Lookup(
    const Configuration& config) const {
  const auto it = predicted_.find(FullKeyOf(config));
  return it == predicted_.end() ? nullptr : &it->second;
}

bool SurrogateModel::TrySkip(const Configuration& config,
                             instrument::Measurement* out) {
  if (acc_threshold_ <= 0.0 || counts_unstable_ || !fit_.Ok()) return false;
  // Never skip the states with special roles in Algorithm 1: the all-precise
  // direction (empty mask, trivially feasible) and the saturation terminate
  // state.
  if (config.NoneSelected() || IsSaturation(config)) return false;
  // Exact operation counts of this configuration's mask: the ground-truth
  // memo first, the validated quadratic model for unseen masks.
  energy::OpCounts counts;
  const auto counts_it = mask_counts_.find(MaskKeyOf(config));
  if (counts_it != mask_counts_.end()) {
    counts = counts_it->second;
  } else if (!PredictCounts(MaskKeyOf(config), &counts)) {
    return false;
  }

  const double pred = fit_.Predict(Features(config));
  if (!std::isfinite(pred) || std::abs(pred - cut_) <= margin_) return false;

  // Independent structural confirmation: a dominance witness on the
  // predicted side. A feasible skip needs an observed feasible point at
  // least as aggressive as the candidate; an infeasible skip an observed
  // infeasible point at most as aggressive.
  const Point point = PointOf(config);
  bool witnessed = false;
  if (pred < cut_) {
    for (const Point& q : feasible_witnesses_)
      if (Dominates(q, point)) { witnessed = true; break; }
  } else {
    for (const Point& q : infeasible_witnesses_)
      if (Dominates(point, q)) { witnessed = true; break; }
  }
  if (!witnessed) return false;

  // Skip-eligible. Deterministic audit: every Nth eligible configuration is
  // executed anyway, feeding the model a ground truth exactly where it is
  // most confident.
  ++audit_counter_;
  if (options_.audit_period > 0 && audit_counter_ % options_.audit_period == 0)
    return false;

  // Predicted Δacc = exp(pred) - kEps lands on the same side of the
  // threshold as the prediction: pred > cut_ + margin_ puts it strictly
  // above acc_threshold, pred < cut_ - margin_ strictly below (margin_ > 0).
  // ConsiderBest and the reward therefore classify the point exactly as a
  // correct true measurement would.
  instrument::Measurement m;
  m.counts = counts;
  m.delta_acc = std::max(std::exp(std::min(pred, 700.0)) - kEps, 0.0);
  const energy::CostEstimate approx_cost = energy_->Cost(
      m.counts, config.AdderIndex(), config.MultiplierIndex());
  m.approx_power_mw = approx_cost.power_mw;
  m.approx_time_ns = approx_cost.time_ns;
  m.precise_power_mw = precise_power_mw_;
  m.precise_time_ns = precise_time_ns_;
  m.delta_power_mw = precise_power_mw_ - approx_cost.power_mw;
  m.delta_time_ns = precise_time_ns_ - approx_cost.time_ns;

  predicted_.emplace(FullKeyOf(config), m);
  *out = m;
  return true;
}

void SurrogateModel::Invalidate(const Configuration& config) {
  predicted_.erase(FullKeyOf(config));
}

}  // namespace axdse::dse
