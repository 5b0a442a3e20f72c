#include "axc/catalog.hpp"

namespace axdse::axc {

namespace {

AdderSpec MakeAdderSpec(std::string type_code, int bits, double mred_pct,
                        double power_mw, double time_ns, AddOpDescriptor op) {
  AdderSpec spec;
  spec.name = std::to_string(bits) + "-bit adder " + type_code;
  spec.type_code = std::move(type_code);
  spec.bits = bits;
  spec.published_mred_pct = mred_pct;
  spec.power_mw = power_mw;
  spec.time_ns = time_ns;
  spec.op = op;
  return spec;
}

MultiplierSpec MakeMultiplierSpec(std::string type_code, int bits,
                                  double mred_pct, double power_mw,
                                  double time_ns, MulOpDescriptor op) {
  MultiplierSpec spec;
  spec.name = std::to_string(bits) + "-bit multiplier " + type_code;
  spec.type_code = std::move(type_code);
  spec.bits = bits;
  spec.published_mred_pct = mred_pct;
  spec.power_mw = power_mw;
  spec.time_ns = time_ns;
  spec.op = op;
  return spec;
}

}  // namespace

const EvoApproxCatalog& EvoApproxCatalog::Instance() {
  static const EvoApproxCatalog catalog;
  return catalog;
}

EvoApproxCatalog::EvoApproxCatalog() {
  // --- Table I: adders (published MRED %, power mW, time ns) ---------------
  // Behavioral substitutes calibrated offline: measured MRED keeps the
  // published ordering and stays within a factor of 2.5 of the published
  // value (asserted in tests/axc_catalog_test.cpp).
  adders8_ = {
      MakeAdderSpec("1HG", 8, 0.0, 0.033, 0.63, MakeExactAdder(8)),
      MakeAdderSpec("6PT", 8, 0.14, 0.029, 0.55, MakeLowerOrAdder(8, 1)),
      MakeAdderSpec("6R6", 8, 2.93, 0.012, 0.27, MakeLowerOrAdder(8, 5)),
      MakeAdderSpec("0TP", 8, 6.16, 0.0095, 0.24, MakeLowerOrAdder(8, 6)),
      MakeAdderSpec("00M", 8, 14.58, 0.0046, 0.17,
                    MakeTruncatedPassAAdder(8, 6)),
      MakeAdderSpec("02Y", 8, 24.87, 0.0015, 0.11,
                    MakeTruncatedPassAAdder(8, 7)),
  };
  adders16_ = {
      MakeAdderSpec("1A5", 16, 0.0, 0.072, 1.28, MakeExactAdder(16)),
      MakeAdderSpec("0GN", 16, 0.005, 0.057, 1.04, MakeLowerOrAdder(16, 3)),
      MakeAdderSpec("0BC", 16, 0.018, 0.051, 0.95, MakeLowerOrAdder(16, 5)),
      MakeAdderSpec("0HE", 16, 0.16, 0.036, 0.68, MakeLowerOrAdder(16, 8)),
      MakeAdderSpec("0SL", 16, 9.54, 0.011, 0.27,
                    MakeTruncatedZeroAdder(16, 12)),
      MakeAdderSpec("067", 16, 22.35, 0.0041, 0.20,
                    MakeTruncatedPassAAdder(16, 15)),
  };

  // --- Table II: multipliers -----------------------------------------------
  multipliers8_ = {
      MakeMultiplierSpec("1JJQ", 8, 0.0, 0.391, 1.43, MakeExactMultiplier(8)),
      MakeMultiplierSpec("4X5", 8, 0.033, 0.380, 1.40,
                         MakePpTruncatedMultiplier(8, 1)),
      MakeMultiplierSpec("GTR", 8, 1.23, 0.303, 1.46,
                         MakePpTruncatedMultiplier(8, 5)),
      MakeMultiplierSpec("L93", 8, 4.52, 0.178, 1.11,
                         MakeMitchellLogMultiplier(8)),
      MakeMultiplierSpec("18UH", 8, 17.98, 0.062, 0.90,
                         MakePpTruncatedMultiplier(8, 9)),
      MakeMultiplierSpec("17MJ", 8, 53.17, 0.0041, 0.11,
                         MakeLeadingOneMultiplier(8, 1)),
  };
  multipliers32_ = {
      MakeMultiplierSpec("precise", 32, 0.0, 10.76, 4.565,
                         MakeExactMultiplier(32)),
      MakeMultiplierSpec("000", 32, 0.00, 10.46, 4.470,
                         MakeDrumMultiplier(32, 16)),
      MakeMultiplierSpec("018", 32, 0.01, 4.32, 3.220,
                         MakeDrumMultiplier(32, 13)),
      MakeMultiplierSpec("043", 32, 1.45, 1.63, 2.440,
                         MakeDrumMultiplier(32, 6)),
      MakeMultiplierSpec("053", 32, 10.59, 1.05, 2.030,
                         MakeDrumMultiplier(32, 3)),
      MakeMultiplierSpec("067", 32, 41.25, 0.51, 1.750,
                         MakeLeadingOneMultiplier(32, 1)),
  };
}

OperatorPlan OperatorSet::Compile(std::size_t adder_index,
                                  std::size_t multiplier_index) const {
  OperatorPlan plan;
  plan.add[0] = adders.front().op;
  plan.add[1] = adders[adder_index].op;
  plan.mul[0] = multipliers.front().op;
  plan.mul[1] = multipliers[multiplier_index].op;
  for (int b = 0; b < 2; ++b) plan.table8[b] = ProductTable8(plan.mul[b]);
  return plan;
}

OperatorSet EvoApproxCatalog::MatMulSet() const {
  OperatorSet set;
  set.name = "add8/mul8";
  set.adders = adders8_;
  set.multipliers = multipliers8_;
  return set;
}

OperatorSet EvoApproxCatalog::FirSet() const {
  OperatorSet set;
  set.name = "add16/mul32";
  set.adders = adders16_;
  set.multipliers = multipliers32_;
  return set;
}

}  // namespace axdse::axc
