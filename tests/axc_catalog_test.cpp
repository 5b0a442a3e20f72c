// Tests for axc/catalog + characterization: Table I/II data fidelity,
// accuracy ordering, and behavioral-model calibration quality.

#include "axc/catalog.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "axc/characterization.hpp"
#include "axc/operators.hpp"

namespace axdse::axc {
namespace {

const EvoApproxCatalog& Catalog() { return EvoApproxCatalog::Instance(); }

TEST(Catalog, HasAllPaperOperators) {
  EXPECT_EQ(Catalog().Adders8().size(), 6u);
  EXPECT_EQ(Catalog().Adders16().size(), 6u);
  EXPECT_EQ(Catalog().Multipliers8().size(), 6u);
  EXPECT_EQ(Catalog().Multipliers32().size(), 6u);
}

TEST(Catalog, Adder8TypeCodesMatchTable1) {
  const auto& adders = Catalog().Adders8();
  const std::vector<std::string> expected = {"1HG", "6PT", "6R6",
                                             "0TP", "00M", "02Y"};
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(adders[i].type_code, expected[i]);
}

TEST(Catalog, Adder16TypeCodesMatchTable1) {
  const auto& adders = Catalog().Adders16();
  const std::vector<std::string> expected = {"1A5", "0GN", "0BC",
                                             "0HE", "0SL", "067"};
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(adders[i].type_code, expected[i]);
}

TEST(Catalog, Multiplier8TypeCodesMatchTable2) {
  const auto& muls = Catalog().Multipliers8();
  const std::vector<std::string> expected = {"1JJQ", "4X5",  "GTR",
                                             "L93",  "18UH", "17MJ"};
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(muls[i].type_code, expected[i]);
}

TEST(Catalog, Multiplier32TypeCodesMatchTable2) {
  const auto& muls = Catalog().Multipliers32();
  const std::vector<std::string> expected = {"precise", "000", "018",
                                             "043",     "053", "067"};
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(muls[i].type_code, expected[i]);
}

TEST(Catalog, PublishedValuesSpotChecks) {
  // A few exact rows from the paper's tables.
  const auto& a8 = Catalog().Adders8();
  EXPECT_DOUBLE_EQ(a8[0].power_mw, 0.033);
  EXPECT_DOUBLE_EQ(a8[0].time_ns, 0.63);
  EXPECT_DOUBLE_EQ(a8[4].published_mred_pct, 14.58);  // 00M
  EXPECT_DOUBLE_EQ(a8[5].power_mw, 0.0015);           // 02Y

  const auto& m8 = Catalog().Multipliers8();
  EXPECT_DOUBLE_EQ(m8[0].power_mw, 0.391);   // 1JJQ
  EXPECT_DOUBLE_EQ(m8[2].time_ns, 1.46);     // GTR is slower than exact!
  EXPECT_DOUBLE_EQ(m8[5].published_mred_pct, 53.17);  // 17MJ

  const auto& m32 = Catalog().Multipliers32();
  EXPECT_DOUBLE_EQ(m32[0].power_mw, 10.76);
  EXPECT_DOUBLE_EQ(m32[3].published_mred_pct, 1.45);  // 043
  EXPECT_DOUBLE_EQ(m32[5].time_ns, 1.750);            // 067
}

TEST(Catalog, PublishedMredIsNonDecreasingInEveryList) {
  const auto check_adders = [](const std::vector<AdderSpec>& specs) {
    for (std::size_t i = 1; i < specs.size(); ++i)
      EXPECT_GE(specs[i].published_mred_pct, specs[i - 1].published_mred_pct);
  };
  const auto check_muls = [](const std::vector<MultiplierSpec>& specs) {
    for (std::size_t i = 1; i < specs.size(); ++i)
      EXPECT_GE(specs[i].published_mred_pct, specs[i - 1].published_mred_pct);
  };
  check_adders(Catalog().Adders8());
  check_adders(Catalog().Adders16());
  check_muls(Catalog().Multipliers8());
  check_muls(Catalog().Multipliers32());
}

TEST(Catalog, PowerAndTimeDecreaseWithAggressiveness) {
  // The paper's tables are ordered by increasing MRED; power must be
  // non-increasing down each list (that is the whole trade-off).
  const auto check_adders = [](const std::vector<AdderSpec>& specs) {
    for (std::size_t i = 1; i < specs.size(); ++i)
      EXPECT_LE(specs[i].power_mw, specs[i - 1].power_mw);
  };
  check_adders(Catalog().Adders8());
  check_adders(Catalog().Adders16());
  const auto& m8 = Catalog().Multipliers8();
  for (std::size_t i = 1; i < m8.size(); ++i)
    EXPECT_LE(m8[i].power_mw, m8[i - 1].power_mw);
  const auto& m32 = Catalog().Multipliers32();
  for (std::size_t i = 1; i < m32.size(); ++i)
    EXPECT_LE(m32[i].power_mw, m32[i - 1].power_mw);
}

TEST(Catalog, FirstEntryIsAlwaysExact) {
  Characterization c = CharacterizeAdder(Catalog().Adders8()[0].op, 8,
                                         1 << 16);
  EXPECT_DOUBLE_EQ(c.mred, 0.0);
  c = CharacterizeAdder(Catalog().Adders16()[0].op, 12, 1 << 16);
  EXPECT_DOUBLE_EQ(c.mred, 0.0);
  c = CharacterizeMultiplier(Catalog().Multipliers8()[0].op, 8, 1 << 16);
  EXPECT_DOUBLE_EQ(c.mred, 0.0);
  c = CharacterizeMultiplier(Catalog().Multipliers32()[0].op, 16,
                             1 << 16);
  EXPECT_DOUBLE_EQ(c.mred, 0.0);
}

TEST(Catalog, MeasuredMredOrderingMatchesPublishedOrdering8BitAdders) {
  const auto& specs = Catalog().Adders8();
  double previous = -1.0;
  for (const AdderSpec& spec : specs) {
    const Characterization c = CharacterizeAdder(spec.op, 8, 1 << 16);
    EXPECT_GT(c.mred, previous - 1e-12) << spec.name;
    previous = c.mred;
  }
}

TEST(Catalog, MeasuredMredOrderingMatchesPublishedOrdering16BitAdders) {
  const auto& specs = Catalog().Adders16();
  double previous = -1.0;
  for (const AdderSpec& spec : specs) {
    const Characterization c =
        CharacterizeAdder(spec.op, 16, 1 << 18, 42);
    EXPECT_GT(c.mred, previous - 1e-12) << spec.name;
    previous = c.mred;
  }
}

TEST(Catalog, MeasuredMredOrderingMatchesPublishedOrdering8BitMultipliers) {
  const auto& specs = Catalog().Multipliers8();
  double previous = -1.0;
  for (const MultiplierSpec& spec : specs) {
    const Characterization c = CharacterizeMultiplier(spec.op, 8, 1 << 16);
    EXPECT_GT(c.mred, previous - 1e-12) << spec.name;
    previous = c.mred;
  }
}

TEST(Catalog, MeasuredMredOrderingMatchesPublishedOrdering32BitMultipliers) {
  const auto& specs = Catalog().Multipliers32();
  double previous = -1.0;
  for (const MultiplierSpec& spec : specs) {
    const Characterization c =
        CharacterizeMultiplier(spec.op, 32, 1 << 18, 42);
    EXPECT_GT(c.mred, previous - 1e-12) << spec.name;
    previous = c.mred;
  }
}

TEST(Catalog, MeasuredMredWithinCalibrationBandOfPublished) {
  // Calibration contract (README "Operators"): for every non-exact operator
  // the measured MRED of the behavioral stand-in is within a factor of 2.5
  // of the published value. Exact operators must measure exactly zero.
  const double kLogBand = std::log(2.5);
  const auto check = [&](double published_pct, double measured,
                         const std::string& name) {
    if (published_pct == 0.0) {
      // "0.00" rows may measure tiny but must stay below 0.005% (their
      // printed precision).
      EXPECT_LE(measured * 100.0, 0.005) << name;
      return;
    }
    const double ratio = measured * 100.0 / published_pct;
    EXPECT_LE(std::abs(std::log(ratio)), kLogBand) << name;
  };
  for (const AdderSpec& s : Catalog().Adders8())
    check(s.published_mred_pct,
          CharacterizeAdder(s.op, 8, 1 << 16).mred, s.name);
  for (const AdderSpec& s : Catalog().Adders16())
    check(s.published_mred_pct,
          CharacterizeAdder(s.op, 16, 1 << 18, 7).mred, s.name);
  for (const MultiplierSpec& s : Catalog().Multipliers8())
    check(s.published_mred_pct,
          CharacterizeMultiplier(s.op, 8, 1 << 16).mred, s.name);
  for (const MultiplierSpec& s : Catalog().Multipliers32())
    check(s.published_mred_pct,
          CharacterizeMultiplier(s.op, 32, 1 << 18, 7).mred, s.name);
}

TEST(Catalog, OperatorSetsPairTheRightWidths) {
  const OperatorSet matmul = Catalog().MatMulSet();
  EXPECT_EQ(matmul.adders.front().bits, 8);
  EXPECT_EQ(matmul.multipliers.front().bits, 8);
  EXPECT_EQ(matmul.AdderCount(), 6u);
  EXPECT_EQ(matmul.MultiplierCount(), 6u);

  const OperatorSet fir = Catalog().FirSet();
  EXPECT_EQ(fir.adders.front().bits, 16);
  EXPECT_EQ(fir.multipliers.front().bits, 32);
}

TEST(Catalog, NamesEmbedWidthAndType) {
  EXPECT_EQ(Catalog().Adders8()[1].name, "8-bit adder 6PT");
  EXPECT_EQ(Catalog().Multipliers32()[3].name, "32-bit multiplier 043");
}

TEST(Characterize, ExhaustiveFlagSetForSmallDomains) {
  const Characterization c =
      CharacterizeAdder(Catalog().Adders8()[1].op, 8, 1 << 16);
  EXPECT_TRUE(c.exhaustive);
  EXPECT_EQ(c.samples, 65536u);
}

TEST(Characterize, SampledForLargeDomains) {
  const Characterization c =
      CharacterizeAdder(Catalog().Adders16()[1].op, 16, 10000, 3);
  EXPECT_FALSE(c.exhaustive);
  EXPECT_EQ(c.samples, 10000u);
}

TEST(Characterize, SixtyFourBitOperandsAreSampled) {
  const Characterization exact =
      CharacterizeAdder(MakeExactAdder(64), 64, 1000);
  EXPECT_FALSE(exact.exhaustive);
  EXPECT_EQ(exact.samples, 1000u);
  EXPECT_EQ(exact.mred, 0.0);
  EXPECT_EQ(exact.mae, 0.0);
  EXPECT_EQ(exact.error_rate, 0.0);

  const Characterization lower_or =
      CharacterizeAdder(MakeLowerOrAdder(64, 8), 64, 1000);
  EXPECT_FALSE(lower_or.exhaustive);
  EXPECT_TRUE(std::isfinite(lower_or.mred));
  EXPECT_TRUE(std::isfinite(lower_or.mae));
  EXPECT_TRUE(std::isfinite(lower_or.error_rate));
  EXPECT_TRUE(std::isfinite(lower_or.worst_case));
}

TEST(Characterize, DeterministicUnderSeed) {
  const auto& spec = Catalog().Multipliers32()[3];
  const Characterization a =
      CharacterizeMultiplier(spec.op, 32, 50000, 11);
  const Characterization b =
      CharacterizeMultiplier(spec.op, 32, 50000, 11);
  EXPECT_DOUBLE_EQ(a.mred, b.mred);
  EXPECT_DOUBLE_EQ(a.mae, b.mae);
}

}  // namespace
}  // namespace axdse::axc
