// Working with the operator library directly: browse the EvoApprox-named
// catalog, characterize a custom behavioral operator, and compare error
// metrics across the whole 8-bit multiplier family — useful when deciding
// which operators to expose to the DSE for a new application.
//
//   $ ./build/examples/operator_characterization

#include <cstdio>

#include "axdse.hpp"

int main() {
  using namespace axdse;
  const auto& catalog = axc::EvoApproxCatalog::Instance();

  // 1. Full error profile of the catalog's 8-bit multipliers (exhaustive).
  util::AsciiTable table(
      "8-bit multiplier error profile (exhaustive, 65536 operand pairs)");
  table.SetHeader({"operator", "model", "MRED %", "MAE", "error rate %",
                   "worst abs err", "bias"});
  for (const axc::MultiplierSpec& spec : catalog.Multipliers8()) {
    const axc::Characterization c =
        axc::CharacterizeMultiplier(spec.op, 8, std::size_t{1} << 16);
    table.AddRow({spec.type_code, axc::Describe(spec.op),
                  util::AsciiTable::Num(c.mred * 100.0, 3),
                  util::AsciiTable::Num(c.mae, 1),
                  util::AsciiTable::Num(c.error_rate * 100.0, 1),
                  util::AsciiTable::Num(c.worst_case, 0),
                  util::AsciiTable::Num(c.mean_error, 1)});
  }
  std::printf("%s\n", table.Render().c_str());

  // 2. Characterize a *custom* operator the library doesn't ship: a very
  //    coarse DRUM with 3 kept bits at 16-bit width, as a candidate for a
  //    hypothetical 16-bit multiplier slot. Any family/parameter pair is a
  //    descriptor; the factory validates the parameters.
  const axc::MulOpDescriptor custom = axc::MakeDrumMultiplier(16, 3);
  const axc::Characterization c =
      axc::CharacterizeMultiplier(custom, 16, 1 << 20, /*seed=*/99);
  std::printf("custom %s @16-bit: MRED %.2f%%, error rate %.1f%%, "
              "bias %.1f (%s, %zu samples)\n\n",
              axc::Describe(custom).c_str(), c.mred * 100.0,
              c.error_rate * 100.0, c.mean_error,
              c.exhaustive ? "exhaustive" : "sampled", c.samples);

  // 3. The trade-off table the DSE actually consumes: published power/time
  //    vs accuracy ordering.
  util::AsciiTable tradeoff("Accuracy/power trade-off (published data, "
                            "32-bit multipliers)");
  tradeoff.SetHeader({"operator", "MRED %", "power (mW)", "time (ns)",
                      "power saving vs exact %"});
  const double exact_power = catalog.Multipliers32().front().power_mw;
  for (const axc::MultiplierSpec& spec : catalog.Multipliers32()) {
    tradeoff.AddRow(
        {spec.type_code, util::AsciiTable::Num(spec.published_mred_pct, 2),
         util::AsciiTable::Num(spec.power_mw, 2),
         util::AsciiTable::Num(spec.time_ns, 3),
         util::AsciiTable::Num(100.0 * (1.0 - spec.power_mw / exact_power),
                               1)});
  }
  std::printf("%s", tradeoff.Render().c_str());
  return 0;
}
