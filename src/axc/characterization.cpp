#include "axc/characterization.hpp"

#include "axc/execution_plan.hpp"
#include "util/rng.hpp"

namespace axdse::axc {

namespace {

Characterization FromAccumulator(const metrics::ErrorAccumulator& acc,
                                 bool exhaustive) {
  Characterization c;
  c.mred = acc.Mred();
  c.mae = acc.Mae();
  c.error_rate = acc.ErrorRate();
  c.worst_case = acc.WorstCase();
  c.mean_error = acc.MeanError();
  c.samples = acc.Count();
  c.exhaustive = exhaustive;
  return c;
}

bool DomainFits(int bits, std::size_t max_samples) {
  if (bits > 20) return false;  // 4^bits would overflow any practical budget
  const std::size_t domain = std::size_t{1} << (2 * bits);
  return domain <= max_samples;
}

/// Characterizes the unsigned functor `op` against `exact` over `bits`-wide
/// operand pairs.
template <class Op, class Exact>
Characterization Characterize(const Op& op, const Exact& exact, int bits,
                              std::size_t max_samples, std::uint64_t seed) {
  metrics::ErrorAccumulator acc;
  const std::uint64_t limit = bits >= 64 ? 0 : (1ULL << bits);
  if (DomainFits(bits, max_samples)) {
    for (std::uint64_t a = 0; a < limit; ++a)
      for (std::uint64_t b = 0; b < limit; ++b)
        acc.Add(static_cast<double>(exact(a, b)),
                static_cast<double>(op(a, b)));
    return FromAccumulator(acc, /*exhaustive=*/true);
  }
  // 64-bit operands span the whole word: draw raw bits (limit wrapped to 0).
  util::Rng rng(seed);
  const auto draw = [&] {
    return bits >= 64 ? rng.NextBits() : rng.UniformBelow(limit);
  };
  for (std::size_t i = 0; i < max_samples; ++i) {
    const std::uint64_t a = draw();
    const std::uint64_t b = draw();
    acc.Add(static_cast<double>(exact(a, b)), static_cast<double>(op(a, b)));
  }
  return FromAccumulator(acc, /*exhaustive=*/false);
}

}  // namespace

Characterization CharacterizeAdder(const AddOpDescriptor& adder, int bits,
                                   std::size_t max_samples,
                                   std::uint64_t seed) {
  return WithAddOp(adder, [&](auto add) {
    return Characterize(add, ops::ExactAdd, bits, max_samples, seed);
  });
}

Characterization CharacterizeMultiplier(const MulOpDescriptor& multiplier,
                                        int bits, std::size_t max_samples,
                                        std::uint64_t seed) {
  return WithMulOp(multiplier, [&](auto mul) {
    return Characterize(mul, ops::ExactMul, bits, max_samples, seed);
  });
}

}  // namespace axdse::axc
