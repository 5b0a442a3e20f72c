#pragma once
// Measures the error characteristics of an operator over its nominal
// input domain — exhaustively when the domain is small enough, by seeded
// uniform sampling otherwise. Used by tests (ordering/magnitude assertions)
// and by bench/table1+2 (published-vs-measured columns).

#include <cstddef>
#include <cstdint>

#include "axc/operators.hpp"
#include "metrics/error_metrics.hpp"

namespace axdse::axc {

/// Error characteristics of one operator over (a subset of) its input domain.
struct Characterization {
  double mred = 0.0;        ///< mean relative error distance
  double mae = 0.0;         ///< mean absolute error
  double error_rate = 0.0;  ///< fraction of erroneous outputs
  double worst_case = 0.0;  ///< max absolute error
  double mean_error = 0.0;  ///< signed bias (positive: underestimates)
  std::size_t samples = 0;  ///< number of (a,b) pairs evaluated
  bool exhaustive = false;  ///< true if the full domain was enumerated
};

/// Characterizes an adder over `bits`-wide unsigned operand pairs.
/// If 4^bits <= max_samples the domain is enumerated exhaustively; otherwise
/// `max_samples` uniform pairs are drawn with the given seed.
Characterization CharacterizeAdder(const AddOpDescriptor& adder, int bits,
                                   std::size_t max_samples,
                                   std::uint64_t seed = 0x5EED);

/// Characterizes a multiplier over `bits`-wide unsigned operand pairs
/// (same exhaustive/sampled rule as CharacterizeAdder).
Characterization CharacterizeMultiplier(const MulOpDescriptor& multiplier,
                                        int bits, std::size_t max_samples,
                                        std::uint64_t seed = 0x5EED);

}  // namespace axdse::axc
