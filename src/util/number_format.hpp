#pragma once
// Deterministic number formatting shared by the request serializer and the
// batch exporters (their outputs are byte-compared by the determinism
// tests, so both must use the exact same formatter), plus the strict
// inverse parsers used by the checkpoint loader.

#include <cstdint>
#include <string>
#include <string_view>

namespace axdse::util {

/// Shortest decimal representation that round-trips through strtod
/// (std::to_chars shortest form). "0.1" stays "0.1", not "0.1000…01".
std::string ShortestDouble(double value);

/// Strict inverse of ShortestDouble: the whole token must parse as a double.
/// NaN tokens are always rejected; infinities only pass when
/// `allow_nonfinite` is set (legitimate for ObjectiveRange sentinels and
/// raw measurements). Throws std::invalid_argument with `what` as context.
double ParseDoubleToken(std::string_view token, const char* what,
                        bool allow_nonfinite = false);

/// Strict decimal std::uint64_t parser (whole token, no sign). Throws
/// std::invalid_argument with `what` as context.
std::uint64_t ParseUnsignedToken(std::string_view token, const char* what);

}  // namespace axdse::util
