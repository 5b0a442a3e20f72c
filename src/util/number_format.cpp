#include "util/number_format.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace axdse::util {

std::string ShortestDouble(double value) {
  char buffer[64];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc{}) return "0";
  return std::string(buffer, ptr);
}

double ParseDoubleToken(std::string_view token, const char* what,
                        bool allow_nonfinite) {
  // std::from_chars is the exact locale-independent inverse of the
  // std::to_chars writer in ShortestDouble (strtod would mis-parse under a
  // non-C LC_NUMERIC); it also accepts the "inf"/"nan" forms to_chars emits.
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size())
    throw std::invalid_argument(std::string(what) + ": '" + std::string(token) +
                                "' is not a number");
  if (std::isnan(value))
    throw std::invalid_argument(std::string(what) + ": NaN is not allowed");
  if (!allow_nonfinite && std::isinf(value))
    throw std::invalid_argument(std::string(what) + ": '" + std::string(token) +
                                "' is not finite");
  return value;
}

std::uint64_t ParseUnsignedToken(std::string_view token, const char* what) {
  if (token.empty() || token[0] == '-' || token[0] == '+')
    throw std::invalid_argument(std::string(what) + ": '" + std::string(token) +
                                "' is not a non-negative integer");
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value, 10);
  if (ec != std::errc{} || ptr != token.data() + token.size())
    throw std::invalid_argument(std::string(what) + ": '" + std::string(token) +
                                "' is not a non-negative integer");
  return value;
}

}  // namespace axdse::util
