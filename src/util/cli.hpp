#pragma once
// Tiny command-line flag parser for bench/example binaries.
// Supports --name=value, --name value, and boolean --name forms; a bare
// "--" ends flag parsing (everything after it is positional).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace axdse::util {

/// Parses argv into a flag map plus positional arguments. Unknown flags are
/// kept (benches decide what they accept). Parsing never throws; the plain
/// getters fall back to defaults on malformed values, the *Strict ones
/// throw.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  bool Has(const std::string& name) const;

  /// String value of --name, or `fallback` if absent.
  std::string GetString(const std::string& name, std::string fallback) const;

  /// Integer value of --name, or `fallback` if absent/unparsable.
  std::int64_t GetInt(const std::string& name, std::int64_t fallback) const;

  /// Strict integer: like GetInt, but a flag that is PRESENT with an empty
  /// or unparsable value throws std::invalid_argument instead of silently
  /// returning the fallback. Use for flags where a typo must not be masked
  /// by a default — e.g. a daemon's --port, where "--port=0" legitimately
  /// asks for an ephemeral port and "--port=auto" is an error, not 4711.
  std::int64_t GetIntStrict(const std::string& name,
                            std::int64_t fallback) const;

  /// GetIntStrict for non-negative counts: a sign or a value beyond size_t
  /// throws too, so "-1" never wraps to 2^64-1.
  std::size_t GetCountStrict(const std::string& name,
                             std::size_t fallback) const;

  /// Double value of --name, or `fallback` if absent/unparsable.
  double GetDouble(const std::string& name, double fallback) const;

  /// Boolean: --name / --name=true|1 => true; --name=false|0 => false.
  bool GetBool(const std::string& name, bool fallback) const;

  /// Non-flag arguments in order.
  const std::vector<std::string>& Positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace axdse::util
