#include "util/cli.hpp"

#include <charconv>
#include <cstdlib>
#include <stdexcept>

namespace axdse::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  bool flags_ended = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!flags_ended && arg == "--") {  // conventional end-of-flags marker
      flags_ended = true;
      continue;
    }
    if (flags_ended || arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // --name value (if the next token is not itself a flag) or bare --name.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[i + 1];
      ++i;
    } else {
      flags_[arg] = "";
    }
  }
}

bool CliArgs::Has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string CliArgs::GetString(const std::string& name,
                               std::string fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  return it->second;
}

std::int64_t CliArgs::GetInt(const std::string& name,
                             std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return fallback;
  return static_cast<std::int64_t>(v);
}

std::int64_t CliArgs::GetIntStrict(const std::string& name,
                                   std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (it->second.empty() || end == nullptr || *end != '\0')
    throw std::invalid_argument("--" + name + " expects an integer, got '" +
                                it->second + "'");
  return static_cast<std::int64_t>(v);
}

std::size_t CliArgs::GetCountStrict(const std::string& name,
                                    std::size_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& text = it->second;
  // Unlike strtoull, from_chars into an unsigned type takes no sign.
  std::size_t value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size())
    throw std::invalid_argument("--" + name +
                                " expects a non-negative integer, got '" +
                                text + "'");
  return value;
}

double CliArgs::GetDouble(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == nullptr || *end != '\0') return fallback;
  return v;
}

bool CliArgs::GetBool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  return fallback;
}

}  // namespace axdse::util
