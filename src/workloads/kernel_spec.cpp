#include "workloads/kernel_spec.hpp"

#include <cstdint>
#include <stdexcept>

#include "util/record_io.hpp"

namespace axdse::workloads {

namespace {

/// Separators of the spec grammar, escaped on top of the record set.
constexpr const char* kSpecSeparators = ";=@{},";

[[noreturn]] void Fail(const std::string& why) {
  throw std::invalid_argument("KernelSpec: " + why);
}

std::size_t ParseSize(const std::string& text) {
  if (text.empty()) Fail("empty size after '@'");
  std::size_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') Fail("non-numeric size '" + text + "'");
    const std::size_t digit = static_cast<std::size_t>(c - '0');
    if (value > (SIZE_MAX - digit) / 10) Fail("size overflow '" + text + "'");
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace

std::string EscapeSpecComponent(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  util::AppendEscaped(out, text, kSpecSeparators);
  return out;
}

std::string UnescapeSpecComponent(const std::string& text) {
  // Stricter than the shared decoder, which leaves malformed escapes
  // literal: a spec component must use only well-formed ones.
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') continue;
    if (i + 2 >= text.size()) Fail("truncated escape in '" + text + "'");
    if (util::HexDigit(text[i + 1]) < 0 || util::HexDigit(text[i + 2]) < 0)
      Fail("bad escape in '" + text + "'");
    i += 2;
  }
  return util::Unescape(text);
}

std::string KernelSpec::ToString() const {
  std::string out = EscapeSpecComponent(name);
  if (size != 0) {
    out.push_back('@');
    out += std::to_string(size);
  }
  if (!extra.empty()) {
    out.push_back('{');
    bool first = true;
    for (const auto& [key, value] : extra) {
      if (!first) out.push_back(',');
      first = false;
      out += EscapeSpecComponent(key);
      out.push_back('=');
      out += EscapeSpecComponent(value);
    }
    out.push_back('}');
  }
  return out;
}

KernelSpec KernelSpec::Parse(const std::string& text) {
  KernelSpec spec;
  // Locate the structural markers: the extras block is a trailing {...};
  // '@' before it (if any) starts the size.
  std::size_t head_end = text.size();
  std::size_t brace = text.find('{');
  if (brace != std::string::npos) {
    if (text.back() != '}')
      Fail("extras block not terminated by '}' in '" + text + "'");
    head_end = brace;
  } else if (text.find('}') != std::string::npos) {
    Fail("stray '}' in '" + text + "'");
  }
  const std::string head = text.substr(0, head_end);
  if (head.find('}') != std::string::npos) Fail("stray '}' in '" + text + "'");
  const std::size_t at = head.find('@');
  if (at == std::string::npos) {
    spec.name = UnescapeSpecComponent(head);
  } else {
    spec.name = UnescapeSpecComponent(head.substr(0, at));
    spec.size = ParseSize(head.substr(at + 1));
  }
  if (brace != std::string::npos) {
    const std::string block = text.substr(brace + 1, text.size() - brace - 2);
    if (block.find('{') != std::string::npos)
      Fail("nested '{' in '" + text + "'");
    std::size_t start = 0;
    while (start <= block.size()) {
      std::size_t comma = block.find(',', start);
      if (comma == std::string::npos) comma = block.size();
      const std::string pair = block.substr(start, comma - start);
      start = comma + 1;
      if (pair.empty()) {
        if (block.empty()) break;  // `{}` — no extras
        Fail("empty key=value entry in '" + text + "'");
      }
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos)
        Fail("extras entry without '=' in '" + text + "'");
      std::string key = UnescapeSpecComponent(pair.substr(0, eq));
      std::string value = UnescapeSpecComponent(pair.substr(eq + 1));
      if (key.empty()) Fail("empty extras key in '" + text + "'");
      if (!spec.extra.emplace(std::move(key), value).second)
        Fail("duplicate extras key in '" + text + "'");
      if (comma == block.size()) break;
    }
  }
  return spec;
}

std::vector<std::string> SplitSpecList(const std::string& text) {
  std::vector<std::string> out;
  if (text.empty()) return out;
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || (text[i] == ',' && depth == 0)) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
      continue;
    }
    if (text[i] == '{') ++depth;
    if (text[i] == '}') --depth;
  }
  return out;
}

}  // namespace axdse::workloads
