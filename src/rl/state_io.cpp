#include "rl/state_io.hpp"

#include <stdexcept>
#include <string_view>

#include "util/record_io.hpp"

namespace axdse::rl::state_io {

std::vector<std::string> ReadTagged(std::istream& in, const char* tag) {
  std::string line;
  if (!std::getline(in, line))
    throw std::invalid_argument(std::string("truncated state: expected '") +
                                tag + "' line, found end of input");
  std::vector<std::string_view> views;
  util::SplitRecord(line, views);
  if (views.empty() || views.front() != tag)
    throw std::invalid_argument(
        std::string("malformed state: expected '") + tag + "' line, found '" +
        (views.empty() ? std::string("<empty>") : std::string(views.front())) +
        "'");
  return std::vector<std::string>(views.begin() + 1, views.end());
}

void RequireTokens(const std::vector<std::string>& tokens, std::size_t count,
                   const char* what) {
  if (tokens.size() != count)
    throw std::invalid_argument(std::string(what) + ": expected " +
                                std::to_string(count) + " fields, found " +
                                std::to_string(tokens.size()));
}

}  // namespace axdse::rl::state_io
