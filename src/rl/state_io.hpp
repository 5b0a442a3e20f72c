#pragma once
// Line-oriented state (de)serialization helpers shared by the Q-table and
// agent checkpointing code. The format is deliberately strict: every line
// starts with a fixed tag and carries a fixed token layout, so truncated,
// reordered, or NaN-injected input fails loudly instead of half-loading.
// Checkpoints embed these blocks verbatim; lines split with the record
// codec's splitter (util::SplitRecord), so both layers tokenize alike.

#include <istream>
#include <ostream>
#include <string>
#include <vector>

namespace axdse::rl::state_io {

/// Reads the next line, verifies its first token equals `tag`, and returns
/// the remaining tokens. Throws std::invalid_argument on EOF, on a missing
/// tag, or on a different tag (reordered fields).
std::vector<std::string> ReadTagged(std::istream& in, const char* tag);

/// Throws std::invalid_argument unless `tokens` has exactly `count` entries.
void RequireTokens(const std::vector<std::string>& tokens, std::size_t count,
                   const char* what);

}  // namespace axdse::rl::state_io
