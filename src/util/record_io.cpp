#include "util/record_io.hpp"

#include <cerrno>
#include <charconv>
#include <limits>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/number_format.hpp"

namespace axdse::util {

namespace {

constexpr const char* kHexDigits = "0123456789abcdef";

bool IsSeparator(char c) noexcept { return c == ' ' || c == '\t' || c == '\r'; }

/// Splits `line` on runs of space, tab and CR into `tokens` (cleared first).
void SplitRecord(std::string_view line,
                 std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && IsSeparator(line[i])) ++i;
    const std::size_t begin = i;
    while (i < line.size() && !IsSeparator(line[i])) ++i;
    if (i > begin) tokens.push_back(line.substr(begin, i - begin));
  }
}

bool MustEscape(char c, std::string_view also) noexcept {
  switch (c) {
    case '%':
    case ' ':
    case '\t':
    case '\n':
    case '\r':
      return true;
    default:
      return also.find(c) != std::string_view::npos;
  }
}

void FormatHex16(std::uint64_t value, char* out) noexcept {
  for (int i = 15; i >= 0; --i) {
    out[i] = kHexDigits[value & 0xF];
    value >>= 4;
  }
}

}  // namespace

std::string Hex16(std::uint64_t value) {
  char buffer[16];
  FormatHex16(value, buffer);
  return std::string(buffer, sizeof(buffer));
}

int HexDigit(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void AppendEscaped(std::string& out, std::string_view text,
                   std::string_view also) {
  for (const char c : text) {
    if (MustEscape(c, also)) {
      const auto byte = static_cast<unsigned char>(c);
      out.push_back('%');
      out.push_back(kHexDigits[byte >> 4]);
      out.push_back(kHexDigits[byte & 0xF]);
    } else {
      out.push_back(c);
    }
  }
}

std::string Unescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '%' && i + 2 < text.size()) {
      const int high = HexDigit(text[i + 1]);
      const int low = HexDigit(text[i + 2]);
      if (high >= 0 && low >= 0) {
        out.push_back(static_cast<char>(high * 16 + low));
        i += 2;
        continue;
      }
    }
    out.push_back(text[i]);
  }
  return out;
}

std::optional<std::string> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::string content;
  struct stat info {};
  if (::fstat(fd, &info) == 0 && info.st_size > 0)
    content.reserve(static_cast<std::size_t>(info.st_size));
  char buffer[16384];
  while (true) {
    const ::ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;
    content.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return content;
}

// --- RecordWriter -----------------------------------------------------------

RecordWriter::RecordWriter(const char* kind, unsigned version) {
  out_ << "axdse-" << kind << " v";
  WriteNumber(version);
  open_ = true;
}

void RecordWriter::WriteNumber(std::uint64_t value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out_.write(buffer, result.ptr - buffer);
}

void RecordWriter::CloseLine() {
  if (open_) out_.put('\n');
  open_ = false;
}

RecordWriter& RecordWriter::Line(const char* tag) {
  CloseLine();
  out_ << tag;
  open_ = true;
  return *this;
}

RecordWriter& RecordWriter::U64(std::uint64_t value) {
  out_.put(' ');
  WriteNumber(value);
  return *this;
}

RecordWriter& RecordWriter::Double(double value) {
  char buffer[64];  // ample for the shortest form of any double
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out_.put(' ');
  out_.write(buffer, result.ptr - buffer);
  return *this;
}

RecordWriter& RecordWriter::Hex64(std::uint64_t value) {
  char buffer[16];
  FormatHex16(value, buffer);
  out_.put(' ');
  out_.write(buffer, sizeof(buffer));
  return *this;
}

RecordWriter& RecordWriter::Text(std::string_view text) {
  out_.put(' ');
  if (text.empty()) {
    out_.put('-');
  } else if (text == "-") {
    out_ << "%2d";
  } else {
    scratch_.clear();
    AppendEscaped(scratch_, text);
    out_ << scratch_;
  }
  return *this;
}

RecordWriter& RecordWriter::Word(std::string_view word) {
  out_.put(' ');
  out_ << word;
  return *this;
}

std::string RecordWriter::End() {
  Line("end");
  return Take();
}

std::string RecordWriter::Take() {
  CloseLine();
  return out_.str();
}

// --- RecordReader -----------------------------------------------------------

void RecordReader::Fail(const std::string& message) const {
  throw RecordError("line " + std::to_string(line_) + ": " + message);
}

bool RecordReader::NextLine(std::string_view& line) {
  if (pos_ >= text_.size()) return false;
  ++line_;
  const std::size_t newline = text_.find('\n', pos_);
  if (newline == std::string_view::npos)
    Fail("truncated: the last line has no newline");
  line = text_.substr(pos_, newline - pos_);
  pos_ = newline + 1;
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return true;
}

void RecordReader::ExpectHeader(const char* kind, unsigned version) {
  const std::string tag = std::string("axdse-") + kind;
  const std::string_view found = Expect(tag, 1).Word("format version");
  std::string expected = "v";
  expected += std::to_string(version);
  if (found != expected)
    Fail("format version mismatch: found '" + std::string(found) +
         "', this build reads '" + expected + "'");
}

RecordCursor RecordReader::Expect(std::string_view tag) {
  std::string_view line;
  if (!NextLine(line)) {
    ++line_;
    Fail("truncated: expected '" + std::string(tag) +
         "', found end of input");
  }
  SplitRecord(line, tokens_);
  if (tokens_.empty() || tokens_.front() != tag)
    Fail("expected '" + std::string(tag) + "', found '" +
         (tokens_.empty() ? std::string("<empty>")
                          : std::string(tokens_.front())) +
         "'");
  return RecordCursor(*this);
}

RecordCursor RecordReader::Expect(std::string_view tag, std::size_t count) {
  RecordCursor cursor = Expect(tag);
  if (cursor.Remaining() != count)
    Fail(std::string(tag) + " expects " + std::to_string(count) +
         " values, found " + std::to_string(cursor.Remaining()));
  return cursor;
}

std::string_view RecordReader::ExpectRest(std::string_view tag) {
  std::string_view line;
  if (!NextLine(line)) {
    ++line_;
    Fail("truncated: expected '" + std::string(tag) +
         "', found end of input");
  }
  if (line.size() <= tag.size() + 1 || line.substr(0, tag.size()) != tag ||
      line[tag.size()] != ' ')
    Fail("expected '" + std::string(tag) + " <value>'");
  return line.substr(tag.size() + 1);
}

std::string_view RecordReader::PeekTag() const {
  std::size_t begin = pos_;
  while (begin < text_.size() && IsSeparator(text_[begin])) ++begin;
  std::size_t end = begin;
  while (end < text_.size() && !IsSeparator(text_[end]) && text_[end] != '\n')
    ++end;
  return text_.substr(begin, end - begin);
}

void RecordReader::ExpectEnd() {
  Expect("end", 0);
  ExpectEof();
}

void RecordReader::ExpectEof() {
  if (pos_ < text_.size()) {
    ++line_;
    Fail("trailing content after the last record");
  }
}

// --- RecordCursor -----------------------------------------------------------

std::string_view RecordCursor::Next(const char* what) {
  if (pos_ >= reader_->tokens_.size())
    reader_->Fail(std::string("missing value for ") + what);
  return reader_->tokens_[pos_++];
}

std::size_t RecordCursor::Remaining() const noexcept {
  return reader_->tokens_.size() - pos_;
}

std::uint64_t RecordCursor::U64(const char* what) {
  const std::string_view token = Next(what);
  try {
    return ParseUnsignedToken(token, what);
  } catch (const std::invalid_argument& error) {
    reader_->Fail(error.what());
  }
}

double RecordCursor::ParseDouble(const char* what, bool allow_nonfinite) {
  const std::string_view token = Next(what);
  try {
    return ParseDoubleToken(token, what, allow_nonfinite);
  } catch (const std::invalid_argument& error) {
    reader_->Fail(error.what());
  }
}

std::size_t RecordCursor::Size(const char* what) {
  return static_cast<std::size_t>(U64(what));
}

std::size_t RecordCursor::Count(const char* what) {
  const std::size_t count = Size(what);
  if (count > reader_->RemainingBytes())
    reader_->Fail(std::string(what) + " " + std::to_string(count) +
                  " exceeds the records left in the document");
  return count;
}

double RecordCursor::Finite(const char* what) {
  return ParseDouble(what, /*allow_nonfinite=*/false);
}

double RecordCursor::NonNan(const char* what) {
  return ParseDouble(what, /*allow_nonfinite=*/true);
}

double RecordCursor::Any(const char* what) {
  if (pos_ < reader_->tokens_.size()) {
    const std::string_view token = reader_->tokens_[pos_];
    if (token == "nan" || token == "-nan") {
      ++pos_;
      return std::numeric_limits<double>::quiet_NaN();
    }
  }
  return NonNan(what);
}

bool RecordCursor::Flag(const char* what) {
  const std::uint64_t value = U64(what);
  if (value > 1) reader_->Fail(std::string(what) + " must be 0 or 1");
  return value == 1;
}

std::uint64_t RecordCursor::Hex64(const char* what) {
  const std::string_view token = Next(what);
  const auto fail = [&] {
    Fail(std::string(what) + ": '" + std::string(token) +
         "' is not 16 lowercase hex digits");
  };
  if (token.size() != 16) fail();
  std::uint64_t value = 0;
  for (const char c : token) {
    const int digit = (c >= 'A' && c <= 'F') ? -1 : HexDigit(c);
    if (digit < 0) fail();
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  return value;
}

std::string RecordCursor::Text(const char* what) {
  const std::string_view token = Next(what);
  return token == "-" ? std::string() : Unescape(token);
}

std::string_view RecordCursor::Word(const char* what) { return Next(what); }

void RecordCursor::Done(const char* where) const {
  if (pos_ != reader_->tokens_.size())
    Fail(std::string("trailing values after ") + where);
}

void RecordCursor::Fail(const std::string& message) const {
  reader_->Fail(message);
}

}  // namespace axdse::util
