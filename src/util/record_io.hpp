#pragma once
// util::record_io — the one codec behind every line-oriented on-disk record
// format: job checkpoints (axdse-checkpoint), shared-cache snapshots
// (axdse-cache), campaign chunk documents (axdse-campaign-chunk), shard
// leases and manifests (axdse-shard-lease, axdse-shard-campaign) and the
// serve job manifest (axdse-serve-manifest). Each format is a schema on top
// of this module: its field order, counts and cross-field checks.
//
// Grammar:
//   document := "axdse-<kind> v<N>" LF record* ["end" LF]
//   record   := tag (" " value)* LF
// Readers split a line on any run of space, tab or CR. Text values are
// percent-escaped (%xx for '%', space, tab, CR and LF; "-" stands for the
// empty string), ids are 16 lowercase hex digits, and every line — the last
// one included — ends in LF. Parsing is strict: anything else raises
// RecordError("line N: ..."), which each format converts once, through
// ParseRecords, into its own documented error type.

#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace axdse::util {

/// Structural or value error in a record document, with its line number.
class RecordError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `value` as 16 lowercase hex digits.
std::string Hex16(std::uint64_t value);

/// Value of one hex digit (either case), or -1 for any other byte.
int HexDigit(char c) noexcept;

/// Appends `text` to `out` with '%', space, tab, CR, LF — and every byte of
/// `also` — written as %xx (lowercase hex). Record text uses the base set;
/// the request and KernelSpec token grammars add their own separators.
void AppendEscaped(std::string& out, std::string_view text,
                   std::string_view also = {});

/// Inverse of AppendEscaped for any set: "%" followed by exactly two hex
/// digits decodes to that byte; anything else stays literal.
std::string Unescape(std::string_view text);

/// Whole content of `path`; nullopt when it is missing or unreadable.
std::optional<std::string> ReadWholeFile(const std::string& path);

/// Streams one document: the header on construction, then Line(tag)
/// followed by its values, each written with a leading space.
class RecordWriter {
 public:
  RecordWriter(const char* kind, unsigned version);

  /// Ends the current line (if any) and starts a new one with `tag`.
  RecordWriter& Line(const char* tag);
  RecordWriter& U64(std::uint64_t value);
  /// Shortest round-trip form (util::ShortestDouble).
  RecordWriter& Double(double value);
  RecordWriter& Flag(bool value) { return U64(value ? 1 : 0); }
  RecordWriter& Hex64(std::uint64_t value);
  /// Escaped text; "-" for the empty string.
  RecordWriter& Text(std::string_view text);
  /// Verbatim: names, enum spellings, and the rest-of-line values that
  /// RecordReader::ExpectRest reads back.
  RecordWriter& Word(std::string_view word);

  /// The document with its "end" trailer.
  std::string End();
  /// The document without a trailer.
  std::string Take();

 private:
  void WriteNumber(std::uint64_t value);
  void CloseLine();

  std::ostringstream out_;
  std::string scratch_;
  bool open_ = false;
};

class RecordReader;

/// Sequential, typed access to one line's values. It reads the reader's
/// current line, so it is valid only until the reader's next call.
class RecordCursor {
 public:
  std::uint64_t U64(const char* what);
  std::size_t Size(const char* what);
  /// A Size that counts the records (lines) that follow; rejected when the
  /// rest of the document is too short to hold them, so a corrupt count
  /// can never drive an allocation.
  std::size_t Count(const char* what);
  double Finite(const char* what);
  /// Infinities pass (range sentinels); NaN does not.
  double NonNan(const char* what);
  /// Any double, NaN included: raw measurements may legitimately hold it.
  double Any(const char* what);
  bool Flag(const char* what);
  std::uint64_t Hex64(const char* what);
  std::string Text(const char* what);
  std::string_view Word(const char* what);

  std::size_t Remaining() const noexcept;
  /// Fails unless every value was consumed.
  void Done(const char* where) const;
  /// RecordReader::Fail, for schema checks on this line's values.
  [[noreturn]] void Fail(const std::string& message) const;

 private:
  friend class RecordReader;
  explicit RecordCursor(RecordReader& reader) : reader_(&reader) {}
  std::string_view Next(const char* what);
  double ParseDouble(const char* what, bool allow_nonfinite);

  RecordReader* reader_;
  std::size_t pos_ = 1;  // token 0 is the tag
};

/// Strict sequential reader over one document held by the caller.
class RecordReader {
 public:
  explicit RecordReader(std::string_view text) : text_(text) {}

  /// Consumes "axdse-<kind> v<version>".
  void ExpectHeader(const char* kind, unsigned version);
  /// Consumes the next line, which must start with `tag`.
  RecordCursor Expect(std::string_view tag);
  /// Same, with exactly `count` values after the tag.
  RecordCursor Expect(std::string_view tag, std::size_t count);
  /// Consumes "<tag> <rest>" and returns the non-empty <rest> verbatim.
  std::string_view ExpectRest(std::string_view tag);
  /// Tag of the next line without consuming it ("" at end of input).
  std::string_view PeekTag() const;
  /// Consumes the "end" trailer and requires end of input after it.
  void ExpectEnd();
  /// Requires end of input (documents without a trailer).
  void ExpectEof();

  [[noreturn]] void Fail(const std::string& message) const;
  std::size_t LineNumber() const noexcept { return line_; }
  std::size_t RemainingBytes() const noexcept { return text_.size() - pos_; }

 private:
  friend class RecordCursor;
  bool NextLine(std::string_view& line);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 0;
  std::vector<std::string_view> tokens_;
};

/// Runs `parse(reader)` over `text` and converts every failure — RecordError
/// and the value errors schema lookups throw — into `Error("<format>: ...")`.
/// The single place a format's documented error type is produced.
template <class Error, class Parse>
auto ParseRecords(std::string_view text, const std::string& format,
                  Parse&& parse) {
  RecordReader reader(text);
  try {
    return parse(reader);
  } catch (const RecordError& error) {
    throw Error(format + ": " + error.what());
  } catch (const std::exception& error) {
    throw Error(format + ": line " + std::to_string(reader.LineNumber()) +
                ": " + error.what());
  }
}

}  // namespace axdse::util
