// Minimal JSON support shared by the telemetry JSONL sink, the bench
// harnesses' BENCH_JSON summaries, and the chaos scenario files.
//
// Emission helpers produce deterministic output (fixed escaping, fixed
// number formatting), which the telemetry determinism contract relies on:
// two runs that record the same values produce byte-identical JSON.
//
// JsonReader is the reading side: one strict pull lexer that every
// reader shares.  json_parse() builds a DOM on top of it (chaos scenario
// reproducers, golden trace files, checkpoints); typed readers such as
// telemetry::parse_agent_snapshot pull tokens straight into their own
// records.  The DOM preserves object member order (no hash containers —
// parsed documents re-serialize deterministically), and every malformed
// input is reported as a typed PreconditionError, never by crashing or
// silently misparsing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace redopt::util {

/// Escapes @p s for embedding inside a JSON string literal.  Quotes and
/// backslashes are backslash-escaped; control characters below 0x20 are
/// emitted as \uXXXX (with the conventional short forms \n, \t, \r, \b,
/// \f), so no input byte is ever lost.
std::string json_escape(const std::string& s);

/// Appends @p s to @p out as a quoted JSON string literal, escaped as
/// json_escape() does, without building a temporary.
void append_json_string(std::string& out, std::string_view s);

/// Formats @p v as a JSON number token.  Uses 17 significant digits (enough
/// to round-trip any double) and prints integral values without an
/// exponent where possible.  JSON has no NaN/Infinity, so non-finite
/// values are emitted as `null`.
std::string json_number(double v);

/// Appends json_number(@p v) to @p out without building a temporary.
void append_json_number(std::string& out, double v);

/// Prints the machine-readable single-line summary every bench harness
/// emits alongside its human-readable table:
///
///   BENCH_JSON {"bench":"R-T4","threads":1,"params":{...},"wall_s":0.42}
///
/// The BENCH_JSON prefix makes the line greppable (scripts/collect_bench.sh
/// gathers the lines across runs into BENCH_<date>.json files).
void json_summary(const std::string& name, std::size_t threads,
                  const std::map<std::string, std::string>& params, double wall_seconds);

/// A parsed JSON document node.  Objects keep their members in source
/// order so a parse → serialize round-trip is deterministic.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// Exact value for integer tokens that fit in int64 (doubles lose
  /// precision past 2^53 — chaos scenario seeds are full 63-bit values).
  bool has_integer = false;
  std::int64_t integer = 0;
  std::string string;
  std::vector<JsonValue> items;                             ///< kArray elements
  std::vector<std::pair<std::string, JsonValue>> members;   ///< kObject, source order

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  const JsonValue* find(const std::string& key) const;

  /// Checked accessors; throw PreconditionError on a kind mismatch or (for
  /// at()) a missing member.
  const JsonValue& at(const std::string& key) const;
  bool as_bool() const;
  double as_number() const;
  /// as_number() additionally checked to be an integer in [lo, hi].
  std::int64_t as_int(std::int64_t lo, std::int64_t hi) const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
};

/// A number token's value: always its double, plus the exact int64 when
/// the token is an integer that fits (no '.', 'e' or 'E').
struct JsonNumber {
  double value = 0.0;
  bool has_integer = false;
  std::int64_t integer = 0;

  /// The token as an integer in [lo, hi]: an exact integer token, or an
  /// integral double; throws PreconditionError otherwise.
  std::int64_t as_int(std::int64_t lo, std::int64_t hi) const;
};

/// Strict pull lexer over one JSON document.  Whitespace between tokens
/// is skipped; the caller drives the grammar and the lexer checks it:
///
///   reader.begin_object();
///   std::string_view key;
///   while (reader.next_member(key)) { /* read the member's value */ }
///   reader.finish();
///
/// Rejects, with a PreconditionError naming the byte offset: unterminated
/// constructs, missing or stray separators, bad escapes, lone surrogates,
/// unescaped control characters in strings, numbers that overflow double
/// or underflow to zero (subnormals are read exactly), trailing content,
/// and any value nested inside more than 64 containers.  The viewed text
/// must outlive the reader.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// The first byte of the next token; throws at the end of the input.
  char peek();

  /// Consumes '{'.  Then each next_member() either reads one member's
  /// key and the ':' after it into @p key and returns true (the caller
  /// reads the value next), or consumes the closing '}' and returns false.
  /// The key views the document (or, when it holds escapes, the reader's
  /// buffer) and is valid until the reader reads the next string.
  void begin_object();
  bool next_member(std::string_view& key);

  /// Consumes '['.  Then each next_item() returns true when an element
  /// follows (the caller reads it next), or consumes the closing ']' and
  /// returns false.
  void begin_array();
  bool next_item();

  std::string read_string();
  JsonNumber read_number();
  bool read_bool();
  void read_null();

  /// Requires that nothing but whitespace remains.
  void finish();

 private:
  [[noreturn]] void fail(const std::string& what) const;
  void skip_whitespace();
  void expect(char c);
  void check_depth() const;
  void close_container();
  std::string_view read_string_view();
  std::uint32_t read_hex4();

  std::string_view text_;
  std::string unescaped_;    ///< the last string read that held escapes
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;    ///< containers open around the next value
  bool after_open_ = false;  ///< the last token consumed was '{' or '['
};

/// Parses @p text as one JSON document (trailing whitespace allowed,
/// trailing garbage rejected) with JsonReader's strictness.
JsonValue json_parse(const std::string& text);

/// Serializes @p value compactly and deterministically: object members in
/// stored order, integer tokens printed exactly, doubles via json_number.
/// parse → serialize is a canonicalization (whitespace and number
/// spellings normalize), which the telemetry stable-projection checks use
/// to compare documents byte-for-byte.
std::string json_serialize(const JsonValue& value);

}  // namespace redopt::util
