#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace kwikr::benchmark {

/// One flat JSON object of string and number fields, written as one line.
/// Every raw measurement kwikr_benchmark prints is such a line, tagged with a
/// "kind", so the report and A/B modes can re-read the output of many
/// processes without a JSON library. Nested values are not supported.
class Record {
 public:
  Record& Set(std::string key, double value);
  Record& Set(std::string key, std::string value);

  /// The number under `key`, or `fallback` when absent or not a number.
  [[nodiscard]] double Num(std::string_view key, double fallback = 0.0) const;
  /// The string under `key`, or "" when absent or not a string.
  [[nodiscard]] std::string Str(std::string_view key) const;

  /// `{"k":v,...}` in insertion order; numbers keep all 17 significant
  /// digits so a re-read value is bit-identical.
  [[nodiscard]] std::string ToLine() const;

  /// Strict parse of a line written by ToLine; nullopt on anything else.
  static std::optional<Record> Parse(std::string_view line);

 private:
  using Value = std::variant<double, std::string>;
  const Value* Find(std::string_view key) const;

  std::vector<std::pair<std::string, Value>> fields_;
};

/// Reads every Record line of a file (other lines are skipped); nullopt when
/// the file cannot be opened.
std::optional<std::vector<Record>> ReadRecords(const std::string& path);

}  // namespace kwikr::benchmark
