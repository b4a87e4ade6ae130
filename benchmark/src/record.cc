#include "record.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace kwikr::benchmark {

Record& Record::Set(std::string key, double value) {
  fields_.emplace_back(std::move(key), value);
  return *this;
}

Record& Record::Set(std::string key, std::string value) {
  fields_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Record::Value* Record::Find(std::string_view key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Record::Num(std::string_view key, double fallback) const {
  const Value* v = Find(key);
  return v != nullptr && std::holds_alternative<double>(*v)
             ? std::get<double>(*v)
             : fallback;
}

std::string Record::Str(std::string_view key) const {
  const Value* v = Find(key);
  return v != nullptr && std::holds_alternative<std::string>(*v)
             ? std::get<std::string>(*v)
             : std::string();
}

std::string Record::ToLine() const {
  std::string out = "{";
  for (const auto& [key, value] : fields_) {
    if (out.size() > 1) out += ',';
    out += '"' + key + "\":";
    if (const auto* s = std::get_if<std::string>(&value)) {
      out += '"' + *s + '"';
    } else {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.17g", std::get<double>(value));
      out += buffer;
    }
  }
  return out + "}";
}

namespace {

/// A quoted token without escapes (keys and values kwikr_benchmark writes are
/// names, hex digests and labels).
bool ParseString(std::string_view line, std::size_t* pos, std::string* out) {
  if (*pos >= line.size() || line[*pos] != '"') return false;
  const std::size_t close = line.find('"', *pos + 1);
  if (close == std::string_view::npos) return false;
  const std::string_view body = line.substr(*pos + 1, close - *pos - 1);
  if (body.find('\\') != std::string_view::npos) return false;
  *out = std::string(body);
  *pos = close + 1;
  return true;
}

}  // namespace

std::optional<Record> Record::Parse(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  if (line.size() < 2 || line.front() != '{' || line.back() != '}') {
    return std::nullopt;
  }
  Record record;
  std::size_t pos = 1;
  if (line[pos] == '}') return record;
  while (true) {
    std::string key;
    if (!ParseString(line, &pos, &key)) return std::nullopt;
    if (pos >= line.size() || line[pos] != ':') return std::nullopt;
    ++pos;
    if (pos < line.size() && line[pos] == '"') {
      std::string value;
      if (!ParseString(line, &pos, &value)) return std::nullopt;
      record.Set(std::move(key), std::move(value));
    } else {
      const std::size_t stop = line.find_first_of(",}", pos);
      if (stop == std::string_view::npos || stop == pos) return std::nullopt;
      const std::string token(line.substr(pos, stop - pos));
      char* end = nullptr;
      const double value = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size()) return std::nullopt;
      record.Set(std::move(key), value);
      pos = stop;
    }
    if (pos >= line.size()) return std::nullopt;
    if (line[pos] == '}') return pos + 1 == line.size() ? std::optional(record)
                                                        : std::nullopt;
    if (line[pos] != ',') return std::nullopt;
    ++pos;
  }
}

std::optional<std::vector<Record>> ReadRecords(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::vector<Record> records;
  std::string line;
  while (std::getline(in, line)) {
    if (auto record = Record::Parse(line)) records.push_back(std::move(*record));
  }
  return records;
}

}  // namespace kwikr::benchmark
