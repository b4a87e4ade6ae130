#include "fleet/checkpoint.h"

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "obs/exporters.h"

namespace kwikr::fleet {
namespace {

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

/// Parses `"key":` at the cursor and the given integer after it. The
/// manifest is machine-written with fixed key order, so a strict sequential
/// parse doubles as a corruption check.
bool ParseU64Field(std::string_view text, std::size_t* pos,
                   std::string_view key, std::uint64_t* out) {
  const std::string expect = ",\"" + std::string(key) + "\":";
  if (text.substr(*pos, expect.size()) != expect) return false;
  *pos += expect.size();
  const std::size_t start = *pos;
  std::uint64_t value = 0;
  while (*pos < text.size() && text[*pos] >= '0' && text[*pos] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(text[*pos] - '0');
    ++*pos;
  }
  if (*pos == start) return false;
  *out = value;
  return true;
}

}  // namespace

std::string EncodeCheckpointManifest(const CheckpointManifest& manifest) {
  char buffer[512];
  std::string out = "{\"version\":1,\"fingerprint\":\"";
  out += obs::JsonEscape(manifest.fingerprint);
  out += "\"";
  std::snprintf(
      buffer, sizeof(buffer),
      ",\"shard\":%d,\"shard_count\":%d,\"worker\":%d,\"processes\":%d"
      ",\"range_begin\":%" PRIu64 ",\"range_end\":%" PRIu64
      ",\"completed\":%" PRIu64 ",\"results_bytes\":%" PRIu64
      ",\"metrics_bytes\":%" PRIu64 ",\"timeline_bytes\":%" PRIu64
      ",\"peak_rss_kb\":%" PRIu64 "}\n",
      manifest.shard, manifest.shard_count, manifest.worker,
      manifest.processes, manifest.range_begin, manifest.range_end,
      manifest.completed, manifest.results_bytes, manifest.metrics_bytes,
      manifest.timeline_bytes, manifest.peak_rss_kb);
  out += buffer;
  return out;
}

bool DecodeCheckpointManifest(std::string_view text,
                              CheckpointManifest* manifest) {
  constexpr std::string_view kHeader = "{\"version\":1,\"fingerprint\":\"";
  if (text.substr(0, kHeader.size()) != kHeader) return false;
  std::size_t pos = kHeader.size();
  CheckpointManifest parsed;
  if (!obs::JsonUnescape(text, &pos, &parsed.fingerprint)) return false;

  struct Field {
    std::string_view key;
    std::uint64_t value = 0;
  };
  Field fields[] = {
      {"shard"},        {"shard_count"},   {"worker"},
      {"processes"},    {"range_begin"},   {"range_end"},
      {"completed"},    {"results_bytes"}, {"metrics_bytes"},
      {"timeline_bytes"}, {"peak_rss_kb"},
  };
  for (Field& field : fields) {
    if (!ParseU64Field(text, &pos, field.key, &field.value)) return false;
  }

  parsed.shard = static_cast<int>(fields[0].value);
  parsed.shard_count = static_cast<int>(fields[1].value);
  parsed.worker = static_cast<int>(fields[2].value);
  parsed.processes = static_cast<int>(fields[3].value);
  parsed.range_begin = fields[4].value;
  parsed.range_end = fields[5].value;
  parsed.completed = fields[6].value;
  parsed.results_bytes = fields[7].value;
  parsed.metrics_bytes = fields[8].value;
  parsed.timeline_bytes = fields[9].value;
  parsed.peak_rss_kb = fields[10].value;
  // The field parsers are lenient (integers may wrap, narrow or carry
  // leading zeros; trailing bytes are not looked at): the manifest is
  // canonical only if encoding what was parsed reproduces it byte for byte,
  // with or without the trailing newline.
  const std::string canonical = EncodeCheckpointManifest(parsed);
  if (text != canonical &&
      text != std::string_view(canonical).substr(0, canonical.size() - 1)) {
    return false;
  }
  *manifest = std::move(parsed);
  return true;
}

bool WriteCheckpointManifest(const std::string& path,
                             const CheckpointManifest& manifest,
                             std::string* error) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Fail(error, "checkpoint: cannot open " + tmp + " for writing");
  }
  const std::string text = EncodeCheckpointManifest(manifest);
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), file) == text.size() &&
      std::fflush(file) == 0;
  std::fclose(file);
  if (!wrote) {
    std::remove(tmp.c_str());
    return Fail(error, "checkpoint: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Fail(error, "checkpoint: cannot rename " + tmp + " over " + path);
  }
  return true;
}

std::optional<CheckpointManifest> LoadCheckpointManifest(
    const std::string& path, bool* parse_failed, std::string* error) {
  if (parse_failed != nullptr) *parse_failed = false;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::string text;
  char buffer[1024];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(file);
  CheckpointManifest manifest;
  if (!DecodeCheckpointManifest(text, &manifest)) {
    if (parse_failed != nullptr) *parse_failed = true;
    Fail(error, "checkpoint: " + path + " does not parse — corrupt manifest");
    return std::nullopt;
  }
  return manifest;
}

}  // namespace kwikr::fleet
