#include "obs/registry_io.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "obs/exporters.h"

namespace kwikr::obs {
namespace {

/// %.17g round-trips every finite double exactly (shortest form does not —
/// %.10g in the exporters is for humans, this codec is for machines).
std::string LosslessDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void AppendLabels(std::string& out, const Labels& labels) {
  out += "\"labels\":{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out += JsonEscape(key);
    out += "\":\"";
    out += JsonEscape(value);
    out.push_back('"');
  }
  out.push_back('}');
}

/// Minimal strict scanner over one canonical line. The writer above is the
/// only producer, so grammar is fixed — but every primitive still validates
/// so corruption surfaces as a parse error, never as silent garbage.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  bool Literal(std::string_view expected) {
    if (text_.substr(pos_, expected.size()) != expected) return false;
    pos_ += expected.size();
    return true;
  }

  bool String(std::string* out) {
    return Literal("\"") && JsonUnescape(text_, &pos_, out);
  }

  bool UInt64(std::uint64_t* out) {
    const std::size_t start = pos_;
    std::uint64_t value = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      const auto digit = static_cast<std::uint64_t>(text_[pos_] - '0');
      if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
        return false;  // out of range: no writer emits it.
      }
      value = value * 10 + digit;
      ++pos_;
    }
    if (pos_ == start) return false;
    *out = value;
    return true;
  }

  bool Int64(std::int64_t* out) {
    const bool negative = Literal("-");
    std::uint64_t magnitude = 0;
    if (!UInt64(&magnitude) ||
        magnitude > static_cast<std::uint64_t>(
                        std::numeric_limits<std::int64_t>::max())) {
      return false;
    }
    *out = negative ? -static_cast<std::int64_t>(magnitude)
                    : static_cast<std::int64_t>(magnitude);
    return true;
  }

  bool Double(double* out) {
    // strtod needs a terminated buffer; numbers are short.
    char buffer[64];
    std::size_t n = 0;
    while (pos_ + n < text_.size() && n + 1 < sizeof(buffer)) {
      const char c = text_[pos_ + n];
      const bool numeric = (c >= '0' && c <= '9') || c == '-' || c == '+' ||
                           c == '.' || c == 'e' || c == 'E' || c == 'i' ||
                           c == 'n' || c == 'f' || c == 'a';
      if (!numeric) break;
      buffer[n++] = c;
    }
    buffer[n] = '\0';
    char* end = nullptr;
    *out = std::strtod(buffer, &end);
    if (end == buffer) return false;
    pos_ += static_cast<std::size_t>(end - buffer);
    return true;
  }

  bool Bool(bool* out) {
    if (Literal("true")) {
      *out = true;
      return true;
    }
    if (Literal("false")) {
      *out = false;
      return true;
    }
    return false;
  }

  bool LabelsObject(Labels* out) {
    out->clear();
    if (!Literal("{")) return false;
    if (Literal("}")) return true;
    for (;;) {
      std::string key;
      std::string value;
      if (!String(&key) || !Literal(":") || !String(&value)) return false;
      out->emplace_back(std::move(key), std::move(value));
      if (Literal("}")) return true;
      if (!Literal(",")) return false;
    }
  }

  [[nodiscard]] bool AtEnd() const { return pos_ == text_.size(); }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Upper bound on a parsed histogram's bin count. The largest in-tree
/// binning has 300 bins; the bound only keeps a corrupt line from
/// allocating gigabytes before it is rejected.
constexpr std::uint64_t kMaxHistogramBins = std::uint64_t{1} << 16;

bool Fail(std::string* error, std::string_view what) {
  if (error != nullptr) *error = std::string(what);
  return false;
}

}  // namespace

std::string SerializeRegistry(const MetricsRegistry& registry) {
  std::string out;
  for (const MetricsRegistry::Row& row : registry.Snapshot()) {
    switch (row.kind) {
      case MetricsRegistry::Row::Kind::kCounter: {
        out += "{\"kind\":\"counter\",\"name\":\"";
        out += JsonEscape(row.name);
        out += "\",";
        AppendLabels(out, row.labels);
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%" PRIu64, row.counter_value);
        out += ",\"value\":";
        out += buffer;
        out += "}\n";
        break;
      }
      case MetricsRegistry::Row::Kind::kGauge: {
        out += "{\"kind\":\"gauge\",\"name\":\"";
        out += JsonEscape(row.name);
        out += "\",";
        AppendLabels(out, row.labels);
        out += ",\"set\":";
        out += row.gauge_set ? "true" : "false";
        out += ",\"value\":";
        out += LosslessDouble(row.gauge_value);
        out += "}\n";
        break;
      }
      case MetricsRegistry::Row::Kind::kHistogram: {
        const stats::Histogram& histogram = row.histogram;
        const auto& config = histogram.config();
        out += "{\"kind\":\"histogram\",\"name\":\"";
        out += JsonEscape(row.name);
        out += "\",";
        AppendLabels(out, row.labels);
        out += ",\"lo\":";
        out += LosslessDouble(config.lo);
        out += ",\"hi\":";
        out += LosslessDouble(config.hi);
        char buffer[96];
        std::snprintf(buffer, sizeof(buffer),
                      ",\"bins\":%zu,\"count\":%" PRId64, config.bins,
                      histogram.count());
        out += buffer;
        out += ",\"min\":";
        out += LosslessDouble(histogram.min());
        out += ",\"max\":";
        out += LosslessDouble(histogram.max());
        out += ",\"counts\":[";
        bool first = true;
        const auto& counts = histogram.counts();
        for (std::size_t bin = 0; bin < counts.size(); ++bin) {
          if (counts[bin] == 0) continue;
          if (!first) out.push_back(',');
          first = false;
          std::snprintf(buffer, sizeof(buffer), "[%zu,%" PRId64 "]", bin,
                        counts[bin]);
          out += buffer;
        }
        out += "]}\n";
        break;
      }
    }
  }
  return out;
}

bool MergeSerializedRegistryLine(std::string_view line, MetricsRegistry* into,
                                 std::string* error) {
  Scanner scan(line);
  std::string kind;
  std::string name;
  Labels labels;
  if (!scan.Literal("{\"kind\":") || !scan.String(&kind) ||
      !scan.Literal(",\"name\":") || !scan.String(&name) ||
      !scan.Literal(",\"labels\":")) {
    return Fail(error, "registry line: malformed header");
  }
  if (!scan.LabelsObject(&labels)) {
    return Fail(error, "registry line: malformed labels");
  }

  if (kind == "counter") {
    std::uint64_t value = 0;
    if (!scan.Literal(",\"value\":") || !scan.UInt64(&value) ||
        !scan.Literal("}") || !scan.AtEnd()) {
      return Fail(error, "registry line: malformed counter");
    }
    into->GetCounter(name, std::move(labels)).Add(value);
    return true;
  }
  if (kind == "gauge") {
    bool set = false;
    double value = 0.0;
    if (!scan.Literal(",\"set\":") || !scan.Bool(&set) ||
        !scan.Literal(",\"value\":") || !scan.Double(&value) ||
        !scan.Literal("}") || !scan.AtEnd()) {
      return Fail(error, "registry line: malformed gauge");
    }
    // Create the series even when unset (presence must survive the merge),
    // but only a set value participates in the max — the same rule as
    // MetricsRegistry::Merge.
    Gauge& gauge = into->GetGauge(name, std::move(labels));
    if (set) gauge.Max(value);
    return true;
  }
  if (kind == "histogram") {
    stats::Histogram::Config config;
    std::uint64_t bins = 0;
    std::int64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    if (!scan.Literal(",\"lo\":") || !scan.Double(&config.lo) ||
        !scan.Literal(",\"hi\":") || !scan.Double(&config.hi) ||
        !scan.Literal(",\"bins\":") || !scan.UInt64(&bins) ||
        !scan.Literal(",\"count\":") || !scan.Int64(&count) ||
        !scan.Literal(",\"min\":") || !scan.Double(&min) ||
        !scan.Literal(",\"max\":") || !scan.Double(&max) ||
        !scan.Literal(",\"counts\":[")) {
      return Fail(error, "registry line: malformed histogram");
    }
    if (bins == 0 || bins > kMaxHistogramBins || !(config.lo < config.hi)) {
      return Fail(error, "registry line: invalid histogram binning");
    }
    config.bins = static_cast<std::size_t>(bins);
    std::vector<std::int64_t> counts(config.bins, 0);
    std::int64_t total = 0;
    std::uint64_t next_bin = 0;  // the writer emits bins in strict order.
    if (!scan.Literal("]")) {
      for (;;) {
        std::uint64_t bin = 0;
        std::int64_t bin_count = 0;
        if (!scan.Literal("[") || !scan.UInt64(&bin) || !scan.Literal(",") ||
            !scan.Int64(&bin_count) || !scan.Literal("]") || bin >= bins ||
            bin < next_bin || bin_count <= 0) {
          return Fail(error, "registry line: malformed histogram bin");
        }
        if (bin_count > std::numeric_limits<std::int64_t>::max() - total) {
          return Fail(error, "registry line: histogram bin sum overflows");
        }
        counts[bin] = bin_count;
        total += bin_count;
        next_bin = bin + 1;
        if (scan.Literal("]")) break;
        if (!scan.Literal(",")) {
          return Fail(error, "registry line: malformed histogram bins");
        }
      }
    }
    if (!scan.Literal("}") || !scan.AtEnd()) {
      return Fail(error, "registry line: trailing histogram bytes");
    }
    if (total != count) {
      return Fail(error, "registry line: histogram bin sum != count");
    }
    // A series that does not exist yet is created with this binning, so
    // only an existing series can refuse the merge, and then `into` stays
    // unchanged.
    if (!into->GetHistogram(name, std::move(labels), config)
             .TryMerge(stats::Histogram::FromParts(config, std::move(counts),
                                                   count, min, max))) {
      return Fail(error,
                  "registry line: histogram binning or count conflicts with "
                  "the existing series");
    }
    return true;
  }
  return Fail(error, "registry line: unknown kind '" + kind + "'");
}

bool MergeSerializedRegistry(std::string_view jsonl, MetricsRegistry* into,
                             std::string* error) {
  std::size_t begin = 0;
  while (begin < jsonl.size()) {
    std::size_t end = jsonl.find('\n', begin);
    if (end == std::string_view::npos) {
      return Fail(error, "registry jsonl: missing trailing newline");
    }
    if (!MergeSerializedRegistryLine(jsonl.substr(begin, end - begin), into,
                                     error)) {
      return false;
    }
    begin = end + 1;
  }
  return true;
}

}  // namespace kwikr::obs
