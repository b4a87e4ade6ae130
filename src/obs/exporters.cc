#include "obs/exporters.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace kwikr::obs {
namespace {

/// Formats a double the way both exporters need it: shortest round-trip-ish
/// representation, deterministic for identical inputs.
std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

std::string FormatCount(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  return buffer;
}

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string SanitizeMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out.front()))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

/// Prometheus label values escape backslash, double quote and newline.
std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Renders {a="x",b="y"} with an optional extra label appended; empty
/// string when there are no labels at all.
std::string LabelBlock(const Labels& labels, const char* extra_key = nullptr,
                       const std::string& extra_value = {}) {
  if (labels.empty() && extra_key == nullptr) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += SanitizeMetricName(key);
    out += "=\"";
    out += EscapeLabelValue(value);
    out += "\"";
  }
  if (extra_key != nullptr) {
    if (!first) out.push_back(',');
    out += extra_key;
    out += "=\"";
    out += extra_value;
    out += "\"";
  }
  out.push_back('}');
  return out;
}

/// Approximate sample sum of a histogram sketch from bin midpoints.
double ApproximateSum(const stats::Histogram& histogram) {
  const auto& config = histogram.config();
  const auto& counts = histogram.counts();
  if (counts.empty()) return 0.0;
  const double width =
      (config.hi - config.lo) / static_cast<double>(counts.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double midpoint = config.lo + (static_cast<double>(i) + 0.5) * width;
    sum += midpoint * static_cast<double>(counts[i]);
  }
  return sum;
}

bool WriteFile(const std::string& text, const std::string& path,
               const char* what) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "obs: cannot open %s for %s export\n", path.c_str(),
                 what);
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  return true;
}

}  // namespace

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

bool JsonUnescape(std::string_view text, std::size_t* pos, std::string* out) {
  out->clear();
  while (*pos < text.size()) {
    char c = text[(*pos)++];
    if (c == '"') return true;
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (*pos >= text.size()) return false;
    c = text[(*pos)++];
    switch (c) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        if (*pos + 4 > text.size()) return false;
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text[(*pos)++];
          value <<= 4;
          if (h >= '0' && h <= '9') {
            value |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            value |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            value |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return false;
          }
        }
        // JsonEscape only emits \u00XX (control bytes); reject the rest
        // rather than mis-decode multi-byte code points.
        if (value > 0xFF) return false;
        out->push_back(static_cast<char>(value));
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated.
}

std::string PrometheusText(const MetricsRegistry& registry) {
  const auto rows = registry.Snapshot();
  std::string out;
  std::string last_name;
  for (const auto& row : rows) {
    const std::string name = SanitizeMetricName(row.name);
    if (name != last_name) {
      out += "# TYPE ";
      out += name;
      switch (row.kind) {
        case MetricsRegistry::Row::Kind::kCounter: out += " counter"; break;
        case MetricsRegistry::Row::Kind::kGauge: out += " gauge"; break;
        case MetricsRegistry::Row::Kind::kHistogram: out += " summary"; break;
      }
      out.push_back('\n');
      last_name = name;
    }
    switch (row.kind) {
      case MetricsRegistry::Row::Kind::kCounter:
        out += name + LabelBlock(row.labels) + " " +
               FormatCount(row.counter_value) + "\n";
        break;
      case MetricsRegistry::Row::Kind::kGauge:
        out += name + LabelBlock(row.labels) + " " +
               FormatDouble(row.gauge_value) + "\n";
        break;
      case MetricsRegistry::Row::Kind::kHistogram: {
        for (const double q : {0.5, 0.9, 0.95, 0.99}) {
          out += name + LabelBlock(row.labels, "quantile", FormatDouble(q)) +
                 " " + FormatDouble(row.histogram.Percentile(q * 100.0)) +
                 "\n";
        }
        out += name + "_sum" + LabelBlock(row.labels) + " " +
               FormatDouble(ApproximateSum(row.histogram)) + "\n";
        out += name + "_count" + LabelBlock(row.labels) + " " +
               FormatCount(static_cast<std::uint64_t>(row.histogram.count())) +
               "\n";
        break;
      }
    }
  }
  return out;
}

bool WritePrometheus(const MetricsRegistry& registry,
                     const std::string& path) {
  return WriteFile(PrometheusText(registry), path, "prometheus");
}

void ChromeTraceWriter::OnSpan(const char* name, const char* category,
                               sim::Time begin, sim::Duration duration,
                               double wall_us, const SpanArgs& args) {
  TraceEvent event;
  event.phase = 'X';
  event.name = name;
  event.category = category;
  event.ts_us = sim::ToMicros(begin);
  event.dur_us = sim::ToMicros(duration);
  event.wall_us = wall_us;
  event.args.assign(args.begin(), args.end());
  events_.push_back(std::move(event));
}

void ChromeTraceWriter::OnInstant(const char* name, const char* category,
                                  sim::Time at, const SpanArgs& args) {
  TraceEvent event;
  event.phase = 'i';
  event.name = name;
  event.category = category;
  event.ts_us = sim::ToMicros(at);
  event.args.assign(args.begin(), args.end());
  events_.push_back(std::move(event));
}

void ChromeTraceWriter::OnCounter(const char* name, const char* category,
                                  sim::Time at, const SpanArgs& values) {
  TraceEvent event;
  event.phase = 'C';
  event.name = name;
  event.category = category;
  event.ts_us = sim::ToMicros(at);
  event.args.assign(values.begin(), values.end());
  events_.push_back(std::move(event));
}

std::string ChromeTraceWriter::ToJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first_event = true;
  for (const auto& event : events_) {
    if (!first_event) out.push_back(',');
    first_event = false;
    out += "{\"name\":\"" + JsonEscape(event.name) + "\"";
    out += ",\"cat\":\"" + JsonEscape(event.category) + "\"";
    out += ",\"ph\":\"";
    out.push_back(event.phase);
    out += "\",\"pid\":1,\"tid\":1";
    out += ",\"ts\":" + FormatDouble(event.ts_us);
    if (event.phase == 'X') {
      out += ",\"dur\":" + FormatDouble(event.dur_us);
    }
    if (event.phase == 'i') {
      out += ",\"s\":\"t\"";  // thread-scoped instant.
    }
    const bool has_wall = event.phase == 'X' && event.wall_us >= 0.0;
    if (!event.args.empty() || has_wall) {
      out += ",\"args\":{";
      bool first_arg = true;
      if (has_wall) {
        out += "\"wall_us\":" + FormatDouble(event.wall_us);
        first_arg = false;
      }
      for (const auto& [key, value] : event.args) {
        if (!first_arg) out.push_back(',');
        first_arg = false;
        out += "\"" + JsonEscape(key) + "\":" + FormatDouble(value);
      }
      out += "}";
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool ChromeTraceWriter::WriteJson(const std::string& path) const {
  return WriteFile(ToJson(), path, "chrome-trace");
}

}  // namespace kwikr::obs
