#include "faults/fault_spec.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace kwikr::faults {
namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Largest millisecond value whose sim::Duration (nanoseconds) fits int64.
constexpr double kMaxMillis =
    static_cast<double>(std::numeric_limits<std::int64_t>::max() / 1'000'000);

/// Floor on a Gilbert–Elliott mean dwell (the GilbertElliott constructor's
/// own floor): below it the chain flips state per nanosecond of sim time.
constexpr double kMinGeMeanMillis = 1.0;

/// A finite decimal number (strtod's nan/inf spellings are rejected).
bool ParseDouble(std::string_view value, double* out) {
  const std::string copy(value);
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str() || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// A probability: finite and in [0, 1].
bool ParseProbability(std::string_view value, double* out) {
  double v = 0.0;
  if (!ParseDouble(value, &v) || v < 0.0 || v > 1.0) return false;
  *out = v;
  return true;
}

/// A millisecond quantity: finite, >= 0, and representable as a
/// sim::Duration once converted to nanoseconds.
bool ParseMillis(std::string_view value, double* out) {
  double v = 0.0;
  if (!ParseDouble(value, &v) || v < 0.0 || v > kMaxMillis) return false;
  *out = v;
  return true;
}

bool ParseInt64(std::string_view value, std::int64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), *out);
  return ec == std::errc() && ptr == value.data() + value.size();
}

bool ParseBool(std::string_view value, bool* out) {
  if (value == "1" || value == "true" || value == "on") {
    *out = true;
    return true;
  }
  if (value == "0" || value == "false" || value == "off") {
    *out = false;
    return true;
  }
  return false;
}

bool ParseKind(std::string_view name, FaultKind* out) {
  for (int k = 0; k < kNumFaultKinds; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (name == Name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

/// "<at_ms> <fault> on|off", e.g. "10000 ge off".
bool ParseSchedule(std::string_view value, FaultScheduleEntry* out) {
  std::istringstream in{std::string(value)};
  std::string at_text;
  std::string kind;
  std::string state;
  if (!(in >> at_text >> kind >> state)) return false;
  std::string rest;
  if (in >> rest) return false;  // trailing tokens.
  double at_ms = 0.0;
  if (!ParseMillis(at_text, &at_ms)) return false;
  if (!ParseKind(kind, &out->kind)) return false;
  if (!ParseBool(state, &out->enable)) return false;
  out->at = sim::FromSeconds(at_ms / 1000.0);
  return true;
}

}  // namespace

const char* Name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kGilbertElliott: return "ge";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kWan: return "wan";
    case FaultKind::kChurn: return "churn";
    case FaultKind::kSkew: return "skew";
    case FaultKind::kWmm: return "wmm";
  }
  return "?";
}

bool FaultSpec::any() const {
  return ge.enable || mangle.reorder_prob > 0.0 ||
         mangle.duplicate_prob > 0.0 || mangle.drop_prob > 0.0 ||
         wan.loss_prob > 0.0 || wan.jitter_prob > 0.0 ||
         wmm.mode != WmmMode::kHonest || churn.period_ms > 0.0 ||
         skew.ppm != 0.0 || skew.offset_ms != 0.0 || !schedule.empty();
}

bool ParseFaultSpec(std::string_view text, FaultSpec* spec,
                    std::string* error) {
  int line_no = 0;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    std::string_view line =
        eol == std::string_view::npos ? text : text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    ++line_no;

    line = Trim(line);
    if (line.empty() || line.front() == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": expected key=value";
      }
      return false;
    }
    const std::string_view key = Trim(line.substr(0, eq));
    const std::string_view value = Trim(line.substr(eq + 1));

    bool ok = true;
    if (key == "ge.enable") {
      ok = ParseBool(value, &spec->ge.enable);
    } else if (key == "ge.mean_good_ms") {
      ok = ParseMillis(value, &spec->ge.mean_good_ms) &&
           spec->ge.mean_good_ms >= kMinGeMeanMillis;
    } else if (key == "ge.mean_bad_ms") {
      ok = ParseMillis(value, &spec->ge.mean_bad_ms) &&
           spec->ge.mean_bad_ms >= kMinGeMeanMillis;
    } else if (key == "ge.loss_good") {
      ok = ParseProbability(value, &spec->ge.loss_good);
    } else if (key == "ge.loss_bad") {
      ok = ParseProbability(value, &spec->ge.loss_bad);
    } else if (key == "reorder.prob") {
      ok = ParseProbability(value, &spec->mangle.reorder_prob);
    } else if (key == "reorder.delay_ms") {
      ok = ParseMillis(value, &spec->mangle.reorder_delay_ms);
    } else if (key == "duplicate.prob") {
      ok = ParseProbability(value, &spec->mangle.duplicate_prob);
    } else if (key == "drop.prob") {
      ok = ParseProbability(value, &spec->mangle.drop_prob);
    } else if (key == "wan.loss_prob") {
      ok = ParseProbability(value, &spec->wan.loss_prob);
    } else if (key == "wan.jitter_prob") {
      ok = ParseProbability(value, &spec->wan.jitter_prob);
    } else if (key == "wan.jitter_ms") {
      ok = ParseMillis(value, &spec->wan.jitter_ms);
    } else if (key == "wmm.mode") {
      if (value == "on") {
        spec->wmm.mode = FaultSpec::WmmMode::kHonest;
      } else if (value == "off") {
        spec->wmm.mode = FaultSpec::WmmMode::kOff;
      } else if (value == "partial") {
        spec->wmm.mode = FaultSpec::WmmMode::kPartial;
      } else {
        ok = false;
      }
    } else if (key == "wmm.honor_prob") {
      ok = ParseProbability(value, &spec->wmm.honor_prob);
    } else if (key == "churn.period_ms") {
      ok = ParseMillis(value, &spec->churn.period_ms);
    } else if (key == "churn.low_rate_bps") {
      ok = ParseInt64(value, &spec->churn.low_rate_bps) &&
           spec->churn.low_rate_bps > 0;
    } else if (key == "churn.low_error_prob") {
      ok = ParseProbability(value, &spec->churn.low_error_prob);
    } else if (key == "skew.ppm") {
      // Beyond +-1e6 ppm the skewed clock would stop or run backwards.
      ok = ParseDouble(value, &spec->skew.ppm) &&
           std::fabs(spec->skew.ppm) < 1e6;
    } else if (key == "skew.offset_ms") {
      ok = ParseMillis(value, &spec->skew.offset_ms);
    } else if (key == "schedule") {
      FaultScheduleEntry entry;
      ok = ParseSchedule(value, &entry);
      if (ok) spec->schedule.push_back(entry);
    } else {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": unknown key '" +
                 std::string(key) + "'";
      }
      return false;
    }
    if (!ok) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": bad value '" +
                 std::string(value) + "' for key '" + std::string(key) + "'";
      }
      return false;
    }
  }
  return true;
}

}  // namespace kwikr::faults
