#include "bench_math.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace kwikr::benchmark {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  q.median = Median(values);
  const auto n = static_cast<long>(values.size());
  if (n == 1) {
    q.q1 = q.q3 = values[0];
    return q;
  }
  // statistics.quantiles, method="exclusive": m = n + 1, cut points i*m/4.
  const long m = n + 1;
  double cuts[2] = {0.0, 0.0};
  const long which[2] = {1, 3};
  for (int c = 0; c < 2; ++c) {
    const long i = which[c];
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    cuts[c] = (values[static_cast<std::size_t>(j - 1)] *
                   static_cast<double>(4 - delta) +
               values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
              4.0;
  }
  q.q1 = cuts[0];
  q.q3 = cuts[1];
  return q;
}

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string HexDigest(std::uint64_t hash) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

std::string StripEventCounts(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t key = std::string_view::npos;
    std::size_t key_len = 0;
    for (const std::string_view name : {"\"events_executed\"", "\"events\""}) {
      const std::size_t at = text.find(name, pos);
      if (at < key) {
        key = at;
        key_len = name.size();
      }
    }
    if (key == std::string_view::npos) {
      out.append(text.substr(pos));
      break;
    }
    // Drop the key, its value and one adjoining comma: the trailing comma
    // when another field follows, otherwise the comma before the key.
    std::size_t value_end = text.find_first_of(",}\n", key + key_len);
    if (value_end == std::string_view::npos) value_end = text.size();
    std::string_view before = text.substr(pos, key - pos);
    if (value_end < text.size() && text[value_end] == ',') {
      ++value_end;
      while (value_end < text.size() && text[value_end] == ' ') ++value_end;
      if (value_end < text.size() && text[value_end] == '\n') {
        // Pretty-printed text: the field owns its whole line.
        while (!before.empty() && before.back() == ' ') before.remove_suffix(1);
        ++value_end;
      }
    } else {
      while (!before.empty() && before.back() == ' ') before.remove_suffix(1);
      if (!before.empty() && before.back() == ',') before.remove_suffix(1);
    }
    out.append(before);
    pos = value_end;
  }
  return out;
}

PassSummary SummarizePasses(const std::vector<std::vector<double>>& env_ms,
                            double sim_s) {
  PassSummary s;
  if (env_ms.empty()) return s;
  std::vector<double> fastest = env_ms.front();
  for (const std::vector<double>& pass : env_ms) {
    for (std::size_t e = 0; e < fastest.size() && e < pass.size(); ++e) {
      fastest[e] = std::min(fastest[e], pass[e]);
    }
  }
  double total_ms = 0.0;
  for (const double ms : fastest) total_ms += ms;
  s.sim_speed = total_ms > 0.0 ? sim_s / (total_ms / 1e3) : 0.0;
  s.env_ms_p50 = Percentile(fastest, 50.0);
  s.env_ms_p90 = Percentile(std::move(fastest), 90.0);
  return s;
}

const char* Name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kGain:
      return "gain";
    case Verdict::kNoRegression:
      return "no regression";
    case Verdict::kRegression:
      return "REGRESSION";
    case Verdict::kUnresolved:
      return "unresolved";
  }
  return "?";
}

AbResult CompareAb(const std::vector<double>& parent,
                   const std::vector<double>& change, bool higher_is_better,
                   double bound) {
  AbResult r;
  r.parent = ComputeQuartiles(parent);
  r.change = ComputeQuartiles(change);
  const std::size_t pairs = std::min(parent.size(), change.size());
  const auto better = [higher_is_better](double a, double b) {
    return higher_is_better ? a > b : a < b;
  };
  for (std::size_t i = 0; i < pairs; ++i) {
    if (better(change[i], parent[i])) ++r.wins;
    if (better(parent[i], change[i])) ++r.losses;
  }
  if (pairs == 0 || r.parent.median == 0.0) return r;
  const double parent_iqr = r.parent.q3 - r.parent.q1;
  // Positive gap: the change's median reads better than the parent's.
  const double gap = higher_is_better ? r.change.median - r.parent.median
                                      : r.parent.median - r.change.median;
  if (pairs >= 10 && r.wins * 10 >= static_cast<int>(pairs) * 9 &&
      gap > parent_iqr) {
    r.verdict = Verdict::kGain;
    return r;
  }
  if (parent_iqr / std::fabs(r.parent.median) > bound) {
    // The parent's own spread exceeds the bound, so "within the bound" is
    // not observable; only a complete separation in the change's favour
    // rules a regression out.
    const auto [pmin, pmax] = std::minmax_element(parent.begin(), parent.end());
    const auto [cmin, cmax] = std::minmax_element(change.begin(), change.end());
    const bool all_better =
        higher_is_better ? *cmin > *pmax : *cmax < *pmin;
    r.verdict = all_better ? Verdict::kNoRegression : Verdict::kUnresolved;
    return r;
  }
  r.verdict = -gap <= bound * std::fabs(r.parent.median)
                  ? Verdict::kNoRegression
                  : Verdict::kRegression;
  return r;
}

}  // namespace kwikr::benchmark
