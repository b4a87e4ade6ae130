#pragma once

#include <string>

namespace kwikr::benchmark {

/// Checks the percentile, quartile, fastest-time, digest and A/B-verdict
/// math on fixed inputs and, given its path, that BENCHMARK.json declares
/// exactly what this program prints. Returns the process exit code.
int RunSelfTest(const std::string& benchmark_json);

}  // namespace kwikr::benchmark
