#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

namespace kwikr::fleet {

/// Resolves a user-facing `jobs` knob: values >= 1 pass through, anything
/// else (0, negative) means "one worker per hardware thread".
inline int ResolveJobs(int jobs) {
  if (jobs >= 1) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Runs `fn(index)` for every index in [0, tasks) on `jobs` workers and
/// returns the values in index order (never in completion order).
///
/// Determinism contract: the output is bit-identical for every worker count
/// because (a) each task writes only its own pre-sized slot, and (b) tasks
/// must derive all randomness from their index (seed with `rng.Fork(index)`,
/// never from shared mutable state). `jobs <= 1` (after ResolveJobs)
/// executes inline on the calling thread — the serial path spawns no
/// threads at all. Otherwise `min(jobs, tasks)` threads claim indices from
/// one atomic counter until none are left.
///
/// Failure rule: every task runs; then, if any threw, RunFleet rethrows
/// the exception of the lowest-index task that threw — the same one for
/// any worker count. A caller that must outlive a failing task catches
/// inside the task.
template <typename Fn>
auto RunFleet(std::size_t tasks, int jobs, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using Result = decltype(fn(std::size_t{0}));
  static_assert(!std::is_same_v<Result, bool>,
                "std::vector<bool> packs results into shared bits, so "
                "parallel slot writes would race — return int instead");
  std::vector<Result> results(tasks);
  std::vector<std::exception_ptr> errors(tasks);
  auto run_one = [&](std::size_t index) {
    try {
      results[index] = fn(index);
    } catch (...) {
      errors[index] = std::current_exception();
    }
  };

  const std::size_t workers =
      std::min(static_cast<std::size_t>(ResolveJobs(jobs)), tasks);
  if (workers <= 1) {
    for (std::size_t i = 0; i < tasks; ++i) run_one(i);
  } else {
    std::atomic<std::size_t> next{0};
    auto claim = [&] {
      for (std::size_t i = next++; i < tasks; i = next++) run_one(i);
    };
    std::vector<std::thread> threads;
    threads.reserve(workers);
    try {
      for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(claim);
    } catch (const std::system_error&) {
      // Out of threads: the calling thread drains whatever the started
      // ones have not claimed, and every started thread is still joined.
      claim();
    }
    for (std::thread& thread : threads) thread.join();
  }

  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

}  // namespace kwikr::fleet
