#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace parowl::util {

/// Run `fn(i)` for every i in [0, n) on up to `threads` threads, the
/// calling thread among them.  Each thread takes the next unclaimed index
/// when it finishes one, so tasks sorted largest first are scheduled
/// longest-processing-time first.  Runs inline, in index order, when only
/// one thread would take part.  If a task throws (out of memory), no
/// further task starts and the first exception is rethrown here once every
/// thread has joined.
template <typename Fn>
void run_tasks(std::size_t n, unsigned threads, Fn&& fn) {
  const std::size_t workers = std::min<std::size_t>(threads, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  const auto drain = [&] {
    try {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
    } catch (...) {
      next.store(n, std::memory_order_relaxed);
      const std::scoped_lock lock(error_mu);
      if (!error) {
        error = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> pool;
    pool.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      pool.emplace_back(drain);
    }
    drain();
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace parowl::util
