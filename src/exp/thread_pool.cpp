#include "exp/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <vector>

namespace sudoku::exp {

void ThreadPool::parallel_for(std::uint64_t n,
                              const std::function<void(std::uint64_t)>& fn) {
  std::atomic<std::uint64_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto drain = [&] {
    for (;;) {
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  const auto width = static_cast<unsigned>(std::min<std::uint64_t>(size_, n));
  std::vector<std::thread> threads;
  threads.reserve(width);
  try {
    for (unsigned t = 0; t < width; ++t) threads.emplace_back(drain);
  } catch (...) {  // could not start a thread: let the started ones finish
    for (auto& t : threads) t.join();
    throw;
  }
  for (auto& t : threads) t.join();
  // Every index has run; surface the first failure now that joining is done.
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sudoku::exp
