#include "numerics/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>


namespace brightsi::numerics {

void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t, int)>& fn) {
  if (threads < 1) {
    throw std::invalid_argument("parallel_for needs at least one thread, got " +
                                std::to_string(threads));
  }
  const std::size_t thread_count = std::min(static_cast<std::size_t>(threads), count);
  if (thread_count <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      fn(i, 0);
    }
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex error_mutex;
  std::size_t error_item = count;
  std::exception_ptr error;
  auto loop = [&](int thread) {
    while (!stop.load()) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) {
        return;
      }
      try {
        fn(i, thread);
      } catch (...) {
        stop.store(true);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_item) {
          error_item = i;
          error = std::current_exception();
        }
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(thread_count - 1);
  for (std::size_t t = 1; t < thread_count; ++t) {
    try {
      pool.emplace_back(loop, static_cast<int>(t));
    } catch (const std::system_error&) {
      break;  // the threads already started claim the items it would have run
    }
  }
  loop(0);
  for (std::thread& t : pool) {
    t.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace brightsi::numerics
