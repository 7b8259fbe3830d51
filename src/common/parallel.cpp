#include "common/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace lumos {

namespace {
// Set while a thread is executing chunks of a parallel loop; nested
// parallel_for calls from such a thread run inline instead of deadlocking on
// the shared pool.
thread_local bool t_in_parallel_region = false;

std::size_t default_thread_count() {
  if (const char* env = std::getenv("LUMOS_THREADS")) {
    // Documented as "minimum 1": any set value below 1 (including 0 and
    // unparseable strings) means serial, never silent fallback to full
    // hardware concurrency.
    const long parsed = std::strtol(env, nullptr, 10);
    return parsed >= 1 ? static_cast<std::size_t>(parsed) : 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}
}  // namespace

struct ThreadPool::Impl {
  std::size_t total_threads = 1;  // workers + the calling thread
  std::vector<std::thread> workers;

  std::mutex mutex;
  std::condition_variable work_ready;
  std::condition_variable work_done;
  bool shutting_down = false;

  // Current loop (one at a time; concurrent run_chunks calls serialise).
  std::mutex loop_mutex;
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t chunk_count = 0;
  std::atomic<std::size_t> next_chunk{0};
  std::size_t active_workers = 0;
  std::uint64_t generation = 0;
  std::exception_ptr first_error;

  // Runs chunks of the live loop until none is left.  `loop_body` and
  // `count` are the loop's, read under `mutex` by a worker that joined it.
  void drain_chunks(const std::function<void(std::size_t)>& loop_body, std::size_t count) {
    t_in_parallel_region = true;
    for (;;) {
      const std::size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= count) break;
      try {
        loop_body(chunk);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
    t_in_parallel_region = false;
  }

  void worker_loop() {
    std::uint64_t seen_generation = 0;
    for (;;) {
      std::unique_lock<std::mutex> lock(mutex);
      work_ready.wait(lock,
                      [&] { return shutting_down || generation != seen_generation; });
      if (shutting_down) return;
      seen_generation = generation;
      // A worker that wakes after its loop ended stays out: the caller has
      // stopped waiting for it and may be setting up the next loop.
      if (body == nullptr) continue;
      ++active_workers;
      const std::function<void(std::size_t)>& loop_body = *body;
      const std::size_t count = chunk_count;
      lock.unlock();

      drain_chunks(loop_body, count);

      lock.lock();
      --active_workers;
      if (active_workers == 0) work_done.notify_all();
    }
  }
};

ThreadPool::ThreadPool(std::size_t thread_count) : impl_(new Impl) {
  impl_->total_threads = thread_count < 1 ? 1 : thread_count;
  const std::size_t workers = impl_->total_threads - 1;
  impl_->workers.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutting_down = true;
  }
  impl_->work_ready.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

std::size_t ThreadPool::thread_count() const noexcept { return impl_->total_threads; }

void ThreadPool::run_chunks(std::size_t chunk_count,
                            const std::function<void(std::size_t)>& body) {
  if (chunk_count == 0) return;
  if (impl_->workers.empty() || chunk_count == 1 || t_in_parallel_region) {
    // Serial pool, trivial loop, or nested call: execute inline.
    const bool was_nested = t_in_parallel_region;
    t_in_parallel_region = true;
    struct Restore {
      bool value;
      ~Restore() { t_in_parallel_region = value; }
    } restore{was_nested};
    for (std::size_t chunk = 0; chunk < chunk_count; ++chunk) body(chunk);
    return;
  }

  std::lock_guard<std::mutex> loop_lock(impl_->loop_mutex);
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->body = &body;
    impl_->chunk_count = chunk_count;
    impl_->next_chunk.store(0, std::memory_order_relaxed);
    impl_->first_error = nullptr;
    ++impl_->generation;
  }
  impl_->work_ready.notify_all();

  impl_->drain_chunks(body, chunk_count);  // the calling thread participates

  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->work_done.wait(lock, [&] { return impl_->active_workers == 0; });
  impl_->body = nullptr;
  if (impl_->first_error) std::rethrow_exception(impl_->first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  LUMOS_EXPECTS(grain >= 1);
  const std::size_t span = end - begin;
  const std::size_t chunk_count = (span + grain - 1) / grain;
  if (chunk_count == 1) {
    body(begin, end);
    return;
  }
  ThreadPool::global().run_chunks(chunk_count, [&](std::size_t chunk) {
    const std::size_t lo = begin + chunk * grain;
    const std::size_t hi = lo + grain < end ? lo + grain : end;
    body(lo, hi);
  });
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for(begin, end, 1, body);
}

}  // namespace lumos
