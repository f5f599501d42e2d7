#include "exp/thread_pool.h"

namespace sudoku::exp {

namespace {

// Identifies the current thread as a pool worker for deque-local submits.
struct WorkerIdentity {
  ThreadPool* pool = nullptr;
  unsigned index = 0;
};
thread_local WorkerIdentity tls_worker;

}  // namespace

ThreadPool::ThreadPool(unsigned num_threads) {
  const unsigned n = num_threads ? num_threads : hardware_threads();
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(injector_mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(Task task) {
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (tls_worker.pool == this) {
    Worker& w = *workers_[tls_worker.index];
    std::lock_guard<std::mutex> lock(w.mutex);
    w.deque.push_back(std::move(task));
  } else {
    std::lock_guard<std::mutex> lock(injector_mutex_);
    injector_.push_back(std::move(task));
  }
  // seq_cst pairing with the parking path in worker_loop: the pending_
  // store must be globally ordered before the sleepers_ load, or a worker
  // parking concurrently could miss the task while we miss the sleeper.
  pending_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) != 0) work_cv_.notify_one();
}

bool ThreadPool::try_pop_local(unsigned index, Task& out) {
  Worker& w = *workers_[index];
  std::lock_guard<std::mutex> lock(w.mutex);
  if (w.deque.empty()) return false;
  out = std::move(w.deque.back());
  w.deque.pop_back();
  return true;
}

bool ThreadPool::try_pop_injector(Task& out) {
  std::lock_guard<std::mutex> lock(injector_mutex_);
  if (injector_.empty()) return false;
  out = std::move(injector_.front());
  injector_.pop_front();
  return true;
}

bool ThreadPool::try_steal(unsigned index, Task& out) {
  const unsigned n = size();
  for (unsigned k = 1; k < n; ++k) {
    Worker& victim = *workers_[(index + k) % n];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (victim.deque.empty()) continue;
    out = std::move(victim.deque.front());
    victim.deque.pop_front();
    return true;
  }
  return false;
}

void ThreadPool::finish_task() {
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    idle_cv_.notify_all();
  }
}

void ThreadPool::worker_loop(unsigned index) {
  tls_worker = {this, index};
  Task task;
  for (;;) {
    if (try_pop_local(index, task) || try_pop_injector(task) ||
        try_steal(index, task)) {
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      // Task boundary: a throwing task must never escape into the worker
      // loop (that would std::terminate the process). parallel_for bodies
      // install their own handler; this is the backstop for bare submit().
      try {
        task();
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      task = nullptr;
      finish_task();
      continue;
    }
    std::unique_lock<std::mutex> lock(injector_mutex_);
    // Park. sleepers_ goes up before the predicate's pending_ load (both
    // seq_cst, see submit()): either we observe the task enqueued between
    // our failed scans and this point and skip the wait, or the submitter
    // observes our sleepers_ increment and notifies — a wakeup cannot be
    // lost, and submit() pays no notify syscall while nobody is parked.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    work_cv_.wait(lock, [this] {
      return stop_ || pending_.load(std::memory_order_seq_cst) != 0;
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    if (stop_ && pending_.load(std::memory_order_acquire) == 0) return;
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_cv_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> err_lock(error_mutex_);
    std::swap(err, first_error_);
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::parallel_for(std::uint64_t n,
                              const std::function<void(std::uint64_t)>& fn) {
  if (n == 0) return;
  // `remaining` is only touched under done_mutex, so the last task is done
  // with these stack locals before the caller can see zero, return and
  // destroy them. A decrement outside the lock would let the caller return
  // between it and the notify, leaving the task to lock a dead mutex.
  std::uint64_t remaining = n;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::exception_ptr first_error;
  for (std::uint64_t i = 0; i < n; ++i) {
    submit([&, i] {
      std::exception_ptr error;
      try {
        fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(done_mutex);
      if (error && !first_error) first_error = std::move(error);
      if (--remaining == 0) done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
  // Every index has run; surface the first failure (completion order) to
  // the caller now that joining is done.
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sudoku::exp
