#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace vmap {

namespace {

thread_local bool t_in_parallel_region = false;
thread_local int t_worker_index = -1;

/// Hard cap on the pool size; VMAP_THREADS above it is clamped. Generous —
/// it only guards against absurd env values, not oversubscription (tests
/// deliberately run more threads than cores).
constexpr std::size_t kMaxThreads = 256;

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t fallback = hw ? std::min<std::size_t>(hw, kMaxThreads) : 1;
  if (const char* env = std::getenv("VMAP_THREADS"); env && *env) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    if (errno == 0 && end && *end == '\0' && v >= 1)
      return std::min<std::size_t>(static_cast<std::size_t>(v), kMaxThreads);
    // Non-numeric, negative, zero, or overflowing values must not silently
    // misconfigure the pool; say so once and use the hardware default.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
      VMAP_LOG(kWarn) << "VMAP_THREADS='" << env
                      << "' is not a positive integer; falling back to "
                      << fallback << " thread(s)";
  }
  return fallback;
}

/// One parallel_for invocation. Heap-held via shared_ptr so a worker that
/// wakes late (after the submitter already returned) still touches valid
/// memory; `body` itself is only invoked for indices < count, all of which
/// complete before the submitter returns.
struct Batch {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t begin = 0;
  std::size_t count = 0;
  /// Span active on the submitting thread; workers adopt it so their
  /// spans nest under the parallel_for's caller in the trace.
  std::uint64_t trace_parent = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mutex;
  std::condition_variable completed;
  std::exception_ptr error;
};

/// Pulls indices until the batch is exhausted. Runs on workers and on the
/// submitting thread alike.
void drain(Batch& batch) {
  TraceContextScope trace_scope(batch.trace_parent);
  std::size_t executed = 0;
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.count) break;
    ++executed;
    try {
      (*batch.body)(batch.begin + i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch.mutex);
      if (!batch.error) batch.error = std::current_exception();
    }
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch.count) {
      std::lock_guard<std::mutex> lock(batch.mutex);
      batch.completed.notify_all();
    }
  }
  if (executed > 0) {
    static metrics::Counter& indices = metrics::counter("pool.indices");
    indices.add(executed);
    if (t_worker_index >= 0) {
      // The worker-executed share — the "stolen from the submitter" count
      // for this dynamic-scheduling pool.
      static metrics::Counter& stolen =
          metrics::counter("pool.worker_indices");
      stolen.add(executed);
    }
  }
}

class ThreadPool {
 public:
  /// Spawns threads - 1 workers; the submitting thread is the last lane.
  explicit ThreadPool(std::size_t threads) : threads_(threads) {
    for (std::size_t i = 0; i + 1 < threads_; ++i)
      workers_.emplace_back([this, i] {
        t_worker_index = static_cast<int>(i);
        worker_loop();
      });
    metrics::gauge("pool.threads").set(static_cast<double>(threads_));
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_available_.notify_all();
    for (auto& w : workers_) w.join();
  }

  std::size_t threads() const { return threads_; }

  void run(const std::shared_ptr<Batch>& batch) {
    {
      static metrics::Counter& batches = metrics::counter("pool.batches");
      static metrics::Histogram& batch_size = metrics::histogram(
          "pool.batch_size", metrics::default_iteration_buckets());
      batches.add();
      batch_size.observe(static_cast<double>(batch->count));
      metrics::gauge("pool.queue_depth")
          .set(static_cast<double>(batch->count));
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      current_ = batch;
      ++generation_;
    }
    work_available_.notify_all();

    t_in_parallel_region = true;
    drain(*batch);
    t_in_parallel_region = false;

    {
      std::unique_lock<std::mutex> lock(batch->mutex);
      batch->completed.wait(lock, [&] {
        return batch->done.load(std::memory_order_acquire) == batch->count;
      });
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (current_ == batch) current_.reset();
    }
    metrics::gauge("pool.queue_depth").set(0.0);
    if (batch->error) std::rethrow_exception(batch->error);
  }

 private:
  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_available_.wait(lock,
                           [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      std::shared_ptr<Batch> batch = current_;
      if (!batch) continue;
      lock.unlock();
      t_in_parallel_region = true;
      drain(*batch);
      t_in_parallel_region = false;
      batch.reset();
      lock.lock();
    }
  }

  std::size_t threads_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::shared_ptr<Batch> current_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

// Global pool, built lazily; guarded by g_mutex. g_configured == 0 means
// "use the default".
std::mutex g_mutex;
std::unique_ptr<ThreadPool> g_pool;  // NOLINT: intentionally leaky-safe
std::size_t g_configured = 0;

/// Returns the pool sized per the current configuration, building it on
/// first use (nullptr when the effective size is one thread).
ThreadPool* pool_for_size(std::size_t threads) {
  if (threads <= 1) return nullptr;
  std::lock_guard<std::mutex> lock(g_mutex);
  if (!g_pool || g_pool->threads() != threads)
    g_pool = std::make_unique<ThreadPool>(threads);
  return g_pool.get();
}

}  // namespace

std::size_t thread_count() {
  std::size_t configured;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    configured = g_configured;
  }
  return configured ? configured : default_thread_count();
}

void set_thread_count(std::size_t n) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_configured = std::min(n, kMaxThreads);
  // Drop a mismatched pool now so the next parallel_for rebuilds it (and a
  // switch to serial frees the workers immediately).
  const std::size_t effective =
      g_configured ? g_configured : default_thread_count();
  if (g_pool && g_pool->threads() != effective) g_pool.reset();
}

bool in_parallel_region() { return t_in_parallel_region; }

int worker_index() { return t_worker_index; }

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  const std::size_t threads = thread_count();
  if (n == 1 || threads <= 1 || t_in_parallel_region) {
    // Inline serial path; still marked as a region so nesting stays flat.
    const bool was_nested = t_in_parallel_region;
    t_in_parallel_region = true;
    try {
      for (std::size_t i = begin; i < end; ++i) body(i);
    } catch (...) {
      t_in_parallel_region = was_nested;
      throw;
    }
    t_in_parallel_region = was_nested;
    return;
  }

  ThreadPool* pool = pool_for_size(threads);
  if (!pool) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->body = &body;
  batch->begin = begin;
  batch->count = n;
  batch->trace_parent = trace_detail::current_span();
  pool->run(batch);
}

void parallel_invoke(const std::vector<std::function<void()>>& tasks) {
  parallel_for(0, tasks.size(), [&](std::size_t i) { tasks[i](); });
}

std::size_t recommended_chunks(std::size_t items, double flops_per_item,
                               std::size_t max_per_thread) {
  if (items == 0) return 0;
  const std::size_t threads = thread_count();
  if (threads <= 1) return 1;
  const double total = flops_per_item * static_cast<double>(items);
  if (total < 2.0 * kWorkQuantumFlops) return 1;
  const auto by_work = static_cast<std::size_t>(total / kWorkQuantumFlops);
  const std::size_t by_threads = std::max<std::size_t>(
      threads * std::max<std::size_t>(max_per_thread, 1), 1);
  return std::max<std::size_t>(
      1, std::min({items, by_work, by_threads}));
}

}  // namespace vmap
