#pragma once
// Task-parallel runtime: a fixed-size thread pool behind parallel_for /
// parallel_invoke.
//
// The pool is a process-wide singleton built lazily on first use. Its size
// comes from set_thread_count(), else the VMAP_THREADS environment
// variable, else hardware_concurrency(). At one thread every entry point
// degenerates to a plain inline loop — no threads are spawned, no locks
// taken — so the serial path is exactly the pre-parallel behavior.
//
// Scheduling is dynamic (workers pull indices from an atomic counter), but
// every index runs exactly once and writes whatever the caller's body
// writes, so any body whose per-index work is order-independent (disjoint
// outputs, per-index state) produces results bit-identical to the serial
// loop regardless of thread count. The collection / fitting layers are
// built on that guarantee.
//
// Nested calls: a parallel_for issued from inside a worker (or from inside
// another parallel_for body on the submitting thread) runs inline on the
// calling thread — nesting can never deadlock and never oversubscribes.
// Likewise, a batch of n tasks occupies at most n threads: surplus workers
// find the index counter exhausted and go back to sleep immediately.

#include <cstddef>
#include <functional>
#include <vector>

namespace vmap {

/// Effective pool size (threads that can work on one batch, including the
/// submitting thread). Resolves the VMAP_THREADS default on first call.
std::size_t thread_count();

/// Overrides the pool size; 0 restores the automatic default
/// (VMAP_THREADS env var, else hardware_concurrency()). Rebuilds the pool
/// if it is already running. Must not be called concurrently with an
/// in-flight parallel_for.
void set_thread_count(std::size_t n);

/// True while executing inside a parallel_for / parallel_invoke body (on
/// any thread). Nested parallel calls check this to run inline.
bool in_parallel_region();

/// Index of the current pool worker thread (0-based, stable for the
/// worker's lifetime), or -1 on any thread the pool did not spawn (the
/// main/submitting thread included). Logging tags lines with it;
/// tracing names worker timelines with it.
int worker_index();

/// Runs body(i) for every i in [begin, end), distributing indices over the
/// pool; the calling thread participates. Blocks until all indices are
/// done. The first exception thrown by a body is rethrown on the caller
/// (remaining indices still run). Serial (inline, in-order) when the pool
/// has one thread, when end - begin <= 1, or when nested.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// Runs the given tasks concurrently; blocks until all complete.
void parallel_invoke(const std::vector<std::function<void()>>& tasks);

// --- work partitioning ----------------------------------------------------
//
// The shared chunk-size heuristic for every data-parallel call site. A
// dispatched chunk has a real fixed cost (pool wakeup, condvar round-trip,
// a cold cache) — per-row tasks amortize none of it. One quantum of work
// per chunk keeps the overhead fraction bounded; the per-thread cap keeps
// scheduling slack without shattering the range.

/// Minimum useful multiply-add count for one dispatched chunk; anything
/// smaller is dominated by dispatch overhead.
inline constexpr double kWorkQuantumFlops = 1.0e6;

/// How many contiguous chunks to split `items` of `flops_per_item` work
/// into: at most `max_per_thread` chunks per pool thread, never more than
/// one chunk per kWorkQuantumFlops of total work, never more than `items`.
/// Returns 1 when the work is too small to parallelize (callers should run
/// inline), 0 only when items == 0. Thread-count aware but only through
/// the chunk *count* — callers split [0, items) contiguously, so results
/// never depend on the pool size.
std::size_t recommended_chunks(std::size_t items, double flops_per_item,
                               std::size_t max_per_thread = 4);

}  // namespace vmap
