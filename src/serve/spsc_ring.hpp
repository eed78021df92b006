#pragma once
// Single-producer / single-consumer ring: MonitorFleet's one ingestion
// transport. Every shard has one ring per registered producer plus one
// plain-ingest ring whose producer side the fleet serializes.
//
// Classic cached-index SPSC design (the read-path idiom ROART uses for its
// log rings): head and tail are the only shared state, each written by
// exactly one side, each on its own cache line, and each side keeps a
// cached copy of the other's index so the common case touches no shared
// line at all — a push is one store to the slot and one release store to
// tail; the acquire reload of the counterpart index only happens when the
// cached view says full/empty.
//
// Slots own their values. push() copy-assigns the caller's item into the
// slot and pop() copy-assigns the slot into the consumer's object, so a
// slot's heap storage (a Reading's value buffer) is allocated on the
// producer's first lap through it and reused on every later lap it fits.
// No heap buffer changes hands between the two threads: the caller's item
// and its storage stay with the caller and are freed on the caller's
// thread, and the consumer's copy lands in storage the consumer owns.
//
// Contract: at most one thread pushes and at most one thread pops at any
// instant. Either side may migrate between threads (shard workers hand the
// consumer side over at failover; plain-ingest callers take turns on the
// producer side) as long as successive threads on one side are serialized
// by an external happens-before edge — MonitorFleet serializes consumers
// with the shard's inflight mutex and plain-ingest producers with its
// route mutex. approx_size() is a racy snapshot safe from any thread;
// empty() from the consumer thread is exact.

#include <atomic>
#include <cstddef>
#include <vector>

namespace vmap::serve {

template <typename T>
class SpscRing {
 public:
  /// Holds exactly `capacity` items before push refuses. The slot array is
  /// rounded up to a power of two so indices wrap by masking; only the
  /// full test looks at the requested capacity.
  explicit SpscRing(std::size_t capacity) : capacity_(capacity) {
    std::size_t slots = 1;
    while (slots < capacity) slots <<= 1;
    mask_ = slots - 1;
    slots_.resize(slots);
  }

  /// Producer side. False when full (never blocks, never overwrites).
  /// Copies `item` into the slot's own storage; `item` is only read.
  bool push(const T& item) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= capacity_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= capacity_) return false;
    }
    slots_[tail & mask_] = item;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. False when empty. Copies the slot into `out`, reusing
  /// `out`'s storage, and leaves the slot's storage for the next lap.
  bool pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    out = slots_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Exact when called by the consumer; a racy (but never negative)
  /// snapshot from anywhere else.
  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Racy snapshot for backlog accounting (the watchdog's stall signal).
  std::size_t approx_size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::vector<T> slots_;
  /// Consumer-owned index (next slot to pop).
  alignas(64) std::atomic<std::size_t> head_{0};
  /// Producer's cached view of head_; refreshed only when the ring looks
  /// full. Producer-owned.
  alignas(64) std::size_t cached_head_ = 0;
  /// Producer-owned index (next slot to fill).
  alignas(64) std::atomic<std::size_t> tail_{0};
  /// Consumer's cached view of tail_; refreshed only when the ring looks
  /// empty. Consumer-owned (successive consumers are externally
  /// serialized).
  alignas(64) std::size_t cached_tail_ = 0;
};

}  // namespace vmap::serve
