// Coroutine synchronization primitives for simulated processes.
//
// All wake-ups go through the engine's event queue at the current virtual
// time, so wake order is deterministic (FIFO per primitive) and consistent
// with the engine's global event ordering.
//
// Waiter bookkeeping is intrusive: each primitive's Awaiter carries the
// link pointer, and the awaiter object lives inside the suspended
// coroutine's frame, so parking a process on a mutex, semaphore,
// gate, or channel allocates nothing — no vector/deque churn per wait.
// Shard affinity: a primitive belongs to one engine, and its waiter lists
// are unsynchronized — every await must happen on the host thread currently
// running that engine (a ShardPool job runs its engines on one shard). Debug
// builds assert this at each suspension point.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <stdexcept>

#include "sim/engine.h"

namespace tio::sim {

namespace detail {

// Intrusive FIFO of parked awaiters, linked through Node::next. Nodes are
// owned by suspended coroutine frames; a node stays linked exactly while
// its coroutine is suspended on the primitive, so no lifetime bookkeeping
// is needed here.
template <typename Node>
class WaiterList {
 public:
  bool empty() const { return head_ == nullptr; }
  std::size_t size() const { return size_; }

  void push_back(Node* n) {
    n->next = nullptr;
    if (tail_) {
      tail_->next = n;
    } else {
      head_ = n;
    }
    tail_ = n;
    ++size_;
  }

  Node* pop_front() {
    Node* n = head_;
    head_ = n->next;
    if (!head_) tail_ = nullptr;
    --size_;
    return n;
  }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace detail

// One-shot broadcast gate. wait() completes immediately once open.
class Gate {
 public:
  explicit Gate(Engine& engine) : engine_(engine) {}

  struct Awaiter {
    Gate* gate;
    std::coroutine_handle<> handle = nullptr;
    Awaiter* next = nullptr;
    bool await_ready() const noexcept { return gate->open_; }
    void await_suspend(std::coroutine_handle<> h) {
      assert(gate->engine_.is_current() && "Gate awaited off its engine's shard");
      handle = h;
      gate->waiters_.push_back(this);
    }
    void await_resume() const noexcept {}
  };
  Awaiter wait() { return Awaiter{this}; }

  void open() {
    if (open_) return;
    open_ = true;
    while (!waiters_.empty()) {
      const auto h = waiters_.pop_front()->handle;
      engine_.after(Duration::zero(), [h] { h.resume(); });
    }
  }
  bool is_open() const { return open_; }

 private:
  Engine& engine_;
  bool open_ = false;
  detail::WaiterList<Awaiter> waiters_;
};

// Counting semaphore with FIFO handoff.
class Semaphore {
 public:
  Semaphore(Engine& engine, std::size_t permits) : engine_(engine), available_(permits) {}

  struct Awaiter {
    Semaphore* sem;
    std::coroutine_handle<> handle = nullptr;
    Awaiter* next = nullptr;
    bool await_ready() const noexcept {
      if (sem->available_ > 0) {
        --sem->available_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      assert(sem->engine_.is_current() && "Semaphore awaited off its engine's shard");
      handle = h;
      sem->waiters_.push_back(this);
    }
    void await_resume() const noexcept {}
  };
  Awaiter acquire() { return Awaiter{this}; }

  void release() {
    if (!waiters_.empty()) {
      // Hand the permit directly to the oldest waiter.
      const auto h = waiters_.pop_front()->handle;
      engine_.after(Duration::zero(), [h] { h.resume(); });
      return;
    }
    ++available_;
  }

  std::size_t available() const { return available_; }
  std::size_t queue_length() const { return waiters_.size(); }

 private:
  Engine& engine_;
  std::size_t available_;
  detail::WaiterList<Awaiter> waiters_;
};

// RAII scope for a semaphore permit: co_await sem.acquire(); SemGuard g(sem);
class SemGuard {
 public:
  explicit SemGuard(Semaphore& sem) : sem_(&sem) {}
  SemGuard(SemGuard&& o) noexcept : sem_(std::exchange(o.sem_, nullptr)) {}
  SemGuard(const SemGuard&) = delete;
  SemGuard& operator=(const SemGuard&) = delete;
  SemGuard& operator=(SemGuard&&) = delete;
  ~SemGuard() {
    if (sem_) sem_->release();
  }

 private:
  Semaphore* sem_;
};

class Mutex {
 public:
  explicit Mutex(Engine& engine) : sem_(engine, 1) {}
  Semaphore::Awaiter lock() { return sem_.acquire(); }
  void unlock() { sem_.release(); }
  Semaphore& sem() { return sem_; }

 private:
  Semaphore sem_;
};

// Join-counter for forked subtasks: add() before spawning, done() at the end
// of each subtask, wait() until the count returns to zero.
class WaitGroup {
 public:
  explicit WaitGroup(Engine& engine) : gate_(engine) {}

  void add(std::size_t n = 1) { pending_ += n; }
  void done() {
    if (pending_ == 0) throw std::logic_error("WaitGroup::done without add");
    if (--pending_ == 0) gate_.open();
  }
  Gate::Awaiter wait() {
    if (pending_ == 0) gate_.open();
    return gate_.wait();
  }

 private:
  Gate gate_;
  std::size_t pending_ = 0;
};

// Unbounded FIFO channel: the building block for simulated message passing.
// Items are buffered in a deque (they must live somewhere while no reader
// is present); parked readers use the intrusive list like everything else.
template <typename T>
class Queue {
 public:
  explicit Queue(Engine& engine) : engine_(engine) {}

  struct PopAwaiter {
    Queue* queue;
    std::optional<T> value;
    std::coroutine_handle<> handle = nullptr;
    PopAwaiter* next = nullptr;
    bool await_ready() {
      if (!queue->items_.empty()) {
        value.emplace(std::move(queue->items_.front()));
        queue->items_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      assert(queue->engine_.is_current() && "Queue awaited off its engine's shard");
      handle = h;
      queue->poppers_.push_back(this);
    }
    T await_resume() { return std::move(*value); }
  };
  PopAwaiter pop() { return PopAwaiter{this, std::nullopt}; }

  void push(T item) {
    if (!poppers_.empty()) {
      PopAwaiter* p = poppers_.pop_front();
      p->value.emplace(std::move(item));
      const auto h = p->handle;
      engine_.after(Duration::zero(), [h] { h.resume(); });
      return;
    }
    items_.push_back(std::move(item));
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  // True when nothing is buffered and nobody is waiting — safe to destroy.
  bool idle() const { return items_.empty() && poppers_.empty(); }

 private:
  Engine& engine_;
  std::deque<T> items_;
  detail::WaiterList<PopAwaiter> poppers_;
};

}  // namespace tio::sim
