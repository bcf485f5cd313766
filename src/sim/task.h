// Lazy coroutine task used for all simulated activity.
//
// A Task<T> does not run until awaited (or spawned on an Engine as a
// detached process). Completion resumes the awaiter by symmetric transfer,
// so arbitrarily deep co_await chains use constant native stack.
//
// Lifetime rule: a Task owns its coroutine frame; frames of suspended tasks
// must not be abandoned (there is no cancellation — simulated processes run
// to completion, as checkpoint phases do).
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "sim/frame_pool.h"

namespace tio::sim {

template <typename T>
class Task;

namespace detail {

template <typename T>
struct promise_final_awaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) const noexcept {
    return h.promise().continuation;
  }
  void await_resume() const noexcept {}
};

// Deriving from PooledFrame routes every Task frame through the size-class
// recycling allocator (promise-scope operator new/delete cover the whole
// coroutine frame, not just the promise).
struct promise_base : PooledFrame {
  std::coroutine_handle<> continuation = std::noop_coroutine();
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::promise_base {
    std::optional<T> value;
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    detail::promise_final_awaiter<T> final_suspend() noexcept { return {}; }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (h_) h_.destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  struct Awaiter {
    std::coroutine_handle<promise_type> h;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
      h.promise().continuation = parent;
      return h;  // start the child now
    }
    T await_resume() {
      if (h.promise().exception) std::rethrow_exception(h.promise().exception);
      return std::move(*h.promise().value);
    }
  };
  Awaiter operator co_await() && noexcept { return Awaiter{h_}; }

  // For the engine's detached-process driver.
  std::coroutine_handle<promise_type> handle() const noexcept { return h_; }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_ = nullptr;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::promise_base {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    detail::promise_final_awaiter<void> final_suspend() noexcept { return {}; }
    void return_void() {}
  };

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (h_) h_.destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  struct Awaiter {
    std::coroutine_handle<promise_type> h;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
      h.promise().continuation = parent;
      return h;
    }
    void await_resume() {
      if (h.promise().exception) std::rethrow_exception(h.promise().exception);
    }
  };
  Awaiter operator co_await() && noexcept { return Awaiter{h_}; }

  std::coroutine_handle<promise_type> handle() const noexcept { return h_; }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_ = nullptr;
};

// A task that completes with `value` as soon as it is awaited: the early
// return (say, an error) of a plain function that otherwise hands back the
// task of the layer below instead of wrapping it in a frame of its own.
template <typename T>
Task<T> ready(T value) {
  co_return std::move(value);
}

}  // namespace tio::sim
