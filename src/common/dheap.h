// Flat d-ary min-heap (default 4-ary).
//
// Versus std::priority_queue's binary heap, a 4-ary heap halves the tree
// depth, so sift-down touches half as many cache lines — the right trade
// for the simulator's event queue, where pops dominate and elements are
// small.
// `pop_top` moves the minimum out, avoiding the const_cast dance that
// priority_queue::top() forces on move-only elements.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace tio {

template <typename T, typename Less, std::size_t D = 4>
class DaryHeap {
  static_assert(D >= 2, "DaryHeap: arity must be at least 2");

 public:
  DaryHeap() = default;
  explicit DaryHeap(Less less) : less_(std::move(less)) {}

  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }
  void reserve(std::size_t n) { v_.reserve(n); }
  const T& top() const { return v_.front(); }

  void push(T x) {
    v_.push_back(std::move(x));
    sift_up(v_.size() - 1);
  }

  // Moves the minimum into `out` and restores the heap.
  void pop_top(T& out) {
    out = std::move(v_.front());
    T last = std::move(v_.back());
    v_.pop_back();
    if (!v_.empty()) sift_down(std::move(last));
  }

  void pop() {
    T last = std::move(v_.back());
    v_.pop_back();
    if (!v_.empty()) sift_down(std::move(last));
  }

  void clear() { v_.clear(); }

 private:
  void sift_up(std::size_t i) {
    T x = std::move(v_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / D;
      if (!less_(x, v_[parent])) break;
      v_[i] = std::move(v_[parent]);
      i = parent;
    }
    v_[i] = std::move(x);
  }

  // Sifts `x` down from the root into its final slot.
  void sift_down(T x) {
    const std::size_t n = v_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * D + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + D < n ? first + D : n;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (less_(v_[c], v_[best])) best = c;
      }
      if (!less_(v_[best], x)) break;
      v_[i] = std::move(v_[best]);
      i = best;
    }
    v_[i] = std::move(x);
  }

  std::vector<T> v_;
  [[no_unique_address]] Less less_;
};

}  // namespace tio
