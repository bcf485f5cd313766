// Shared helpers for driving coroutine APIs from synchronous test bodies.
#pragma once

#include <optional>
#include <utility>

#include "sim/engine.h"
#include "sim/task.h"

namespace tio::test {

// Spawns `task`, runs the engine until idle, returns the task's value.
template <typename T>
T run_task(sim::Engine& engine, sim::Task<T> task) {
  std::optional<T> out;
  engine.spawn([](sim::Task<T> t, std::optional<T>& slot) -> sim::Task<void> {
    slot.emplace(co_await std::move(t));
  }(std::move(task), out));
  engine.run();
  return std::move(*out);
}

inline void run_task(sim::Engine& engine, sim::Task<void> task) {
  engine.spawn(std::move(task));
  engine.run();
}

// A task that awaits `awaitable` (an awaiter that is not a Task, such as
// Cluster::fabric_transfer's), for run_task.
template <typename Awaitable>
sim::Task<void> awaited(Awaitable awaitable) {
  co_await std::move(awaitable);
}

}  // namespace tio::test
