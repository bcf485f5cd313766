#include "sim/sync.h"

#include <gtest/gtest.h>

#include <vector>

namespace tio::sim {
namespace {

Task<void> wait_gate(Engine& e, Gate& g, std::vector<int>& log, int id) {
  co_await g.wait();
  log.push_back(id);
  (void)e;
}

TEST(Gate, ReleasesAllWaitersOnOpen) {
  Engine e;
  Gate g(e);
  std::vector<int> log;
  for (int i = 0; i < 4; ++i) e.spawn(wait_gate(e, g, log, i));
  e.after(Duration::ms(5), [&] { g.open(); });
  e.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(e.now().to_ns(), Duration::ms(5).to_ns());
}

TEST(Gate, WaitAfterOpenCompletesImmediately) {
  Engine e;
  Gate g(e);
  g.open();
  bool done = false;
  e.spawn([](Gate& gate, bool& flag) -> Task<void> {
    co_await gate.wait();
    flag = true;
  }(g, done));
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.now().to_ns(), 0);
}

TEST(Gate, DoubleOpenIsIdempotent) {
  Engine e;
  Gate g(e);
  g.open();
  g.open();
  EXPECT_TRUE(g.is_open());
}

Task<void> use_sem(Engine& e, Semaphore& s, Duration hold, std::vector<int>& log, int id) {
  co_await s.acquire();
  log.push_back(id);
  co_await e.sleep(hold);
  s.release();
}

TEST(Semaphore, LimitsConcurrencyAndIsFifo) {
  Engine e;
  Semaphore s(e, 2);
  std::vector<int> log;
  for (int i = 0; i < 6; ++i) e.spawn(use_sem(e, s, Duration::ms(10), log, i));
  e.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  // 6 holders, 2 at a time, 10 ms each => 30 ms.
  EXPECT_EQ(e.now().to_ns(), Duration::ms(30).to_ns());
}

TEST(Semaphore, ReleaseWithoutWaitersRestoresPermit) {
  Engine e;
  Semaphore s(e, 1);
  std::vector<int> log;
  e.spawn(use_sem(e, s, Duration::ms(1), log, 0));
  e.run();
  EXPECT_EQ(s.available(), 1u);
  EXPECT_EQ(s.queue_length(), 0u);
}

Task<void> scoped_guard_holder(Engine& e, Semaphore& s, bool& ran) {
  co_await s.acquire();
  {
    SemGuard guard(s);
    co_await e.sleep(Duration::ms(1));
  }
  ran = s.available() == 1;
}

TEST(Semaphore, SemGuardReleasesOnScopeExit) {
  Engine e;
  Semaphore s(e, 1);
  bool ok = false;
  e.spawn(scoped_guard_holder(e, s, ok));
  e.run();
  EXPECT_TRUE(ok);
}

Task<void> locker(Engine& e, Mutex& m, int& owner, int id, bool& conflict) {
  co_await m.lock();
  if (owner != 0) conflict = true;
  owner = id;
  co_await e.sleep(Duration::us(100));
  owner = 0;
  m.unlock();
}

TEST(Mutex, ProvidesMutualExclusion) {
  Engine e;
  Mutex m(e);
  int owner = 0;
  bool conflict = false;
  for (int i = 1; i <= 10; ++i) e.spawn(locker(e, m, owner, i, conflict));
  e.run();
  EXPECT_FALSE(conflict);
  EXPECT_EQ(e.now().to_ns(), Duration::us(1000).to_ns());
}

TEST(WaitGroup, WaitsForAllSubtasks) {
  Engine e;
  WaitGroup wg(e);
  std::int64_t joined_at = -1;
  auto sub = [](Engine& eng, WaitGroup& w, Duration d) -> Task<void> {
    co_await eng.sleep(d);
    w.done();
  };
  auto joiner = [](Engine& eng, WaitGroup& w, std::int64_t& t) -> Task<void> {
    co_await w.wait();
    t = eng.now().to_ns();
  };
  wg.add(3);
  for (int i = 1; i <= 3; ++i) e.spawn(sub(e, wg, Duration::ms(i)));
  e.spawn(joiner(e, wg, joined_at));
  e.run();
  EXPECT_EQ(joined_at, Duration::ms(3).to_ns());
}

TEST(WaitGroup, WaitWithNothingPendingCompletes) {
  Engine e;
  WaitGroup wg(e);
  bool done = false;
  e.spawn([](WaitGroup& w, bool& flag) -> Task<void> {
    co_await w.wait();
    flag = true;
  }(wg, done));
  e.run();
  EXPECT_TRUE(done);
}

TEST(WaitGroup, DoneWithoutAddThrows) {
  Engine e;
  WaitGroup wg(e);
  EXPECT_THROW(wg.done(), std::logic_error);
}

Task<void> producer(Engine& e, Queue<int>& q, int count) {
  for (int i = 0; i < count; ++i) {
    co_await e.sleep(Duration::ms(1));
    q.push(i);
  }
}

Task<void> consumer(Engine& e, Queue<int>& q, int count, std::vector<int>& got) {
  for (int i = 0; i < count; ++i) {
    got.push_back(co_await q.pop());
  }
  (void)e;
}

TEST(Queue, DeliversInFifoOrder) {
  Engine e;
  Queue<int> q(e);
  std::vector<int> got;
  e.spawn(producer(e, q, 5));
  e.spawn(consumer(e, q, 5, got));
  e.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Queue, PopBeforePushBlocksUntilPush) {
  Engine e;
  Queue<int> q(e);
  std::vector<int> got;
  e.spawn(consumer(e, q, 1, got));
  e.after(Duration::ms(7), [&] { q.push(42); });
  e.run();
  EXPECT_EQ(got, (std::vector<int>{42}));
  EXPECT_EQ(e.now().to_ns(), Duration::ms(7).to_ns());
}

TEST(Queue, BuffersWhenNoConsumer) {
  Engine e;
  Queue<int> q(e);
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.size(), 2u);
  std::vector<int> got;
  e.spawn(consumer(e, q, 2, got));
  e.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(Queue, MultipleBlockedConsumersServedFifo) {
  Engine e;
  Queue<int> q(e);
  std::vector<std::pair<int, int>> got;  // (consumer id, value)
  auto c = [](Queue<int>& queue, std::vector<std::pair<int, int>>& log, int id) -> Task<void> {
    const int v = co_await queue.pop();
    log.emplace_back(id, v);
  };
  for (int i = 0; i < 3; ++i) e.spawn(c(q, got, i));
  e.after(Duration::ms(1), [&] {
    q.push(10);
    q.push(11);
    q.push(12);
  });
  e.run();
  EXPECT_EQ(got, (std::vector<std::pair<int, int>>{{0, 10}, {1, 11}, {2, 12}}));
}

TEST(Queue, MoveOnlyPayloads) {
  Engine e;
  Queue<std::unique_ptr<int>> q(e);
  int out = 0;
  e.spawn([](Queue<std::unique_ptr<int>>& queue, int& result) -> Task<void> {
    auto p = co_await queue.pop();
    result = *p;
  }(q, out));
  q.push(std::make_unique<int>(99));
  e.run();
  EXPECT_EQ(out, 99);
}

}  // namespace
}  // namespace tio::sim
