// Deadline & cancellation plumbing: the Deadline/CancelToken/StopSignal
// primitives, the worksteal pool's abandon protocol (including the
// lost-wakeup regression — cancelling while every worker is parked), and
// the end-to-end contract that a stopped consistency check returns
// kDeadlineExceeded/kCancelled with partial statistics, never a verdict.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "base/deadline.h"
#include "base/worksteal.h"
#include "core/consistency.h"
#include "core/spec_session.h"
#include "workloads/generators.h"

namespace xicc {
namespace {

int64_t MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A consistent LIP instance whose unrestrained solve takes hundreds of
/// milliseconds — far past the 50 ms budgets below, including one 4×
/// escalated retry. The multi-conditional case split is what makes it
/// explode: every conditional doubles the split tree.
workloads::LipEncoding ExplodingSpec() {
  return workloads::EncodeLipAsConsistency(
      workloads::RandomLip(/*seed=*/3, /*rows=*/12, /*cols=*/24,
                           /*ones_per_row=*/3));
}

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.RemainingMs(), INT64_MAX);
}

TEST(DeadlineTest, AfterExpires) {
  Deadline past = Deadline::After(0);
  EXPECT_FALSE(past.IsInfinite());
  EXPECT_TRUE(past.Expired());
  EXPECT_EQ(past.RemainingMs(), 0);

  Deadline future = Deadline::After(60'000);
  EXPECT_FALSE(future.Expired());
  EXPECT_GT(future.RemainingMs(), 0);

  // Negative budgets clamp to "already expired", not to the far past.
  EXPECT_TRUE(Deadline::After(-5).Expired());
}

// A budget past the steady clock's range (≈292 years of nanoseconds) is no
// budget at all: it must saturate to infinite, not wrap into the past and
// expire at once.
TEST(DeadlineTest, PastTheClockRangeSaturatesToInfinite) {
  for (int64_t ms : {int64_t{9'223'372'036'854}, INT64_MAX / 2, INT64_MAX}) {
    const Deadline d = Deadline::After(ms);
    EXPECT_TRUE(d.IsInfinite()) << ms;
    EXPECT_FALSE(d.Expired()) << ms;
    EXPECT_EQ(d.RemainingMs(), INT64_MAX) << ms;
  }
  // A far but representable deadline stays finite.
  const Deadline year = Deadline::After(int64_t{365} * 24 * 3'600'000);
  EXPECT_FALSE(year.IsInfinite());
  EXPECT_FALSE(year.Expired());

  EXPECT_TRUE(Deadline::Earliest(Deadline::After(0), year).Expired());
  EXPECT_FALSE(Deadline::Earliest(Deadline(), year).IsInfinite());
  EXPECT_TRUE(Deadline::Earliest(Deadline(), Deadline()).IsInfinite());
}

// CondVar::WaitFor caps one wait, so a wait on an infinite deadline blocks
// until notified instead of returning at once (std's wait_for overflows on
// INT64_MAX milliseconds and times out immediately, which turns every
// deadline loop into a spin).
TEST(CondVarTest, WaitForAnInfiniteBudgetBlocksUntilNotified) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread notifier([&] {
    SleepFor(50, nullptr);
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyAll();
  });
  size_t returns = 0;
  {
    MutexLock lock(&mu);
    while (!ready) {
      const bool notified = cv.WaitFor(&mu, INT64_MAX);
      (void)notified;  // xicc-lint: allow(void-discard)
      ++returns;
    }
  }
  notifier.join();
  // One return for the notification, a few for spurious wakeups; a spinning
  // wait returns thousands of times in 50 ms.
  EXPECT_LE(returns, 10u);
}

// A --cancel-after past the clock's range never fires.
TEST(CancelTimerTest, PastTheClockRangeNeverFires) {
  CancelToken token;
  {
    CancelTimer timer(&token, INT64_MAX);
    SleepFor(20, nullptr);
    EXPECT_FALSE(token.Cancelled());
  }
  EXPECT_FALSE(token.Cancelled());
}

TEST(CancelTokenTest, StickyAndCallbackLifecycle) {
  CancelToken token;
  EXPECT_FALSE(token.Cancelled());

  std::atomic<int> wakes{0};
  uint64_t id = token.AddWakeCallback([&] { ++wakes; });
  token.Cancel();
  EXPECT_TRUE(token.Cancelled());
  EXPECT_EQ(wakes.load(), 1);
  token.Cancel();  // Idempotent, but callbacks run again (wakes are cheap).
  EXPECT_TRUE(token.Cancelled());
  token.RemoveWakeCallback(id);
  int seen = wakes.load();
  token.Cancel();
  EXPECT_EQ(wakes.load(), seen);  // Removed callback never runs again.

  // Registering on an already-cancelled token fires the callback once
  // immediately — the observer must not park waiting for a wake that
  // already happened.
  std::atomic<int> late{0};
  uint64_t late_id = token.AddWakeCallback([&] { ++late; });
  EXPECT_EQ(late.load(), 1);
  token.RemoveWakeCallback(late_id);
}

TEST(StopSignalTest, UnarmedNeverStops) {
  StopSignal stop;
  EXPECT_FALSE(stop.Armed());
  EXPECT_FALSE(stop.ShouldStop());
}

TEST(StopSignalTest, CancelWinsOverDeadline) {
  CancelToken token;
  StopSignal stop;
  stop.deadline = Deadline::After(0);
  stop.cancel = &token;
  ASSERT_TRUE(stop.Armed());
  ASSERT_TRUE(stop.ShouldStop());
  // Deadline alone: kDeadlineExceeded.
  EXPECT_EQ(stop.ToStatus().code(), StatusCode::kDeadlineExceeded);
  // Once the token fires, cancellation is the stronger, caller-driven fact.
  token.Cancel();
  EXPECT_EQ(stop.ToStatus().code(), StatusCode::kCancelled);
}

TEST(SleepForTest, CancelCutsTheSleepShort) {
  CancelToken token;
  const auto start = std::chrono::steady_clock::now();
  std::thread canceller([&] {
    SleepFor(20);
    token.Cancel();
  });
  // Without the cancel this would block for 30 s; the test finishing at all
  // is the point.
  EXPECT_TRUE(SleepFor(30'000, &token));
  EXPECT_LT(MsSince(start), 25'000);
  canceller.join();

  // An already-cancelled token returns immediately.
  EXPECT_TRUE(SleepFor(30'000, &token));
  // A full, uncancelled sleep reports false.
  EXPECT_FALSE(SleepFor(1, nullptr));
}

TEST(CancelTimerTest, FiresAndDisarms) {
  CancelToken fired;
  {
    CancelTimer timer(&fired, 10);
    const auto start = std::chrono::steady_clock::now();
    while (!fired.Cancelled() && MsSince(start) < 10'000) SleepFor(1);
  }
  EXPECT_TRUE(fired.Cancelled());

  CancelToken disarmed;
  {
    CancelTimer timer(&disarmed, 60'000);
  }  // Destroyed long before the delay: must disarm, not fire.
  EXPECT_FALSE(disarmed.Cancelled());
}

// The lost-wakeup regression: every worker is parked on the sleep CondVar
// (no tasks were ever submitted), then the token fires. Without the wake
// callback mirroring Submit's generation protocol, the workers would sleep
// until the destructor's own broadcast — and a Wait()er would wedge
// forever. The pool must drain: every worker exits, Wait returns.
TEST(WorkStealPoolTest, CancelWakesParkedWorkers) {
  CancelToken token;
  WorkStealingPool pool(4, &token);
  // Give the workers time to find every shard empty and park.
  SleepFor(50);
  ASSERT_EQ(pool.WorkersAlive(), 4u);

  token.Cancel();
  const auto start = std::chrono::steady_clock::now();
  while (pool.WorkersAlive() != 0 && MsSince(start) < 10'000) SleepFor(1);
  EXPECT_EQ(pool.WorkersAlive(), 0u)
      << "Cancel() failed to wake parked workers";
  pool.Wait();  // Must return, not wedge, on a fully drained pool.
}

TEST(WorkStealPoolTest, CancelledPoolDrainsWithoutRunning) {
  CancelToken token;
  token.Cancel();
  std::atomic<int> ran{0};
  {
    WorkStealingPool pool(2, &token);
    // Submits on a cancelled pool are dropped on arrival.
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&] { ++ran; });
    }
    pool.Wait();
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(WorkStealPoolTest, CancelMidFlightStopsQueuedTasks) {
  CancelToken token;
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  {
    WorkStealingPool pool(2, &token);
    // Two blockers occupy both workers; the rest queue up behind them.
    for (int i = 0; i < 2; ++i) {
      pool.Submit([&] {
        while (!release.load()) SleepFor(1);
      });
    }
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&] { ++ran; });
    }
    token.Cancel();
    release.store(true);
    pool.Wait();
    // The queued tasks were drained without running (in-flight blockers
    // finished; they are expected to poll the token themselves).
    EXPECT_EQ(ran.load(), 0);
  }
}

TEST(ConsistencyDeadlineTest, ExpiredDeadlineIsNotAVerdict) {
  workloads::LipEncoding spec = ExplodingSpec();
  ConsistencyOptions options;
  options.stop.deadline = Deadline::After(0);
  ConsistencyStats partial;
  partial.ilp_nodes = 999;  // Must be zeroed: nothing ran.
  options.partial_stats = &partial;
  auto result = CheckConsistency(spec.dtd, spec.sigma, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(partial.ilp_nodes, 0u);
}

TEST(ConsistencyDeadlineTest, MidSearchDeadlineReturnsPartialStats) {
  workloads::LipEncoding spec = ExplodingSpec();
  ConsistencyOptions options;
  ConsistencyStats partial;
  options.partial_stats = &partial;
  // 50 ms lands mid-search in a release build; sanitizer/debug builds can
  // burn the whole budget in the pre-search phases (compile + encoding) and
  // die with zero pivots. Escalate until the deadline demonstrably falls
  // inside the pivot loop — the cap stays far below the unrestrained solve
  // time, which scales up by the same build-slowdown factor.
  int64_t budget_ms = 50;
  int64_t elapsed = 0;
  Result<ConsistencyResult> result = Status::Internal("never ran");
  for (; budget_ms <= 1'600; budget_ms *= 2) {
    options.stop.deadline = Deadline::After(budget_ms);
    const auto start = std::chrono::steady_clock::now();
    result = CheckConsistency(spec.dtd, spec.sigma, options);
    elapsed = MsSince(start);
    if (!result.ok() && partial.lp_pivots > 0) break;
  }
  ASSERT_FALSE(result.ok()) << "the exploding spec finished under "
                            << budget_ms << " ms; grow the instance";
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // Stop polls are bounded-cost but frequent: the check must die close to
  // its deadline, not after seconds of overshoot.
  EXPECT_LT(elapsed, budget_ms + 2'000);
  // The search got somewhere before the axe fell, and said so.
  EXPECT_GT(partial.lp_pivots, 0u);
}

TEST(ConsistencyDeadlineTest, CancelMidSearchReturnsCancelled) {
  workloads::LipEncoding spec = ExplodingSpec();
  CancelToken token;
  CancelTimer timer(&token, 30);
  ConsistencyOptions options;
  options.stop.cancel = &token;
  ConsistencyStats partial;
  options.partial_stats = &partial;
  const auto start = std::chrono::steady_clock::now();
  auto result = CheckConsistency(spec.dtd, spec.sigma, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_LT(MsSince(start), 2'000);
}

TEST(ConsistencyDeadlineTest, GenerousDeadlineChangesNothing) {
  // The plumbing must be pay-as-you-go: an armed but never-fired stop
  // yields the identical verdict as no stop at all.
  Dtd dtd = workloads::CatalogDtd(2);
  ConstraintSet sigma = workloads::CatalogFkChainSigma(2);
  auto plain = CheckConsistency(dtd, sigma);
  ASSERT_TRUE(plain.ok());

  ConsistencyOptions options;
  options.stop.deadline = Deadline::After(600'000);
  CancelToken token;
  options.stop.cancel = &token;
  auto stopped = CheckConsistency(dtd, sigma, options);
  ASSERT_TRUE(stopped.ok());
  EXPECT_EQ(plain->consistent, stopped->consistent);
  EXPECT_EQ(plain->method, stopped->method);
}

TEST(SpecSessionDeadlineTest, SessionStopAndPartialStats) {
  workloads::LipEncoding spec = ExplodingSpec();
  auto compiled = CompileDtd(spec.dtd);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  SpecSession session(*compiled);

  // Same budget escalation as MidSearchDeadlineReturnsPartialStats: slow
  // (sanitizer) builds can spend 50 ms before the first pivot.
  Result<ConsistencyResult> stopped = Status::Internal("never ran");
  for (int64_t budget_ms = 50; budget_ms <= 1'600; budget_ms *= 2) {
    StopSignal stop;
    stop.deadline = Deadline::After(budget_ms);
    session.SetStop(stop);
    stopped = session.Check(spec.sigma);
    if (!stopped.ok() && session.LastPartialStats().lp_pivots > 0) break;
  }
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(session.LastPartialStats().lp_pivots, 0u);

  // Disarm: the same session must answer later queries normally — a
  // deadline poisons one query, not the session.
  session.SetStop(StopSignal());
  ConstraintSet trivial;
  auto fine = session.Check(trivial);
  ASSERT_TRUE(fine.ok()) << fine.status();
  EXPECT_TRUE(fine->consistent);
}

}  // namespace
}  // namespace xicc
