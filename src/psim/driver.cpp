#include "psim/driver.hpp"

#include <chrono>
#include <thread>

#include "psim/barrier.hpp"
#include "util/assert.hpp"

namespace rtpb::psim {

namespace {

double wall_now_ms() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
                                 .count()) /
         1000.0;
}

}  // namespace

ParallelDriver::ParallelDriver(std::vector<PartitionTask*> tasks, Duration window)
    : tasks_(std::move(tasks)), window_(window) {
  RTPB_EXPECTS(!tasks_.empty());
  RTPB_EXPECTS(window_ > Duration::zero());
  for (PartitionTask* t : tasks_) RTPB_EXPECTS(t != nullptr);
}

DriverStats ParallelDriver::run(TimePoint from, TimePoint to, std::size_t threads) {
  RTPB_EXPECTS(to >= from);
  DriverStats stats;
  if (threads < 1) threads = 1;
  if (threads > tasks_.size()) threads = tasks_.size();
  stats.threads = threads;
  const double t0 = wall_now_ms();

  // Precompute the window horizons once; workers index into the shared
  // vector instead of each redoing the clamp arithmetic.
  std::vector<TimePoint> horizons;
  for (TimePoint h = from; h < to;) {
    h = h + window_;
    if (h > to) h = to;
    horizons.push_back(h);
  }
  stats.windows = horizons.size();

  // Worker w runs every window over partitions w, w + threads, ...; with
  // one thread the only worker runs inline, where its one-party barrier
  // returns at once.  Running EVERY partition's drain+advance before ANY
  // partition's publish keeps the delivery envelope the same at every
  // thread count — a record published in window k is drained in window
  // k+1 by every peer, regardless of partition order.  Pinned by the
  // digest- and ingest-count tests.
  SpinBarrier barrier(threads);
  const auto work = [this, threads, from, &horizons, &barrier](std::size_t w) {
    TimePoint start = from;
    for (const TimePoint h : horizons) {
      // Static round-robin ownership: partition p belongs to worker
      // p % threads for the whole run, so each simulator is only ever
      // touched by one thread per window (and the same thread every
      // window — warm caches, deterministic streams).
      //
      // Two barrier-separated phases per window.  Phase 1 drains the
      // previous window's publishes and advances to the horizon;
      // phase 2 publishes.  The first barrier stops a publish of
      // window k racing a peer's drain of window k (which would let a
      // record cross in the same window it was published, under the
      // documented [l, 2l] lower bound); the second orders every
      // publish of window k before every drain of window k+1.
      for (std::size_t p = w; p < tasks_.size(); p += threads) {
        tasks_[p]->begin_window(start);
        tasks_[p]->advance_to(h);
      }
      barrier.arrive_and_wait();
      for (std::size_t p = w; p < tasks_.size(); p += threads) tasks_[p]->end_window(h);
      barrier.arrive_and_wait();
      start = h;
    }
  };
  if (threads == 1) {
    work(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) workers.emplace_back(work, w);
    for (std::thread& t : workers) t.join();
    stats.barriers = 2 * stats.windows;
  }
  stats.wall_ms = wall_now_ms() - t0;
  return stats;
}

}  // namespace rtpb::psim
