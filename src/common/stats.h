#ifndef SGTREE_COMMON_STATS_H_
#define SGTREE_COMMON_STATS_H_

#include <chrono>

namespace sgtree {

/// Wall-clock stopwatch for the benchmark harness.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction or the last Restart, in milliseconds.
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace sgtree

#endif  // SGTREE_COMMON_STATS_H_
