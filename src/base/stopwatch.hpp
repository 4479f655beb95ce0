// Wall-clock stopwatch for the self-timed experiment harnesses.

#ifndef GKX_BASE_STOPWATCH_HPP_
#define GKX_BASE_STOPWATCH_HPP_

#include <chrono>

namespace gkx {

/// Monotonic wall-clock stopwatch, started at construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace gkx

#endif  // GKX_BASE_STOPWATCH_HPP_
