#pragma once
/// \file cpu_clock.hpp
/// The clock of the `pinn` and `solver` workloads: CPU time of the calling
/// thread.
///
/// Those workloads run on one thread with an OpenMP team of 1, so the time
/// the thread spends on an operation is the operation's time. Unlike the
/// wall clock it leaves out the time the hypervisor takes the virtual CPU
/// away (steal): on Linux with CONFIG_PARAVIRT_TIME_ACCOUNTING the
/// scheduler clock that feeds this counter stops while a vCPU is stolen. On
/// a shared host steal moves wall-clock times by tens of percent from one
/// minute to the next; see README.md, "Clock". The `serve` workload times
/// on the wall clock instead, because waiting is part of what it measures.

#include <ctime>

namespace perfbench {

/// CPU seconds used by the calling thread.
[[nodiscard]] inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Stopwatch on the calling thread's CPU clock.
class CpuStopwatch {
 public:
  [[nodiscard]] double seconds() const {
    return thread_cpu_seconds() - start_;
  }

 private:
  double start_ = thread_cpu_seconds();
};

}  // namespace perfbench
