#pragma once
/// \file faultinject.hpp
/// \brief Deterministic fault-injection sites for resilience testing.
///
/// Long optimisation runs chain hundreds of linear solves; the recovery
/// paths for a singular pivot, a NaN solution or a NaN gradient must be
/// *exercised by tests*, not hoped for. Library code marks recoverable
/// failure sites with
///
///   if (UPDEC_FAULT_POINT("lu.singular_pivot")) { /* simulate the failure */ }
///
/// Sites are disabled by default and the macro reduces to one relaxed
/// atomic load, so instrumented hot paths stay free. Faults are armed
/// either programmatically (fault::arm) or through the UPDEC_FAULTS
/// environment variable, e.g.
///
///   UPDEC_FAULTS="lu.singular_pivot:2,driver.nan_gradient"
///
/// arms "lu.singular_pivot" for its next two hits and "driver.nan_gradient"
/// for one. Armed counts decrement deterministically per hit, so a given
/// arming reproduces the same failure sequence on every run. Defining
/// UPDEC_DISABLE_FAULT_INJECTION compiles every site out entirely.
///
/// Serve-layer sites (chaos-testing the scheduler's retry/degradation
/// ladder and the persistent cache tier):
///
///   serve.solve_fault        one scenario attempt throws a transient error
///   serve.solve_latency      one attempt sleeps 25 ms before building
///   serve.cache_disk_write   one DiskCache::store fails (memory-only serve)
///   serve.cache_disk_corrupt one DiskCache::load sees a flipped payload
///                            byte (checksum reject + delete + recompute)
///   serve.shard_kill         the shard dispatcher SIGKILLs a worker right
///                            after dispatching a job to it (parent-side
///                            site, so respawned workers do not re-arm it;
///                            exercises crash resubmission)

#include <atomic>
#include <cstddef>
#include <string>

namespace updec::fault {

namespace detail {
/// Global fast-path switch; true iff at least one site has ever been armed.
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// Arm `site` to fire on its next `count` hits (also flips the global
/// fast-path switch on). Re-arming replaces the previous count.
void arm(const std::string& site, std::size_t count = 1);

/// Disarm every site and turn the global fast-path switch off.
void disarm_all();

/// True iff any site has been armed since the last disarm_all().
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Slow path behind UPDEC_FAULT_POINT: true (and consumes one armed count)
/// iff `site` is armed. Logs each fired fault at warn level.
bool should_trigger(const char* site);

/// How many times `site` has fired since it was last armed.
std::size_t trigger_count(const std::string& site);

/// Remaining armed count for `site` (0 when disarmed or exhausted).
std::size_t armed_count(const std::string& site);

/// Parse the UPDEC_FAULTS environment variable and arm the listed sites.
/// Called automatically at program start; exposed for tests.
void arm_from_env();

}  // namespace updec::fault

#if defined(UPDEC_DISABLE_FAULT_INJECTION)
#define UPDEC_FAULT_POINT(site) (false)
#else
/// True iff the named site is armed; consumes one armed count per hit.
#define UPDEC_FAULT_POINT(site)                                   \
  (::updec::fault::detail::g_enabled.load(std::memory_order_relaxed) && \
   ::updec::fault::should_trigger(site))
#endif
