#include "stamp.hpp"

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <future>
#include <sstream>

#include "serve/pool.hpp"

#if defined(UPDEC_HAVE_OPENMP)
#include <omp.h>
#endif

extern char** environ;

namespace perfbench {

ThreadBudget thread_budget(std::string_view workload) {
  if (workload == "serve") return {2, 1, 2};
  return {1, 1, 0};
}

std::size_t nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

int omp_team_here() {
#if defined(UPDEC_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

int omp_team_in_worker() {
  std::promise<int> team;
  std::future<int> result = team.get_future();
  {
    updec::serve::ThreadPool pool(1);
    pool.submit([&team] { team.set_value(omp_team_here()); });
  }  // the destructor drains and joins
  return result.get();
}

std::vector<std::string> clear_updec_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("UPDEC_", 0) == 0)
      names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  return names;
}

std::string build_refusal() {
#if !defined(__OPTIMIZE__)
  return "the benchmark was compiled without optimisation";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "the benchmark was compiled with a sanitizer";
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo")
    return "build type '" + type + "' is not an optimised build";
  const std::string sanitize = PERFBENCH_SANITIZE;
  if (!sanitize.empty() && sanitize != "OFF" && sanitize != "0" &&
      sanitize != "FALSE" && sanitize != "NO")
    return "the library was built with UPDEC_SANITIZE=" + sanitize;
  return {};
}

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream is("/proc/stat");
  std::string line;
  if (!std::getline(is, line) || line.rfind("cpu ", 0) != 0) return t;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user and nice).
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && (fields >> v); ++i) {
    t.total += v;
    if (i == 7) {
      t.steal = v;
      t.valid = true;
    }
  }
  return t;
}

double steal_share(const CpuTimes& begin, const CpuTimes& end) {
  if (!begin.valid || !end.valid || end.total <= begin.total) return -1.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

}  // namespace perfbench
