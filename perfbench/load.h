// Drives a real redoptd process: spawn, readiness, closed-loop client
// load, shutdown — plus the in-process replay every result is checked
// against.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serving/scheduler.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace perfbench {

/// One `redoptd --serve` child process with REDOPT_THREADS=1.  The
/// destructor SIGKILLs and reaps a daemon still running, so no exit path
/// leaks one; the child also dies with the driver (PR_SET_PDEATHSIG).
class DaemonProcess {
 public:
  /// @p trace_out non-empty adds --trace-out.
  DaemonProcess(const std::string& binary, const std::string& socket,
                const std::string& state_dir, const std::string& trace_out);
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Blocks until the daemon answers `list`; returns seconds since fork.
  double wait_ready();

  /// The daemon's /proc/<pid>/status text (its VmHWM is the peak RSS).
  std::string proc_status() const;

  /// Graceful shutdown (the daemon writes its trace), then reap.  Throws
  /// when the daemon exits nonzero.
  void shutdown();

 private:
  std::string socket_;
  pid_t pid_ = -1;
  redopt::util::Stopwatch since_fork_;
};

/// Client-side observations of one closed-loop load phase.
struct LoadResult {
  std::size_t attempted = 0;   ///< jobs submitted
  std::size_t completed = 0;   ///< results fetched and verified equal
  std::size_t rejected = 0;    ///< admission refused the submit
  std::size_t exceptions = 0;  ///< client calls that threw or answered !ok
  std::size_t mismatches = 0;  ///< manifest differs from the replay
  std::size_t rounds = 0;      ///< training rounds of the completed jobs
  double wall_s = 0.0;
  std::vector<double> ttr_ms, submit_us, status_us, result_us, polls;
};

/// The manifests redoptd must return: each distinct pool scenario is
/// replayed once through an in-process serving::Scheduler and rendered
/// under the asking job's id, exactly as Daemon::persist renders it.
class ManifestOracle {
 public:
  explicit ManifestOracle(const Workload& workload) : workload_(workload) {}
  std::string expected(const redopt::serving::JobSpec& spec, std::size_t k);

 private:
  const Workload& workload_;
  std::map<std::size_t, std::unique_ptr<redopt::serving::Scheduler>> replays_;
};

/// Closed loop: `clients` threads each keep `in_flight` jobs live,
/// submitting, polling `status` back to back until done, then fetching
/// `result`.  New jobs are submitted until `seconds` passed and at least
/// `min_jobs` were submitted — or, with `exact_jobs` > 0, exactly that
/// many.  Every fetched manifest is verified against @p oracle afterwards.
struct LoadOptions {
  std::size_t clients = 3;
  std::size_t in_flight = 2;
  double seconds = 0.0;
  std::size_t min_jobs = 0;
  std::size_t exact_jobs = 0;
  std::size_t first_job = 0;  ///< stream index of the first job submitted
};

LoadResult run_load(const Workload& workload, const std::string& socket,
                    const LoadOptions& options, ManifestOracle& oracle);

}  // namespace perfbench
