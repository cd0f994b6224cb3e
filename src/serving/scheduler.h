// The serving scheduler: admission control, budget slices, fairness.
//
// Jobs run as a sequence of bounded slices over the shared deterministic
// runtime::ThreadPool (each slice's gradient fan-out is a parallel_for).
// The scheduler rotates round-robin through live jobs, runs one slice of
// at most `slice_rounds` rounds, and hands the updated checkpoint to the
// caller (the daemon persists it before the next slice — that is the
// crash-recovery contract).  Scheduling is deterministic: same
// submission order, same slice schedule, any thread count.
//
// Admission control is strict and synchronous at submit():
//   * table capacity  — at most max_jobs jobs queued + running,
//   * round budget    — scenario.rounds <= max_rounds_per_job,
//   * dimension cap   — scenario.d <= max_dimension,
//   * unique job_id   — resubmitting a live or finished id is rejected,
//   * spec validity   — JobSpec::validate() (elastic scenarios rejected).
//
// Cross-job batching: whenever the live-job set changes, the scheduler
// restacks every compatible job's least-squares population into one
// core::BatchGradientEvaluator along the group axis (submission order);
// compatible jobs' slices evaluate through it, the rest fall back to
// the virtual cost path.  Both paths are bit-identical per the
// evaluator's contract.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/executor.h"
#include "core/batch_gradient.h"
#include "serving/checkpoint.h"
#include "serving/runner.h"

namespace redopt::serving {

struct SchedulerOptions {
  std::size_t max_jobs = 8;              ///< admission: live (queued+running) cap
  std::size_t max_rounds_per_job = 100000;  ///< admission: per-job round budget
  std::size_t max_dimension = 4096;      ///< admission: per-job dimension cap
  std::size_t slice_rounds = 16;         ///< rounds per scheduling slice, >= 1
};

/// One job's public status.
struct JobStatus {
  std::string job_id;
  JobState state = JobState::kQueued;
  std::size_t rounds_done = 0;
  std::size_t rounds_total = 0;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options);

  /// Admission control.  Returns the empty string on acceptance, the
  /// rejection reason otherwise (malformed specs also surface here, as
  /// a reason, not an exception — the daemon relays it to the client).
  std::string submit(const JobSpec& spec);

  /// Adopts a checkpoint recovered from disk after a daemon restart.
  /// The job resumes from exactly where the checkpoint left it.  Throws
  /// redopt::PreconditionError on a duplicate id or a full table.
  void adopt(JobCheckpoint checkpoint);

  /// Runs one slice of the next runnable job (round-robin).  Invokes
  /// @p on_checkpoint with the updated checkpoint and whether the job
  /// finished, then returns the job id stepped — empty when idle.
  std::string step(const std::function<void(const JobCheckpoint&, bool finished)>& on_checkpoint);

  /// True when no job has rounds remaining.
  bool idle() const;

  std::size_t live_jobs() const;

  /// Status of one job; std::nullopt when the id was never admitted.
  std::optional<JobStatus> status(const std::string& job_id) const;

  /// All jobs in submission order.
  std::vector<JobStatus> list() const;

  /// The current checkpoint of any admitted job; nullptr for unknown ids.
  const JobCheckpoint* checkpoint(const std::string& job_id) const;

  /// The finished checkpoint of a done job; nullptr otherwise.
  const JobCheckpoint* finished_checkpoint(const std::string& job_id) const;

  /// The materialized instance backing a job (for manifest rendering);
  /// nullptr for unknown ids and for released jobs.
  const chaos::MaterializedScenario* built(const std::string& job_id) const;

  /// Drops a done job's materialized instance once its result is durable
  /// elsewhere (the daemon calls it after writing the manifest).  The
  /// job's status, list row, finished checkpoint and id reservation are
  /// kept.  Throws redopt::PreconditionError unless the job is done.
  void release(const std::string& job_id);

  /// Test / bench hook: the current cross-job evaluator (nullptr when
  /// fewer than one compatible live job exists).
  const core::BatchGradientEvaluator* group_evaluator() const { return evaluator_.get(); }

 private:
  struct Entry {
    JobSpec spec;
    JobCheckpoint checkpoint;
    JobState state = JobState::kQueued;
    std::shared_ptr<chaos::MaterializedScenario> built;  ///< null once released
    bool in_group = false;        ///< evaluates through the stacked evaluator
    std::size_t agent_base = 0;   ///< first global index within the evaluator
  };

  Entry* find(const std::string& job_id);
  const Entry* find(const std::string& job_id) const;
  void restack();

  SchedulerOptions options_;
  std::vector<Entry> jobs_;   ///< submission order; finished entries stay
  std::size_t next_ = 0;      ///< round-robin cursor into jobs_
  std::unique_ptr<core::BatchGradientEvaluator> evaluator_;
};

}  // namespace redopt::serving
