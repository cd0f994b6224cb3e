#include "serving/scheduler.h"

#include <utility>

#include "telemetry/metrics.h"
#include "util/error.h"

namespace redopt::serving {

Scheduler::Scheduler(SchedulerOptions options) : options_(std::move(options)) {
  REDOPT_REQUIRE(options_.slice_rounds >= 1, "scheduler: slice_rounds must be >= 1");
  REDOPT_REQUIRE(options_.max_jobs >= 1, "scheduler: max_jobs must be >= 1");
}

Scheduler::Entry* Scheduler::find(const std::string& job_id) {
  for (Entry& entry : jobs_) {
    if (entry.spec.job_id == job_id) return &entry;
  }
  return nullptr;
}

const Scheduler::Entry* Scheduler::find(const std::string& job_id) const {
  for (const Entry& entry : jobs_) {
    if (entry.spec.job_id == job_id) return &entry;
  }
  return nullptr;
}

std::string Scheduler::submit(const JobSpec& spec) {
  const auto metric_rejected = telemetry::registry().counter("serving.jobs_rejected");
  try {
    spec.validate();
  } catch (const PreconditionError& e) {
    metric_rejected.inc();
    return e.what();
  }
  if (find(spec.job_id) != nullptr) {
    metric_rejected.inc();
    return "job id already known: " + spec.job_id;
  }
  if (live_jobs() >= options_.max_jobs) {
    metric_rejected.inc();
    return "admission: job table full (" + std::to_string(options_.max_jobs) + " live jobs)";
  }
  if (spec.scenario.rounds > options_.max_rounds_per_job) {
    metric_rejected.inc();
    return "admission: rounds " + std::to_string(spec.scenario.rounds) +
           " exceed the per-job budget " + std::to_string(options_.max_rounds_per_job);
  }
  if (spec.scenario.d > options_.max_dimension) {
    metric_rejected.inc();
    return "admission: dimension " + std::to_string(spec.scenario.d) + " exceeds the cap " +
           std::to_string(options_.max_dimension);
  }

  Entry entry;
  entry.spec = spec;
  try {
    entry.built =
        std::make_shared<chaos::MaterializedScenario>(chaos::materialize_scenario(spec.scenario));
  } catch (const PreconditionError& e) {
    metric_rejected.inc();
    return e.what();
  }
  entry.checkpoint = make_initial_checkpoint(spec, *entry.built);
  entry.state = JobState::kQueued;
  jobs_.push_back(std::move(entry));
  telemetry::registry().counter("serving.jobs_admitted").inc();
  restack();
  return "";
}

void Scheduler::adopt(JobCheckpoint checkpoint) {
  REDOPT_REQUIRE(find(checkpoint.spec.job_id) == nullptr,
                 "scheduler: adopt of a known job id: " + checkpoint.spec.job_id);
  REDOPT_REQUIRE(live_jobs() < options_.max_jobs, "scheduler: adopt into a full table");
  Entry entry;
  entry.spec = checkpoint.spec;
  entry.built = std::make_shared<chaos::MaterializedScenario>(
      chaos::materialize_scenario(checkpoint.spec.scenario));
  entry.state = checkpoint.finished() ? JobState::kDone : JobState::kQueued;
  entry.checkpoint = std::move(checkpoint);
  jobs_.push_back(std::move(entry));
  telemetry::registry().counter("serving.jobs_resumed").inc();
  restack();
}

void Scheduler::restack() {
  // Stack every live least-squares job whose dimension matches the
  // first such job's into one grouped evaluator, submission order.
  evaluator_ = nullptr;
  for (Entry& entry : jobs_) entry.in_group = false;

  std::vector<Entry*> candidates;
  std::size_t d = 0;
  for (Entry& entry : jobs_) {
    if (entry.state == JobState::kDone) continue;
    std::size_t entry_d = 0;
    if (!core::BatchGradientEvaluator::all_least_squares(entry.built->problem.costs, &entry_d)) {
      continue;
    }
    if (candidates.empty()) d = entry_d;
    if (entry_d == d) candidates.push_back(&entry);
  }
  if (candidates.empty()) return;

  std::vector<std::vector<core::CostPtr>> groups;
  groups.reserve(candidates.size());
  for (Entry* entry : candidates) groups.push_back(entry->built->problem.costs);
  evaluator_ = core::BatchGradientEvaluator::try_create_grouped(groups);
  if (evaluator_ == nullptr) return;

  for (std::size_t g = 0; g < candidates.size(); ++g) {
    candidates[g]->in_group = true;
    candidates[g]->agent_base = evaluator_->group_offset(g);
  }
  telemetry::registry().counter("serving.restacks").inc();
}

std::string Scheduler::step(
    const std::function<void(const JobCheckpoint&, bool finished)>& on_checkpoint) {
  if (jobs_.empty()) return "";
  const std::size_t count = jobs_.size();
  for (std::size_t probe = 0; probe < count; ++probe) {
    Entry& entry = jobs_[(next_ + probe) % count];
    if (entry.state == JobState::kDone) continue;
    next_ = (next_ + probe + 1) % count;

    entry.state = JobState::kRunning;
    SliceContext ctx;
    ctx.built = entry.built.get();
    if (entry.in_group && evaluator_ != nullptr) {
      ctx.evaluator = evaluator_.get();
      ctx.agent_base = entry.agent_base;
    }
    run_job_slice(entry.checkpoint, options_.slice_rounds, ctx);

    const bool finished = entry.checkpoint.finished();
    entry.state = finished ? JobState::kDone : JobState::kQueued;
    if (on_checkpoint) on_checkpoint(entry.checkpoint, finished);
    if (finished) {
      telemetry::registry().counter("serving.jobs_completed").inc();
      restack();
    }
    return entry.spec.job_id;
  }
  return "";
}

bool Scheduler::idle() const {
  for (const Entry& entry : jobs_) {
    if (entry.state != JobState::kDone) return false;
  }
  return true;
}

std::size_t Scheduler::live_jobs() const {
  std::size_t live = 0;
  for (const Entry& entry : jobs_) {
    if (entry.state != JobState::kDone) ++live;
  }
  return live;
}

std::optional<JobStatus> Scheduler::status(const std::string& job_id) const {
  const Entry* entry = find(job_id);
  if (entry == nullptr) return std::nullopt;
  JobStatus status;
  status.job_id = entry->spec.job_id;
  status.state = entry->state;
  status.rounds_done = entry->checkpoint.next_round;
  status.rounds_total = entry->spec.scenario.rounds;
  return status;
}

std::vector<JobStatus> Scheduler::list() const {
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const Entry& entry : jobs_) {
    JobStatus status;
    status.job_id = entry.spec.job_id;
    status.state = entry.state;
    status.rounds_done = entry.checkpoint.next_round;
    status.rounds_total = entry.spec.scenario.rounds;
    out.push_back(std::move(status));
  }
  return out;
}

const JobCheckpoint* Scheduler::checkpoint(const std::string& job_id) const {
  const Entry* entry = find(job_id);
  return entry == nullptr ? nullptr : &entry->checkpoint;
}

const JobCheckpoint* Scheduler::finished_checkpoint(const std::string& job_id) const {
  const Entry* entry = find(job_id);
  if (entry == nullptr || entry->state != JobState::kDone) return nullptr;
  return &entry->checkpoint;
}

const chaos::MaterializedScenario* Scheduler::built(const std::string& job_id) const {
  const Entry* entry = find(job_id);
  return entry == nullptr ? nullptr : entry->built.get();
}

void Scheduler::release(const std::string& job_id) {
  Entry* entry = find(job_id);
  REDOPT_REQUIRE(entry != nullptr && entry->state == JobState::kDone,
                 "scheduler: release of a job that is not done: " + job_id);
  entry->built.reset();
}

}  // namespace redopt::serving
