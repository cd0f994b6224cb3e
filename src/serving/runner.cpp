#include "serving/runner.h"

#include <cmath>
#include <string>

#include "telemetry/metrics.h"
#include "telemetry/ship.h"
#include "telemetry/span.h"
#include "util/error.h"
#include "util/json.h"

namespace redopt::serving {

namespace {

std::string vector_json(const linalg::Vector& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += util::json_number(v[i]);
  }
  out += "]";
  return out;
}

}  // namespace

JobCheckpoint make_initial_checkpoint(const JobSpec& spec,
                                      const chaos::MaterializedScenario& built) {
  spec.validate();
  JobCheckpoint ck;
  ck.spec = spec;
  ck.state = chaos::initial_round_state(spec.scenario, built);
  return ck;
}

std::size_t run_job_slice(JobCheckpoint& ck, std::size_t max_rounds, chaos::RoundKernel& kernel) {
  REDOPT_REQUIRE(ck.state.x.size() == kernel.scenario().d &&
                     ck.spec.scenario.seed == kernel.scenario().seed,
                 "runner: the kernel was built for another scenario");
  if (ck.finished() || max_rounds == 0) return 0;

  auto& reg = telemetry::registry();
  const auto metric_slices = reg.counter("serving.slices");
  const auto metric_rounds = reg.counter("serving.rounds");

  telemetry::ScopedSpan slice_span("serving.slice");
  slice_span.attr("job", ck.spec.job_id)
      .attr("from", static_cast<std::uint64_t>(ck.state.next_round));

  std::size_t ran = 0;
  while (ran < max_rounds && !ck.finished()) {
    kernel.step(ck.state);
    metric_rounds.inc();
    ++ran;
  }

  metric_slices.inc();
  slice_span.attr("rounds", static_cast<std::uint64_t>(ran));
  return ran;
}

std::string job_manifest_json(const JobCheckpoint& ck, const chaos::MaterializedScenario& built,
                              double wall_seconds) {
  REDOPT_REQUIRE(ck.finished(), "manifest: job has rounds remaining");
  const chaos::RoundState& st = ck.state;
  const double final_distance = chaos::scenario_result(st, built).final_distance;

  // Ship a per-job telemetry island through the same serialize -> parse
  // -> render pipeline the transport backends use, so the manifest's
  // telemetry section canonicalizes identically everywhere.
  telemetry::AgentTelemetry island;
  island.registry.counter("serving.job.rounds").inc(st.next_round);
  island.registry.counter("serving.job.byzantine_replies").inc(st.counters.byzantine_replies);
  island.registry.counter("serving.job.crashed_absences").inc(st.counters.crashed_absences);
  island.registry.counter("serving.job.stale_replies").inc(st.counters.stale_replies);
  island.registry.counter("serving.job.dropped_replies").inc(st.counters.dropped_replies);
  island.registry.counter("serving.job.delayed_replies").inc(st.counters.delayed_replies);
  island.registry.counter("serving.job.duplicated_replies").inc(st.counters.duplicated_replies);
  island.registry.counter("serving.job.superseded_replies").inc(st.counters.superseded_replies);
  island.registry.counter("serving.job.filter_rebuilds").inc(st.counters.filter_rebuilds);
  if (std::isfinite(final_distance)) {
    island.registry.gauge("serving.job.final_distance").set(final_distance);
  }
  island.registry.gauge("serving.job.initial_distance").set(st.initial_distance);
  island.registry.gauge("serving.job.max_distance").set(st.max_distance);
  const std::string blob = telemetry::serialize_agent_telemetry(0, island);
  const telemetry::AgentSnapshot snapshot = telemetry::parse_agent_snapshot(blob);
  const std::string tele = telemetry::render_merged_manifest(telemetry::Snapshot{}, {snapshot});

  std::string out = "{";
  out += "\"job\":\"" + util::json_escape(ck.spec.job_id) + "\",";
  out += "\"scenario\":" + ck.spec.scenario.to_json() + ",";
  out += "\"rounds\":" + std::to_string(st.next_round) + ",";
  out += "\"result\":{";
  out += "\"initial_distance\":" + util::json_number(st.initial_distance) + ",";
  out += "\"final_distance\":" + util::json_number(final_distance) + ",";
  out += "\"max_distance\":" + util::json_number(st.max_distance) + ",";
  out += "\"nonfinite\":" + std::string(st.nonfinite ? "true" : "false") + ",";
  out += "\"nonfinite_round\":" + std::to_string(st.nonfinite_round) + ",";
  out += "\"estimate\":" + vector_json(st.x) + ",";
  out += "\"counters\":{";
  out += "\"byzantine_replies\":" + std::to_string(st.counters.byzantine_replies) + ",";
  out += "\"crashed_absences\":" + std::to_string(st.counters.crashed_absences) + ",";
  out += "\"stale_replies\":" + std::to_string(st.counters.stale_replies) + ",";
  out += "\"dropped_replies\":" + std::to_string(st.counters.dropped_replies) + ",";
  out += "\"delayed_replies\":" + std::to_string(st.counters.delayed_replies) + ",";
  out += "\"duplicated_replies\":" + std::to_string(st.counters.duplicated_replies) + ",";
  out += "\"superseded_replies\":" + std::to_string(st.counters.superseded_replies) + ",";
  out += "\"filter_rebuilds\":" + std::to_string(st.counters.filter_rebuilds);
  out += "}},";
  out += "\"telemetry\":" + tele + ",";
  out += "\"nd\":{\"wall_s\":" + util::json_number(wall_seconds) + "}";
  out += "}";
  return out;
}

}  // namespace redopt::serving
