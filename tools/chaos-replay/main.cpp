// chaos-replay: run a serialized chaos scenario and check its properties.
//
// The other half of the shrink-to-reproducer workflow: when the chaos
// suite fails, it prints a minimal scenario as JSON; save that to a file
// and replay it here — same seed, same trajectory, bit for bit — while
// iterating on a fix.
//
//   chaos-replay --scenario repro.json            # replay + property check
//   chaos-replay --scenario repro.json --json     # machine-readable result
//   chaos-replay --generate 5 --seed 7            # print sample scenarios
//   chaos-replay --generate 5 --elastic 0.5       # ... with membership churn
//
// Scenarios carrying membership or stream events route automatically to
// the elastic session layer (elastic::run_elastic /
// run_elastic_transport); everything else runs the fixed-membership
// paths.  By default the scenario runs in process (the chaos executor,
// or elastic::run_elastic).  Pass --backend (and optionally --topology)
// to run it as a transport session instead — the one coordinator round
// loop behind a src/transport/ backend, for either kind of scenario:
//
//   chaos-replay --scenario repro.json --backend=socket --topology=tree
//
// Observability (any of these forces the transport path and switches
// telemetry on):
//
//   --trace-out=trace.json   write a Chrome trace-event file of the run
//                            (load it in Perfetto / chrome://tracing)
//   --attribution            print the fault-attribution report, whose
//                            per-agent/per-link totals must reconcile
//                            exactly with the transport counters
//   --dump-metrics           print the merged coordinator + per-agent
//                            metrics in Prometheus text format
//
// Exit status: 0 when every property holds (and, with --attribution, the
// report reconciles), 1 on a violation (so the binary slots into scripts
// and CI directly).
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "chaos/executor.h"
#include "chaos/generator.h"
#include "chaos/properties.h"
#include "chaos/scenario.h"
#include "elastic/session.h"
#include "runtime/runtime.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"
#include "telemetry/ship.h"
#include "transport/session.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/json.h"

namespace {

using namespace redopt;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  REDOPT_REQUIRE(in.good(), "cannot open scenario file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// @p elastic_session (membership observables) is set for elastic scenarios.
int report_result(const chaos::Scenario& scenario, const chaos::ScenarioResult& result,
                  bool as_json, const transport::TransportStats* transport_stats,
                  const transport::ScenarioSession* elastic_session = nullptr) {
  const chaos::PropertyReport report = chaos::check_properties(scenario, result);
  if (as_json) {
    std::cout << "{\"name\":\"" << util::json_escape(scenario.name) << "\""
              << ",\"guaranteed\":" << (scenario.guaranteed() ? "true" : "false")
              << ",\"ok\":" << (report.ok ? "true" : "false") << ",\"violations\":\""
              << util::json_escape(report.summary()) << "\""
              << ",\"initial_distance\":" << util::json_number(result.initial_distance)
              << ",\"final_distance\":" << util::json_number(result.final_distance)
              << ",\"max_distance\":" << util::json_number(result.max_distance)
              << ",\"byzantine_replies\":" << result.byzantine_replies
              << ",\"crashed_absences\":" << result.crashed_absences
              << ",\"stale_replies\":" << result.stale_replies
              << ",\"dropped_replies\":" << result.dropped_replies
              << ",\"delayed_replies\":" << result.delayed_replies
              << ",\"duplicated_replies\":" << result.duplicated_replies;
    if (elastic_session != nullptr) {
      std::cout << ",\"joins\":" << elastic_session->joins
                << ",\"leaves\":" << elastic_session->leaves
                << ",\"member_agent_rounds\":" << elastic_session->member_agent_rounds
                << ",\"absent_agent_rounds\":" << elastic_session->absent_agent_rounds
                << ",\"stream_rows\":" << elastic_session->stream_rows
                << ",\"f_rederivations\":" << elastic_session->f_rederivations
                << ",\"rounds_below_redundancy\":" << elastic_session->rounds_below_redundancy;
    }
    if (transport_stats != nullptr) {
      std::cout << ",\"frames_delivered\":" << transport_stats->frames_delivered
                << ",\"bytes_on_wire\":" << transport_stats->bytes_on_wire
                << ",\"reduce_rounds\":" << transport_stats->reduce_rounds
                << ",\"messages_retried\":" << transport_stats->messages_retried
                << ",\"agent_deaths\":" << transport_stats->agent_deaths;
    }
    std::cout << "}\n";
  } else {
    std::cout << "scenario:  " << scenario.name << (scenario.guaranteed() ? "  [guaranteed]" : "")
              << "\n"
              << "estimate:  " << result.estimate.to_string() << "\n"
              << "reference: " << result.reference.to_string() << "\n"
              << "distance:  " << result.initial_distance << " -> " << result.final_distance
              << " (max " << result.max_distance << ")\n"
              << "faults:    byz=" << result.byzantine_replies
              << " crash=" << result.crashed_absences << " stale=" << result.stale_replies
              << " drop=" << result.dropped_replies << " delay=" << result.delayed_replies
              << " dup=" << result.duplicated_replies << "\n";
    if (transport_stats != nullptr) {
      std::cout << "transport: frames=" << transport_stats->frames_delivered
                << " bytes=" << transport_stats->bytes_on_wire
                << " reduce_rounds=" << transport_stats->reduce_rounds
                << " retries=" << transport_stats->messages_retried
                << " deaths=" << transport_stats->agent_deaths << "\n";
    }
    if (elastic_session != nullptr) {
      std::cout << "elastic:   joins=" << elastic_session->joins
                << " leaves=" << elastic_session->leaves
                << " member_rounds=" << elastic_session->member_agent_rounds
                << " absent_rounds=" << elastic_session->absent_agent_rounds
                << " stream_rows=" << elastic_session->stream_rows
                << " f_rederivations=" << elastic_session->f_rederivations
                << " below_redundancy=" << elastic_session->rounds_below_redundancy << "\n";
    }
    std::cout << "properties: " << report.summary() << "\n";
  }
  return report.ok ? 0 : 1;
}

int replay(const chaos::Scenario& scenario, bool as_json) {
  if (scenario.elastic()) {
    const elastic::ElasticSession session = elastic::run_elastic(scenario);
    return report_result(scenario, session.result, as_json, nullptr, &session);
  }
  const chaos::ScenarioResult result = chaos::run_scenario(scenario);
  return report_result(scenario, result, as_json, nullptr);
}

/// Observability outputs riding along a transport replay.
struct ObservabilityOptions {
  std::string trace_out;     ///< write Chrome trace JSON here (empty = off)
  bool attribution = false;  ///< print + gate on the attribution report
  bool dump_metrics = false; ///< print the merged Prometheus manifest
  bool any() const { return !trace_out.empty() || attribution || dump_metrics; }
};

int replay_transport(const chaos::Scenario& scenario, bool as_json,
                     const transport::SessionOptions& options,
                     const ObservabilityOptions& observe) {
  const transport::ScenarioSession session =
      scenario.elastic() ? elastic::run_elastic_transport(scenario, options)
                         : transport::run_scenario_transport(scenario, options);
  int status = report_result(scenario, session.result, as_json, &session.transport,
                             scenario.elastic() ? &session : nullptr);

  if (!observe.trace_out.empty()) {
    std::ofstream out(observe.trace_out, std::ios::binary | std::ios::trunc);
    REDOPT_REQUIRE(out.good(), "cannot open trace output file: " + observe.trace_out);
    out << transport::session_trace_json(session);
    REDOPT_REQUIRE(out.good(), "failed writing trace output file: " + observe.trace_out);
  }
  if (observe.dump_metrics) {
    std::cout << telemetry::render_prometheus(telemetry::merge_agent_snapshots(
        telemetry::registry().snapshot(), session.agents));
  }
  if (observe.attribution) {
    if (as_json) {
      std::cout << session.attribution.to_json() << "\n";
    } else {
      std::cout << session.attribution.to_text();
    }
    if (!session.attribution.ok() && status == 0) status = 1;
  }
  return status;
}

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"scenario", "generate", "seed", "threads", "json", "help",
                                   "backend", "topology", "trace-out", "attribution",
                                   "dump-metrics", "elastic"});
  if (cli.get_bool("help", false)) {
    std::cout << "usage: chaos-replay --scenario FILE [--threads N] [--json]\n"
              << "                    [--backend inproc|socket] [--topology star|chain|tree]\n"
              << "                    [--trace-out FILE] [--attribution] [--dump-metrics]\n"
              << "       chaos-replay --generate K [--seed S] [--elastic P] [--json]\n";
    return 0;
  }
  const std::int64_t threads = cli.get_int_env("threads", "REDOPT_THREADS", 0);
  if (threads > 0) runtime::set_threads(static_cast<std::size_t>(threads));
  const bool as_json = cli.get_bool("json", false);

  const std::int64_t generate = cli.get_int("generate", 0);
  if (generate > 0) {
    chaos::GeneratorSpec spec;
    spec.elastic_probability = cli.get_double("elastic", 0.0);
    chaos::Generator generator(spec, static_cast<std::uint64_t>(cli.get_int("seed", 1)));
    for (std::int64_t k = 0; k < generate; ++k) std::cout << generator.next().to_json() << "\n";
    return 0;
  }

  const std::string path = cli.get_string("scenario", "");
  REDOPT_REQUIRE(!path.empty(), "pass --scenario FILE or --generate K (see --help)");
  const chaos::Scenario scenario = chaos::scenario_from_json(read_file(path));

  ObservabilityOptions observe;
  observe.trace_out = cli.get_string("trace-out", "");
  observe.attribution = cli.get_bool("attribution", false);
  observe.dump_metrics = cli.get_bool("dump-metrics", false);

  // Either transport flag — or any observability flag — switches the
  // replay from the in-process chaos executor to a transport session;
  // the parses are strict and name the valid values on error.
  if (cli.get("backend") || cli.get("topology") || observe.any()) {
    // Switch telemetry on before the transport forks its agents: the
    // coordinator's spans and the session metrics need the switch, and
    // flipping it after the fork would not reach the agent processes
    // (their islands record unconditionally either way).
    if (observe.any()) telemetry::set_enabled(true);
    transport::SessionOptions options;
    options.backend = transport::backend_from_string(cli.get_string("backend", "inproc"));
    options.topology = transport::topology_from_string(cli.get_string("topology", "star"));
    return replay_transport(scenario, as_json, options, observe);
  }
  return replay(scenario, as_json);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "chaos-replay: " << e.what() << "\n";
    return 2;
  }
}
