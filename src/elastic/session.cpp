#include "elastic/session.h"

#include <cstring>

#include "chaos/properties.h"
#include "linalg/vector.h"
#include "telemetry/metrics.h"

namespace redopt::elastic {

namespace {

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Both entry points: the coordinator loop plus the serving path — one
/// snapshot published per round, between rounds, and every
/// query_stride-th round one deterministic query recorded.
ElasticSession run(const chaos::Scenario& scenario,
                   const transport::SessionOptions* session_options,
                   const ElasticOptions& options) {
  scenario.validate();
  auto& reg = telemetry::registry();
  const auto metric_published = reg.counter("elastic.snapshots_published");
  const auto metric_queries = reg.counter("elastic.queries_served");

  ElasticSession session;
  EstimateService internal_service;
  transport::SessionLoop loop;
  loop.filter_factory = options.filter_factory;
  loop.after_round = [&](std::size_t t, const linalg::Vector& x) {
    internal_service.publish(t, x);
    if (options.service != nullptr) options.service->publish(t, x);
    metric_published.inc();
    if (options.query_stride != 0 && t % options.query_stride == 0) {
      const EstimateService::Snapshot snap = internal_service.query();
      metric_queries.inc();
      session.query_rounds.push_back(t);
      session.query_distances.push_back(linalg::distance(snap.estimate, session.result.reference));
    }
  };
  transport::run_session(scenario, session_options, loop, session);
  return session;
}

}  // namespace

ElasticSession run_elastic(const chaos::Scenario& scenario, const ElasticOptions& options) {
  return run(scenario, nullptr, options);
}

ElasticSession run_elastic_transport(const chaos::Scenario& scenario,
                                     const transport::SessionOptions& session_options,
                                     const ElasticOptions& options) {
  return run(scenario, &session_options, options);
}

bool bit_identical(const ElasticSession& a, const ElasticSession& b) {
  if (!chaos::bit_identical(a.result, b.result)) return false;
  if (a.estimates.size() != b.estimates.size()) return false;
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    if (!same_bits(a.estimates[i].data(), b.estimates[i].data())) return false;
  }
  if (a.joins != b.joins || a.leaves != b.leaves) return false;
  if (a.member_agent_rounds != b.member_agent_rounds) return false;
  if (a.absent_agent_rounds != b.absent_agent_rounds) return false;
  if (a.stream_rows != b.stream_rows) return false;
  if (a.f_rederivations != b.f_rederivations) return false;
  if (a.rounds_below_redundancy != b.rounds_below_redundancy) return false;
  if (a.query_rounds != b.query_rounds) return false;
  return same_bits(a.query_distances, b.query_distances);
}

}  // namespace redopt::elastic
