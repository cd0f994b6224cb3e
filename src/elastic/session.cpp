#include "elastic/session.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "chaos/properties.h"
#include "chaos/round.h"
#include "dgd/projection.h"
#include "dgd/schedule.h"
#include "elastic/membership.h"
#include "elastic/replica.h"
#include "rng/rng.h"
#include "runtime/runtime.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/trace_export.h"
#include "util/error.h"

namespace redopt::elastic {

namespace {

bool all_finite(const linalg::Vector& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool bits_equal(const linalg::Vector& a, const linalg::Vector& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bits_equal(a[i], b[i])) return false;
  }
  return true;
}

/// Everything an elastic session's agents need, owned by shared_ptr so
/// the AgentFn closure (copied into the transport, and into forked agent
/// processes) keeps it alive wherever it runs.
struct ElasticWorld {
  chaos::Scenario scenario;
  chaos::MaterializedScenario built;
  std::vector<ElasticReplica> replicas;
};

std::shared_ptr<ElasticWorld> make_world(const chaos::Scenario& scenario) {
  auto world = std::make_shared<ElasticWorld>();
  world->scenario = scenario;
  world->built = chaos::materialize_scenario(scenario);
  world->replicas.reserve(scenario.n);
  for (std::size_t i = 0; i < scenario.n; ++i) {
    world->replicas.emplace_back(world->scenario, world->built, i);
  }
  return world;
}

using ExchangeFn =
    std::function<std::vector<util::Frame>(std::size_t round, const linalg::Vector& estimate)>;
using CollectFn = std::function<std::vector<transport::AgentBlob>()>;

/// The shared coordinator core: both entry points run exactly this loop,
/// differing only in how frames move (@p exchange) and how islands come
/// home (@p collect).  Everything deterministic lives here.
ElasticSession run_rounds(const chaos::Scenario& scenario, const ElasticOptions& options,
                          const chaos::MaterializedScenario& built, const ExchangeFn& exchange,
                          const CollectFn& collect) {
  // Telemetry handles first: registration must happen in a serial
  // context.  The chaos.* fault counters keep executor semantics (the
  // same schedule observed coordinator-side); the elastic.* counters add
  // the membership / streaming / serving observables.
  auto& reg = telemetry::registry();
  const auto metric_sessions = reg.counter("elastic.sessions");
  const auto metric_rounds = reg.counter("chaos.rounds");
  const auto metric_byzantine = reg.counter("chaos.byzantine_replies");
  const auto metric_crashed = reg.counter("chaos.crashed_absences");
  const auto metric_stale = reg.counter("chaos.stale_replies");
  const auto metric_dropped = reg.counter("chaos.dropped_replies");
  const auto metric_delayed = reg.counter("chaos.delayed_replies");
  const auto metric_duplicated = reg.counter("chaos.duplicated_replies");
  const auto metric_joins = reg.counter("elastic.joins");
  const auto metric_leaves = reg.counter("elastic.leaves");
  const auto metric_member = reg.counter("elastic.member_agent_rounds");
  const auto metric_absent = reg.counter("elastic.absent_agent_rounds");
  const auto metric_stream_rows = reg.counter("elastic.stream_rows");
  const auto metric_rederived = reg.counter("elastic.f_rederivations");
  const auto metric_below = reg.counter("elastic.rounds_below_redundancy");
  const auto metric_published = reg.counter("elastic.snapshots_published");
  const auto metric_queries = reg.counter("elastic.queries_served");

  const std::size_t n = scenario.n;
  const std::size_t d = scenario.d;
  const MembershipSchedule membership(scenario);

  // The round kernel's (n, f) fallback chain, with an elastic twist: the
  // search starts at the round's DERIVED budget f_t — churn that shrinks
  // the live set below 2f + 1 forces a defensible filter before any
  // reply is even missing.
  chaos::FilterCache filter_cache(scenario.filter, options.filter_factory);

  // Schedule and projection keyed to the nominal (n, f): the step sizes
  // must not depend on the membership replay, or a counterfactual churn
  // would perturb every round after it even when the live sets agree.
  const dgd::HarmonicSchedule schedule(
      chaos::scenario_schedule_coefficient(scenario.filter, n, scenario.f));
  const dgd::BoxProjection projection = dgd::BoxProjection::cube(d, 10.0);

  rng::Rng x0_rng = rng::Rng(scenario.seed).fork("x0");
  linalg::Vector x(d);
  for (auto& v : x) v = x0_rng.uniform(-5.0, 5.0);
  x = projection.project(x);

  ElasticSession session;
  chaos::ScenarioResult& result = session.result;
  result.reference = built.reference;
  result.initial_distance = linalg::distance(x, built.reference);
  result.max_distance = result.initial_distance;
  session.estimates.push_back(x);

  EstimateService internal_service;

  telemetry::ScopedSpan scenario_span("elastic.scenario");
  scenario_span.attr("n", static_cast<std::uint64_t>(n))
      .attr("f", static_cast<std::uint64_t>(scenario.f))
      .attr("rounds", static_cast<std::uint64_t>(scenario.rounds))
      .attr("membership_events", static_cast<std::uint64_t>(scenario.membership.size()))
      .attr("stream_events", static_cast<std::uint64_t>(scenario.stream.size()));

  std::size_t stream_cursor = 0;
  for (std::size_t t = 0; t < scenario.rounds; ++t) {
    const std::size_t m_t = membership.count(t);
    const std::size_t f_t = membership.derived_f(t);
    telemetry::ScopedSpan round_span("elastic.round");
    round_span.attr("t", static_cast<std::uint64_t>(t))
        .attr("members", static_cast<std::uint64_t>(m_t))
        .attr("derived_f", static_cast<std::uint64_t>(f_t));

    const std::vector<util::Frame> frames = exchange(t, x);
    metric_rounds.inc();

    // Membership bookkeeping, replayed from the pure schedule — the
    // coordinator never trusts counters from the other side of the wire.
    const std::size_t joins = membership.joins_at(t);
    const std::size_t leaves = membership.leaves_at(t);
    session.joins += joins;
    session.leaves += leaves;
    metric_joins.inc(joins);
    metric_leaves.inc(leaves);
    if (f_t < scenario.f) {
      ++session.f_rederivations;
      metric_rederived.inc();
      telemetry::span_instant("elastic.f_rederived",
                              {{"t", telemetry::Value(static_cast<std::uint64_t>(t))},
                               {"derived_f", telemetry::Value(static_cast<std::uint64_t>(f_t))}});
    }
    if (!membership.redundant(t)) {
      ++session.rounds_below_redundancy;
      metric_below.inc();
    }
    while (stream_cursor < scenario.stream.size() &&
           scenario.stream[stream_cursor].round <= t) {
      session.stream_rows += scenario.stream[stream_cursor].rows;
      metric_stream_rows.inc(scenario.stream[stream_cursor].rows);
      ++stream_cursor;
    }

    // Fault accounting: replay every live agent's (pure) round fate —
    // identical on every backend by construction.  Departed agents have
    // no fate: their specs sleep until they rejoin.
    for (std::size_t i = 0; i < n; ++i) {
      if (!membership.member(i, t)) {
        ++session.absent_agent_rounds;
        metric_absent.inc();
        continue;
      }
      ++session.member_agent_rounds;
      metric_member.inc();
      const chaos::RoundFate fate = chaos::round_fate(scenario, i, t);
      if (!fate.emits) {
        ++result.crashed_absences;
        metric_crashed.inc();
        continue;
      }
      if (fate.byzantine) {
        ++result.byzantine_replies;
        metric_byzantine.inc();
      }
      if (fate.stale) {
        ++result.stale_replies;
        metric_stale.inc();
      }
      if (fate.dropped) {
        ++result.dropped_replies;
        metric_dropped.inc();
        continue;
      }
      if (fate.duplicated) {
        ++result.duplicated_replies;
        metric_duplicated.inc();
      }
      if (fate.delay > 0) {
        ++result.delayed_replies;
        metric_delayed.inc();
      }
    }

    // Receive: keep the freshest reply per agent (sequence-number dedup,
    // same as the fixed-membership paths).
    struct Reply {
      std::uint64_t emitted = 0;
      const util::Frame* frame = nullptr;
    };
    std::map<std::uint32_t, Reply> inbox;
    for (const util::Frame& frame : frames) {
      auto [it, inserted] = inbox.try_emplace(frame.agent, Reply{frame.emitted, &frame});
      if (inserted) continue;
      if (frame.emitted > it->second.emitted) it->second = Reply{frame.emitted, &frame};
      ++result.superseded_replies;
    }

    // Aggregate and step.
    if (!inbox.empty()) {
      std::vector<linalg::Vector> received;
      received.reserve(inbox.size());
      for (const auto& [agent, reply] : inbox) {
        (void)agent;
        received.push_back(linalg::Vector(reply.frame->payload));
      }
      std::size_t f_used = 0;
      const filters::FilterPtr& filter = filter_cache.get(received.size(), f_t, &f_used);
      if (received.size() != m_t || f_used != scenario.f) {
        ++result.filter_rebuilds;
        telemetry::span_instant(
            "elastic.filter_rebuild",
            {{"t", telemetry::Value(static_cast<std::uint64_t>(t))},
             {"replies", telemetry::Value(static_cast<std::uint64_t>(received.size()))},
             {"f_used", telemetry::Value(static_cast<std::uint64_t>(f_used))}});
      }
      const linalg::Vector direction = filter->apply(received);
      x = projection.project(x - direction * schedule.step(t));
    }
    session.estimates.push_back(x);

    // Serving path: one snapshot per round, published between rounds.
    internal_service.publish(t, x);
    if (options.service != nullptr) options.service->publish(t, x);
    metric_published.inc();
    if (options.query_stride != 0 && t % options.query_stride == 0) {
      const EstimateService::Snapshot snap = internal_service.query();
      metric_queries.inc();
      session.query_rounds.push_back(t);
      session.query_distances.push_back(linalg::distance(snap.estimate, built.reference));
    }

    if (!all_finite(x)) {
      result.nonfinite = true;
      result.nonfinite_round = t;
      break;
    }
    result.max_distance = std::max(result.max_distance, linalg::distance(x, built.reference));
  }

  metric_sessions.inc();
  result.estimate = x;
  result.final_distance = result.nonfinite ? std::numeric_limits<double>::infinity()
                                           : linalg::distance(x, built.reference);
  const std::vector<transport::AgentBlob> blobs = collect();
  telemetry::ScopedSpan parse_span("telemetry.parse_islands");
  for (const transport::AgentBlob& blob : blobs) {
    session.agents.push_back(telemetry::parse_agent_snapshot(blob.blob));
  }
  return session;
}

}  // namespace

ElasticSession run_elastic(const chaos::Scenario& scenario, const ElasticOptions& options) {
  scenario.validate();
  const std::shared_ptr<ElasticWorld> world = make_world(scenario);
  const std::size_t n = scenario.n;

  // The in-process oracle's exchange: fan the replicas out into per-agent
  // slots, then impose the transport layer's canonical frame order so
  // every consumer of the gather sees exactly what Transport::finish_exchange
  // would deliver.  The fan-out is deliberately sequential: a replica's
  // island registry is sharded per observing thread, so a pool fan-out
  // would scatter one replica's histogram observations across shards by
  // scheduling accident and the merged float sums would wobble in the
  // last ulp — breaking the manifest byte-identity the oracle anchors.
  // The inproc transport runs its agents one after another as well; real
  // parallelism lives in the socket backend, where each agent owns a
  // dedicated process and its island a single shard.
  ExchangeFn exchange = [world, n](std::size_t round, const linalg::Vector& estimate) {
    std::vector<std::vector<util::Frame>> slots(n);
    for (std::size_t i = 0; i < n; ++i) {
      slots[i] = world->replicas[i].on_round(round, estimate);
    }
    std::vector<util::Frame> frames;
    for (std::vector<util::Frame>& slot : slots) {
      for (util::Frame& frame : slot) frames.push_back(std::move(frame));
    }
    std::stable_sort(frames.begin(), frames.end(), [](const util::Frame& a, const util::Frame& b) {
      if (a.agent != b.agent) return a.agent < b.agent;
      return a.emitted < b.emitted;
    });
    return frames;
  };
  // Same serialize → parse round trip the transports ship islands
  // through, so both paths surface byte-identical snapshots.
  CollectFn collect = [world, n]() {
    std::vector<transport::AgentBlob> blobs;
    blobs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto agent = static_cast<std::uint32_t>(i);
      blobs.push_back(transport::AgentBlob{
          agent, telemetry::serialize_agent_telemetry(agent, world->replicas[i].telemetry())});
    }
    return blobs;
  };
  return run_rounds(scenario, options, world->built, exchange, collect);
}

ElasticSession run_elastic_transport(const chaos::Scenario& scenario,
                                     const transport::SessionOptions& session_options,
                                     const ElasticOptions& options) {
  scenario.validate();
  const std::shared_ptr<ElasticWorld> world = make_world(scenario);

  transport::AgentFn agent_fn = [world](std::size_t agent, std::size_t round,
                                        const linalg::Vector& estimate) {
    return world->replicas[agent].on_round(round, estimate);
  };
  // Telemetry shipping runs agent-side: on the socket backend this
  // closure executes inside the forked agent process, serializing the
  // fork-local replica's island.
  transport::TelemetryFn telemetry_fn = [world](std::size_t agent) {
    return telemetry::serialize_agent_telemetry(static_cast<std::uint32_t>(agent),
                                                world->replicas[agent].telemetry());
  };
  // The transport must be built (and, for the socket backend, forked)
  // only after the world is fully constructed, so every agent process
  // inherits identical replica state — streaming clones included.
  const std::unique_ptr<transport::Transport> transport = transport::make_transport(
      session_options, scenario.n, std::move(agent_fn), std::move(telemetry_fn));

  ExchangeFn exchange = [&transport](std::size_t round, const linalg::Vector& estimate) {
    return transport->exchange(round, estimate);
  };
  CollectFn collect = [&transport]() { return transport->collect_telemetry(); };
  ElasticSession session = run_rounds(scenario, options, world->built, exchange, collect);
  session.transport = transport->stats();
  return session;
}

std::string elastic_manifest_json(const ElasticSession& session) {
  // The registry is process-wide: a process that also ran a net::
  // protocol still has net.* registered.  The elastic manifest is the
  // document both backends must agree on byte for byte, so those
  // counters stay out of it.
  telemetry::Snapshot coordinator;
  for (telemetry::MetricValue& m : telemetry::registry().snapshot()) {
    if (m.name.rfind("net.", 0) == 0) continue;
    coordinator.push_back(std::move(m));
  }
  return telemetry::render_merged_manifest(coordinator, session.agents);
}

std::string elastic_trace_json(const ElasticSession& session) {
  std::vector<telemetry::TraceTrack> tracks;
  tracks.reserve(session.agents.size() + 1);
  telemetry::TraceTrack coordinator;
  coordinator.pid = 0;
  coordinator.name = "coordinator";
  coordinator.spans = &telemetry::span_log().spans();
  coordinator.instants = &telemetry::span_log().instants();
  tracks.push_back(coordinator);
  for (const telemetry::AgentSnapshot& agent : session.agents) {
    telemetry::TraceTrack track;
    track.pid = agent.agent + 1;
    track.name = "agent " + std::to_string(agent.agent);
    track.spans = &agent.spans;
    track.instants = &agent.instants;
    tracks.push_back(track);
  }
  return telemetry::render_chrome_trace(tracks);
}

bool bit_identical(const ElasticSession& a, const ElasticSession& b) {
  if (!chaos::bit_identical(a.result, b.result)) return false;
  if (a.estimates.size() != b.estimates.size()) return false;
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    if (!bits_equal(a.estimates[i], b.estimates[i])) return false;
  }
  if (a.joins != b.joins || a.leaves != b.leaves) return false;
  if (a.member_agent_rounds != b.member_agent_rounds) return false;
  if (a.absent_agent_rounds != b.absent_agent_rounds) return false;
  if (a.stream_rows != b.stream_rows) return false;
  if (a.f_rederivations != b.f_rederivations) return false;
  if (a.rounds_below_redundancy != b.rounds_below_redundancy) return false;
  if (a.query_rounds != b.query_rounds) return false;
  if (a.query_distances.size() != b.query_distances.size()) return false;
  for (std::size_t i = 0; i < a.query_distances.size(); ++i) {
    if (!bits_equal(a.query_distances[i], b.query_distances[i])) return false;
  }
  return true;
}

}  // namespace redopt::elastic
