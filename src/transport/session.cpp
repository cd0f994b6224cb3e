#include "transport/session.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "chaos/membership.h"
#include "chaos/round.h"
#include "core/aggregate_cost.h"
#include "dgd/projection.h"
#include "dgd/schedule.h"
#include "rng/rng.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/trace_export.h"
#include "transport/agent_replica.h"
#include "transport/inproc_transport.h"
#include "util/cli.h"
#include "util/error.h"

namespace redopt::transport {

namespace {

/// Everything a session's agents need, owned by shared_ptr so the AgentFn
/// closure (copied into the transport, and into forked agent processes)
/// keeps it alive wherever it runs.
struct SessionWorld {
  chaos::Scenario scenario;
  chaos::MaterializedScenario built;
  std::vector<AgentReplica> replicas;
};

/// The transport-free exchange: every replica in ascending agent order,
/// its frames in the transport layer's canonical (agent, emitted) order.
/// Deliberately sequential: a replica's island registry is sharded per
/// observing thread, so a pool fan-out would scatter one replica's
/// histogram observations across shards and the merged float sums would
/// wobble in the last ulp.  The inproc transport runs its agents one
/// after another as well.
std::vector<util::Frame> fan_out(SessionWorld& world, std::size_t round,
                                 const linalg::Vector& estimate) {
  std::vector<util::Frame> frames;
  for (AgentReplica& replica : world.replicas) {
    for (util::Frame& frame : replica.on_round(round, estimate)) {
      frames.push_back(std::move(frame));
    }
  }
  std::stable_sort(frames.begin(), frames.end(), [](const util::Frame& a, const util::Frame& b) {
    if (a.agent != b.agent) return a.agent < b.agent;
    return a.emitted < b.emitted;
  });
  return frames;
}

}  // namespace

const std::vector<std::string>& backend_names() {
  static const std::vector<std::string> names = {"inproc", "socket"};
  return names;
}

std::string to_string(BackendKind backend) {
  switch (backend) {
    case BackendKind::kInproc:
      return "inproc";
    case BackendKind::kSocket:
      return "socket";
  }
  return "inproc";  // unreachable
}

BackendKind backend_from_string(const std::string& name) {
  // backend_names() lists the spellings in enum order, so the choice
  // index is the enum value.
  return static_cast<BackendKind>(util::parse_choice("backend", name, backend_names()));
}

std::unique_ptr<Transport> make_transport(const SessionOptions& options, std::size_t n,
                                          AgentFn agent_fn, TelemetryFn telemetry_fn) {
  if (options.backend == BackendKind::kSocket) {
    return std::make_unique<SocketTransport>(options.topology, n, std::move(agent_fn),
                                             options.socket, std::move(telemetry_fn));
  }
  return std::make_unique<InprocTransport>(options.topology, n, std::move(agent_fn),
                                           std::move(telemetry_fn));
}

void run_session(const chaos::Scenario& scenario, const SessionOptions* options,
                 const SessionLoop& loop, ScenarioSession& session) {
  // Telemetry handles first: registration must happen in a serial
  // context.  The session books the same chaos.* fault counters the
  // in-process executor does — it is the same fault schedule, observed
  // from the coordinator's side.  Elastic scenarios (membership or stream
  // events, the same test AgentReplica applies to its island counters)
  // record the elastic.* span names and membership counters, the others
  // the session.* names; unregistered handles are inert.
  const bool elastic = scenario.elastic();
  auto& reg = telemetry::registry();
  const auto metric_sessions = reg.counter(elastic ? "elastic.sessions" : "chaos.scenarios");
  const auto metric_rounds = reg.counter("chaos.rounds");
  const auto metric_byzantine = reg.counter("chaos.byzantine_replies");
  const auto metric_crashed = reg.counter("chaos.crashed_absences");
  const auto metric_stale = reg.counter("chaos.stale_replies");
  const auto metric_dropped = reg.counter("chaos.dropped_replies");
  const auto metric_delayed = reg.counter("chaos.delayed_replies");
  const auto metric_duplicated = reg.counter("chaos.duplicated_replies");
  telemetry::Counter metric_joins, metric_leaves, metric_member, metric_absent, metric_stream_rows,
      metric_rederived, metric_below;
  if (elastic) {
    metric_joins = reg.counter("elastic.joins");
    metric_leaves = reg.counter("elastic.leaves");
    metric_member = reg.counter("elastic.member_agent_rounds");
    metric_absent = reg.counter("elastic.absent_agent_rounds");
    metric_stream_rows = reg.counter("elastic.stream_rows");
    metric_rederived = reg.counter("elastic.f_rederivations");
    metric_below = reg.counter("elastic.rounds_below_redundancy");
  }

  const std::size_t n = scenario.n;
  const std::size_t d = scenario.d;
  const chaos::MembershipSchedule membership(scenario);

  auto world = std::make_shared<SessionWorld>();
  world->scenario = scenario;
  world->built = chaos::materialize_scenario(scenario);
  world->replicas.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    world->replicas.emplace_back(world->scenario, world->built, i);
  }
  const chaos::MaterializedScenario& built = world->built;
  // Telemetry shipping runs agent-side too: on the socket backend this
  // closure executes inside the forked agent process, serializing the
  // fork-local replica's island.
  TelemetryFn telemetry_fn = [world](std::size_t agent) {
    return telemetry::serialize_agent_telemetry(static_cast<std::uint32_t>(agent),
                                                world->replicas[agent].telemetry());
  };
  // The transport must be built (and, for the socket backend, forked)
  // only after the world is fully constructed, so every agent process
  // inherits identical replica state — streaming clones included.
  std::unique_ptr<Transport> transport;
  if (options != nullptr) {
    AgentFn agent_fn = [world](std::size_t agent, std::size_t round,
                               const linalg::Vector& estimate) {
      return world->replicas[agent].on_round(round, estimate);
    };
    transport = make_transport(*options, n, std::move(agent_fn), telemetry_fn);
  }

  // The round kernel's (n, f) fallback chain, searched from the round's
  // derived budget f_t: churn that shrinks the live set below 2f + 1
  // forces a defensible filter before any reply is even missing.
  chaos::FilterCache filter_cache(scenario.filter, loop.filter_factory);

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

  chaos::ScenarioResult& result = session.result;
  result.reference = built.reference;
  result.initial_distance = linalg::distance(x, built.reference);
  result.max_distance = result.initial_distance;
  session.estimates.push_back(x);

  // Attribution observes exactly what this loop already computes: the
  // canonical frames of every exchange, the replayed fates, and the
  // superseded arrivals.
  AttributionBuilder attribution(options != nullptr ? options->topology : Topology::kStar, n, d);
  telemetry::ScopedSpan scenario_span(elastic ? "elastic.scenario" : "session.scenario");
  scenario_span.attr("n", static_cast<std::uint64_t>(n))
      .attr("f", static_cast<std::uint64_t>(scenario.f))
      .attr("rounds", static_cast<std::uint64_t>(scenario.rounds));
  if (elastic) {
    scenario_span.attr("membership_events", static_cast<std::uint64_t>(scenario.membership.size()))
        .attr("stream_events", static_cast<std::uint64_t>(scenario.stream.size()));
  }

  std::vector<util::Frame*> freshest(n);  ///< per agent, the round's freshest arrival
  std::vector<linalg::Vector> received;
  std::size_t stream_cursor = 0;
  for (std::size_t t = 0; t < scenario.rounds; ++t) {
    const std::size_t m_t = membership.count(t);
    const std::size_t f_t = membership.derived_f(t);
    telemetry::ScopedSpan round_span(elastic ? "elastic.round" : "session.round");
    round_span.attr("t", static_cast<std::uint64_t>(t));
    if (elastic) {
      round_span.attr("members", static_cast<std::uint64_t>(m_t))
          .attr("derived_f", static_cast<std::uint64_t>(f_t));
    }
    std::vector<util::Frame> frames =
        transport != nullptr ? transport->exchange(t, x) : fan_out(*world, t, x);
    metric_rounds.inc();
    attribution.on_exchange(frames);

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
    while (stream_cursor < scenario.stream.size() && scenario.stream[stream_cursor].round <= t) {
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
      attribution.on_fate(i, t, fate);
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
    // same as the round kernel's).  on_exchange checked every agent id.
    std::fill(freshest.begin(), freshest.end(), nullptr);
    for (util::Frame& frame : frames) {
      util::Frame*& best = freshest[frame.agent];
      if (best == nullptr) {
        best = &frame;
        continue;
      }
      if (frame.emitted > best->emitted) best = &frame;
      ++result.superseded_replies;
      attribution.on_superseded(frame.agent);
    }

    // Aggregate and step.
    received.clear();
    for (util::Frame* frame : freshest) {
      if (frame != nullptr) received.emplace_back(std::move(frame->payload));
    }
    if (!received.empty()) {
      std::size_t f_used = 0;
      const filters::FilterPtr& filter = filter_cache.get(received.size(), f_t, &f_used);
      if (received.size() != m_t || f_used != scenario.f) {
        ++result.filter_rebuilds;
        if (elastic) {
          telemetry::span_instant(
              "elastic.filter_rebuild",
              {{"t", telemetry::Value(static_cast<std::uint64_t>(t))},
               {"replies", telemetry::Value(static_cast<std::uint64_t>(received.size()))},
               {"f_used", telemetry::Value(static_cast<std::uint64_t>(f_used))}});
        } else {
          telemetry::span_instant("session.filter_rebuild",
                                  {{"t", telemetry::Value(static_cast<std::uint64_t>(t))}});
        }
      }
      const linalg::Vector direction = filter->apply(received);
      x = projection.project(x - direction * schedule.step(t));
    }
    session.estimates.push_back(x);
    if (loop.after_round) loop.after_round(t, x);

    if (!x.is_finite()) {
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

  // Ship every surviving agent's telemetry island back to the
  // coordinator (a dedicated kTelemetry sweep on the socket backend, a
  // direct call in process — both through the same serialize → parse
  // round trip) and reconcile the attribution ledger against it.
  std::vector<AgentBlob> blobs;
  if (transport != nullptr) {
    blobs = transport->collect_telemetry();
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      blobs.push_back(AgentBlob{static_cast<std::uint32_t>(i), telemetry_fn(i)});
    }
  }
  {
    telemetry::ScopedSpan parse_span("telemetry.parse_islands");
    for (const AgentBlob& blob : blobs) {
      session.agents.push_back(telemetry::parse_agent_snapshot(blob.blob));
    }
  }
  if (transport != nullptr) {
    session.transport = transport->stats();
    session.attribution = attribution.build(result, session.transport, session.agents);
  }
}

ScenarioSession run_scenario_transport(const chaos::Scenario& scenario,
                                       const SessionOptions& options) {
  scenario.validate();
  REDOPT_REQUIRE(!scenario.elastic(),
                 "scenario carries membership/stream events; run it through "
                 "elastic::run_elastic_transport (chaos-replay routes there automatically)");
  ScenarioSession session;
  run_session(scenario, &options, SessionLoop{}, session);
  return session;
}

std::string session_manifest_json(const ScenarioSession& session) {
  // The registry is process-wide: a process that also ran a net::
  // protocol still has net.* registered.  The session-level manifest is
  // the document both backends must agree on byte for byte, so those
  // counters stay out of it.
  telemetry::Snapshot coordinator;
  for (telemetry::MetricValue& m : telemetry::registry().snapshot()) {
    if (m.name.rfind("net.", 0) == 0) continue;
    coordinator.push_back(std::move(m));
  }
  return telemetry::render_merged_manifest(coordinator, session.agents);
}

std::string session_trace_json(const ScenarioSession& session) {
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

namespace {

/// Per-process state of the dgd agents (copied into forked children by
/// the socket backend, like SessionWorld).
struct DgdWorld {
  const core::MultiAgentProblem* problem = nullptr;
  const attacks::Attack* attack = nullptr;
  std::vector<char> is_byzantine;
  std::vector<std::size_t> honest;
  std::vector<rng::Rng> agent_rngs;
};

}  // namespace

DgdTransportResult run_dgd(const core::MultiAgentProblem& problem,
                           const std::vector<std::size_t>& byzantine_ids,
                           const attacks::Attack* attack, const dgd::TrainerConfig& config,
                           const SessionOptions& options,
                           const std::optional<linalg::Vector>& reference) {
  problem.validate();
  REDOPT_REQUIRE(config.filter != nullptr, "config needs a gradient filter");
  REDOPT_REQUIRE(config.schedule != nullptr, "config needs a step schedule");
  REDOPT_REQUIRE(config.projection != nullptr, "config needs a projection set");
  REDOPT_REQUIRE(byzantine_ids.size() <= problem.f, "more byzantine agents than fault budget");
  REDOPT_REQUIRE(byzantine_ids.empty() || attack != nullptr,
                 "byzantine agents present but no attack supplied");

  const std::size_t n = problem.num_agents();
  const std::size_t d = problem.dimension();
  if (reference) REDOPT_REQUIRE(reference->size() == d, "reference dimension mismatch");

  auto world = std::make_shared<DgdWorld>();
  world->problem = &problem;
  world->attack = attack;
  world->honest = dgd::honest_ids(n, byzantine_ids);
  world->is_byzantine.assign(n, 0);
  for (std::size_t id : byzantine_ids) world->is_byzantine[id] = 1;
  const rng::Rng root(config.seed);
  world->agent_rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    world->agent_rngs.push_back(root.fork("byzantine-agent-" + std::to_string(i)));
  }

  AgentFn agent_fn = [world](std::size_t agent, std::size_t round,
                             const linalg::Vector& x) -> std::vector<util::Frame> {
    const core::MultiAgentProblem& prob = *world->problem;
    linalg::Vector payload;
    if (!world->is_byzantine[agent]) {
      payload = prob.costs[agent]->gradient(x);
    } else {
      // Omniscient adversary, same model as net::run_server_protocol:
      // the attack sees every honest gradient at the fresh estimate.
      const linalg::Vector true_gradient = prob.costs[agent]->gradient(x);
      std::vector<linalg::Vector> honest_gradients;
      honest_gradients.reserve(world->honest.size());
      for (std::size_t id : world->honest) {
        honest_gradients.push_back(prob.costs[id]->gradient(x));
      }
      attacks::AttackContext ctx;
      ctx.iteration = round;
      ctx.agent_id = agent;
      ctx.n = prob.num_agents();
      ctx.f = prob.f;
      ctx.estimate = &x;
      ctx.honest_gradient = &true_gradient;
      ctx.honest_gradients = &honest_gradients;
      ctx.rng = &world->agent_rngs[agent];
      // Omission faults simply do not reply; the coordinator's
      // synchronous collection detects the gap and eliminates the agent.
      if (!world->attack->responds(ctx)) return {};
      payload = world->attack->craft(ctx);
    }
    util::Frame frame;
    frame.type = util::FrameType::kGradient;
    frame.agent = static_cast<std::uint32_t>(agent);
    frame.round = round;
    frame.emitted = round;
    frame.hops = 1;
    frame.payload.assign(payload.begin(), payload.end());
    std::vector<util::Frame> out;
    out.push_back(std::move(frame));
    return out;
  };
  const std::unique_ptr<Transport> transport = make_transport(options, n, std::move(agent_fn));

  linalg::Vector x = config.x0.empty() ? linalg::Vector(d) : config.x0;
  REDOPT_REQUIRE(x.size() == d, "x0 dimension mismatch");
  x = config.projection->project(x);

  std::vector<bool> active(n, true);
  std::size_t n_active = n;
  std::size_t f_active = problem.f;
  filters::FilterPtr filter = config.filter;
  std::vector<std::size_t> eliminated_agents;

  auto honest_loss = [&](const linalg::Vector& at) {
    return core::subset_value(problem.costs, world->honest, at);
  };

  DgdTransportResult result;
  auto record = [&](std::size_t t) {
    if (config.trace_stride == 0) return;
    if (t % config.trace_stride != 0 && t != config.iterations) return;
    result.train.trace.iteration.push_back(t);
    result.train.trace.loss.push_back(honest_loss(x));
    result.train.trace.distance.push_back(reference
                                              ? linalg::distance(x, *reference)
                                              : std::numeric_limits<double>::quiet_NaN());
    if (config.trace_estimates) result.train.trace.estimates.push_back(x);
  };

  record(0);
  for (std::size_t t = 0; t < config.iterations; ++t) {
    const std::vector<util::Frame> frames = transport->exchange(t, x);

    std::vector<linalg::Vector> replies(n);
    std::vector<bool> seen(n, false);
    for (const util::Frame& frame : frames) {
      REDOPT_REQUIRE(frame.agent < n, "gradient from unknown agent");
      if (!active[frame.agent]) continue;  // eliminated agents are ignored
      REDOPT_REQUIRE(!seen[frame.agent], "duplicate gradient from one agent");
      seen[frame.agent] = true;
      replies[frame.agent] = linalg::Vector(frame.payload);
    }
    // A missing reply in the synchronous model identifies the sender as
    // faulty: eliminate it and update (n, f) — the paper's step S1.
    bool eliminated_this_round = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (active[i] && !seen[i]) {
        active[i] = false;
        --n_active;
        if (f_active > 0) --f_active;
        eliminated_agents.push_back(i);
        eliminated_this_round = true;
        telemetry::span_instant("session.elimination",
                                {{"agent", telemetry::Value(static_cast<std::uint64_t>(i))},
                                 {"t", telemetry::Value(static_cast<std::uint64_t>(t))}});
      }
    }
    if (eliminated_this_round) {
      REDOPT_REQUIRE(config.filter_factory != nullptr,
                     "agent eliminated but no filter_factory configured");
      filter = config.filter_factory(n_active, f_active);
      REDOPT_REQUIRE(filter != nullptr && filter->expected_inputs() == n_active,
                     "filter_factory produced an unusable filter");
    }

    std::vector<linalg::Vector> gradients;
    gradients.reserve(n_active);
    for (std::size_t i = 0; i < n; ++i) {
      if (active[i]) gradients.push_back(replies[i]);
    }
    const linalg::Vector direction = filter->apply(gradients);
    x = config.projection->project(x - direction * config.schedule->step(t));
    record(t + 1);
  }

  result.train.estimate = x;
  result.train.eliminated_agents = eliminated_agents;
  result.train.final_loss = honest_loss(x);
  if (reference) result.train.final_distance = linalg::distance(x, *reference);
  result.stats = transport->stats();
  return result;
}

}  // namespace redopt::transport
