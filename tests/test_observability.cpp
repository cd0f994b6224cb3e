// Observability pipeline tests: span-log semantics, the agent-island
// blob round trip, merged-manifest and trace determinism across backends
// and thread counts, and attribution-report reconciliation.
//
// The determinism tests are the teeth of the contract stated in
// docs/OBSERVABILITY.md: run one pinned faulty scenario on the inproc
// and socket backends (and again under different runtime thread counts),
// and require the merged telemetry manifest and the Chrome trace to be
// byte-identical after telemetry::stable_json_projection strips the
// wall-clock ("nd"/"ts"/"dur") members and drops timing-dependent
// ("unstable":true) records.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "chaos/scenario.h"
#include "elastic/session.h"
#include "runtime/runtime.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"
#include "telemetry/ship.h"
#include "telemetry/span.h"
#include "transport/session.h"
#include "util/error.h"
#include "util/json.h"

using namespace redopt;

namespace {

/// The pinned determinism scenario: every fault kind plus channel
/// faults, so all attribution columns and span instants move.
chaos::Scenario faulty_scenario() {
  chaos::Scenario s;
  s.name = "observability-pinned";
  s.seed = 19;
  s.problem = "mean";
  s.filter = "cge";
  s.n = 8;
  s.f = 2;
  s.d = 2;
  s.rounds = 30;

  chaos::FaultSpec byz;
  byz.kind = chaos::FaultSpec::Kind::kByzantine;
  byz.agent = 0;
  byz.from = 0;
  byz.until = 0;
  byz.attack = "gradient_reverse";
  byz.attack_param = 1.0;

  chaos::FaultSpec crash;
  crash.kind = chaos::FaultSpec::Kind::kCrash;
  crash.agent = 1;
  crash.from = 2;
  crash.until = 10;

  chaos::FaultSpec straggler;
  straggler.kind = chaos::FaultSpec::Kind::kStraggler;
  straggler.agent = 2;
  straggler.from = 1;
  straggler.until = 0;
  straggler.staleness = 3;

  s.faults = {byz, crash, straggler};
  s.channel.drop_probability = 0.1;
  s.channel.duplicate_probability = 0.2;
  s.channel.max_delay = 2;
  return s;
}

/// The pinned scenario with fault-free agent 6 leaving at round 11 and
/// rejoining at round 19.  Its round-10 reply (delay 1) lands while it is
/// away, and its round-29 reply (delay 1) falls due past the last
/// exchanged round, so it is neither delivered nor expected.
chaos::Scenario churning_scenario() {
  chaos::Scenario s = faulty_scenario();
  s.name = "observability-churn";
  s.membership = {{chaos::MembershipEvent::Kind::kLeave, 6, 11},
                  {chaos::MembershipEvent::Kind::kJoin, 6, 19}};
  s.validate();
  return s;
}

transport::SessionOptions opts(transport::BackendKind backend,
                               transport::Topology topology = transport::Topology::kTree) {
  transport::SessionOptions o;
  o.backend = backend;
  o.topology = topology;
  return o;
}

/// Resets the process-wide telemetry state so consecutive sessions in
/// one test binary start from the same blank slate the CLI tools get.
void reset_telemetry() {
  telemetry::registry().reset();
  telemetry::span_log().clear();
  telemetry::set_enabled(true);
}

/// Runs the pinned scenario and returns the stable projections of the
/// merged manifest and the Chrome trace.
struct StableArtifacts {
  std::string manifest;
  std::string trace;
  transport::ScenarioSession session;
};

StableArtifacts run_pinned(const transport::SessionOptions& options) {
  reset_telemetry();
  StableArtifacts out;
  out.session = transport::run_scenario_transport(faulty_scenario(), options);
  out.manifest = telemetry::stable_json_projection(transport::session_manifest_json(out.session));
  out.trace = telemetry::stable_json_projection(transport::session_trace_json(out.session));
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// SpanLog semantics
// ---------------------------------------------------------------------------

TEST(SpanLog, NestsParentageAndClosesLifo) {
  telemetry::SpanLog log;
  const auto a = log.open("outer");
  const auto b = log.open("inner");
  log.attr(b, "round", telemetry::Value(std::int64_t{7}));
  log.instant("tick");
  log.close(b);
  log.close(a);

  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[0].id, a);
  EXPECT_EQ(log.spans()[0].parent, 0u);
  EXPECT_EQ(log.spans()[1].parent, a);
  EXPECT_TRUE(log.spans()[0].closed);
  EXPECT_TRUE(log.spans()[1].closed);
  ASSERT_EQ(log.spans()[1].attributes.size(), 1u);
  EXPECT_EQ(log.spans()[1].attributes[0].first, "round");
  ASSERT_EQ(log.instants().size(), 1u);
  EXPECT_EQ(log.instants()[0].span, b);  // recorded inside the inner span
}

TEST(SpanLog, OutOfOrderCloseClosesInterveningSpans) {
  telemetry::SpanLog log;
  const auto a = log.open("outer");
  (void)log.open("middle");
  (void)log.open("inner");
  log.close(a);  // closes inner and middle on the way out
  for (const telemetry::SpanRecord& span : log.spans()) EXPECT_TRUE(span.closed);
}

TEST(SpanLog, CapacityCapCountsDropsDeterministically) {
  telemetry::SpanLog log(2);
  const auto a = log.open("kept1");
  log.close(a);
  const auto b = log.open("kept2");
  log.close(b);
  const auto c = log.open("dropped");
  log.attr(c, "k", telemetry::Value(std::int64_t{1}));  // no-op past the cap
  log.close(c);
  log.instant("kept-i1");  // the caps are per list: instants have their own
  log.instant("kept-i2");
  log.instant("dropped-i3");

  EXPECT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.instants().size(), 2u);
  EXPECT_EQ(log.opened(), 3u);   // ids keep advancing: structure stays stable
  EXPECT_EQ(log.dropped(), 2u);  // one span + one instant refused
}

TEST(SpanLog, ClearResetsIdsAndEpoch) {
  telemetry::SpanLog log;
  log.close(log.open("before"));
  log.clear();
  EXPECT_TRUE(log.spans().empty());
  EXPECT_EQ(log.opened(), 0u);
  EXPECT_EQ(log.open("after"), 1u);  // ids restart at 1
}

TEST(ScopedSpan, GlobalFormIsInertWhenDisabledExplicitLogAlwaysRecords) {
  telemetry::set_enabled(false);
  telemetry::span_log().clear();
  {
    telemetry::ScopedSpan inert("off.span");
    inert.attr("k", telemetry::Value(std::int64_t{1}));
    EXPECT_EQ(inert.id(), 0u);
    telemetry::span_instant("off.instant");
  }
  EXPECT_TRUE(telemetry::span_log().spans().empty());
  EXPECT_TRUE(telemetry::span_log().instants().empty());

  // Per-agent islands record regardless of the global switch — the
  // switch is fork-inherited state the backends must not depend on.
  telemetry::SpanLog island;
  {
    telemetry::ScopedSpan recorded(island, "island.span");
    EXPECT_NE(recorded.id(), 0u);
  }
  EXPECT_EQ(island.spans().size(), 1u);
  telemetry::set_enabled(true);
}

// ---------------------------------------------------------------------------
// Agent-island blob round trip
// ---------------------------------------------------------------------------

TEST(AgentShip, SnapshotSurvivesSerializeParseRoundTrip) {
  telemetry::AgentTelemetry island;
  auto rounds = island.registry.counter("replica.rounds");
  rounds.inc(12);
  auto norm = island.registry.histogram("replica.gradient_norm",
                                        telemetry::BucketLayout::exponential(1e-3, 4.0, 12));
  norm.observe(0.5);
  {
    telemetry::ScopedSpan span(island.spans, "replica.round");
    span.attr("t", telemetry::Value(std::int64_t{3}));
    island.spans.instant("replica.dropped", {{"t", telemetry::Value(std::int64_t{3})}});
  }

  const std::string blob = telemetry::serialize_agent_telemetry(5, island);
  const telemetry::AgentSnapshot parsed = telemetry::parse_agent_snapshot(blob);

  EXPECT_EQ(parsed.agent, 5u);
  ASSERT_EQ(parsed.metrics.size(), 2u);  // name-sorted like Registry::snapshot()
  EXPECT_EQ(parsed.metrics[0].name, "replica.gradient_norm");
  EXPECT_EQ(parsed.metrics[1].name, "replica.rounds");
  EXPECT_EQ(parsed.metrics[1].counter, 12u);
  ASSERT_EQ(parsed.spans.size(), 1u);
  EXPECT_EQ(parsed.spans[0].name, "replica.round");
  ASSERT_EQ(parsed.spans[0].attributes.size(), 1u);
  ASSERT_EQ(parsed.instants.size(), 1u);
  EXPECT_EQ(parsed.instants[0].name, "replica.dropped");

  // The round trip is canonical: re-serializing the parsed snapshot
  // reproduces the exact bytes (both backends rely on this).
  EXPECT_EQ(telemetry::serialize_agent_snapshot(parsed), blob);
}

TEST(AgentShip, ParseRejectsMalformedBlobs) {
  EXPECT_THROW(telemetry::parse_agent_snapshot("not json"), PreconditionError);
  EXPECT_THROW(telemetry::parse_agent_snapshot("{}"), PreconditionError);
  EXPECT_THROW(telemetry::parse_agent_snapshot("[1,2,3]"), PreconditionError);
}

TEST(AgentShip, MergePrefixesPerAgentMetricNames) {
  telemetry::AgentTelemetry island;
  island.registry.counter("replica.rounds").inc(30);
  const telemetry::AgentSnapshot snapshot =
      telemetry::parse_agent_snapshot(telemetry::serialize_agent_telemetry(3, island));

  const telemetry::Snapshot merged = telemetry::merge_agent_snapshots({}, {snapshot});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].name, "agent.3.replica.rounds");
  EXPECT_EQ(merged[0].counter, 30u);

  const std::string prometheus = telemetry::render_prometheus(merged);
  EXPECT_NE(prometheus.find("redopt_agent_3_replica_rounds 30"), std::string::npos);
}

// ---------------------------------------------------------------------------
// stable_json_projection
// ---------------------------------------------------------------------------

TEST(StableProjection, StripsNdMembersAndUnstableRecords) {
  const std::string projected = telemetry::stable_json_projection(
      R"({"name":"x","nd":{"start_s":1.5},"ts":12,"dur":3,)"
      R"("events":[{"name":"keep"},{"name":"drop","unstable":true}]})");
  const util::JsonValue doc = util::json_parse(projected);
  EXPECT_EQ(doc.find("nd"), nullptr);
  EXPECT_EQ(doc.find("ts"), nullptr);
  EXPECT_EQ(doc.find("dur"), nullptr);
  const util::JsonValue* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 1u);
  EXPECT_EQ(events->items[0].find("name")->string, "keep");
}

// ---------------------------------------------------------------------------
// Cross-backend and cross-thread determinism of the merged artifacts
// ---------------------------------------------------------------------------

TEST(TraceDeterminism, ManifestAndTraceAreByteIdenticalAcrossBackends) {
  const StableArtifacts inproc = run_pinned(opts(transport::BackendKind::kInproc));
  const StableArtifacts socket = run_pinned(opts(transport::BackendKind::kSocket));

  ASSERT_EQ(inproc.session.agents.size(), 8u);
  ASSERT_EQ(socket.session.agents.size(), 8u);
  EXPECT_EQ(inproc.manifest, socket.manifest);
  EXPECT_EQ(inproc.trace, socket.trace);
}

TEST(TraceDeterminism, ManifestAndTraceAreByteIdenticalAcrossThreadCounts) {
  const std::size_t restore = runtime::threads();
  runtime::set_threads(1);
  const StableArtifacts one = run_pinned(opts(transport::BackendKind::kInproc));
  runtime::set_threads(2);
  const StableArtifacts two = run_pinned(opts(transport::BackendKind::kInproc));
  runtime::set_threads(8);
  const StableArtifacts eight = run_pinned(opts(transport::BackendKind::kInproc));
  runtime::set_threads(restore);

  EXPECT_EQ(one.manifest, two.manifest);
  EXPECT_EQ(one.manifest, eight.manifest);
  EXPECT_EQ(one.trace, two.trace);
  EXPECT_EQ(one.trace, eight.trace);
}

TEST(TraceDeterminism, ArtifactsParseAndCoverEveryProcess) {
  const StableArtifacts run = run_pinned(opts(transport::BackendKind::kSocket));

  // The trace is one pid per process: coordinator 0 plus agents 1..8.
  const util::JsonValue trace = util::json_parse(run.trace);
  const util::JsonValue* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<bool> seen(9, false);
  for (const util::JsonValue& event : events->items) {
    const std::int64_t pid = event.find("pid")->as_int(0, 64);
    seen[static_cast<std::size_t>(pid)] = true;
  }
  for (std::size_t pid = 0; pid < seen.size(); ++pid) {
    EXPECT_TRUE(seen[pid]) << "no trace events for pid " << pid;
  }

  // The manifest carries every agent island.
  const util::JsonValue manifest = util::json_parse(run.manifest);
  const util::JsonValue* agents = manifest.find("agents");
  ASSERT_NE(agents, nullptr);
  EXPECT_EQ(agents->items.size(), 8u);
}

// ---------------------------------------------------------------------------
// Span budget of one traced session
// ---------------------------------------------------------------------------

namespace {

/// A session_tree-shaped scenario (mean, n = 16, f = 2, d = 64 under CGE,
/// a gradient_reverse agent, drop 0.05, duplicate 0.2, delay <= 2, 500
/// rounds); the churn twin has three fault-free agents leave and rejoin.
chaos::Scenario session_tree_scenario(bool churn) {
  chaos::Scenario s;
  s.name = churn ? "session_tree-churn" : "session_tree";
  s.seed = 5;
  s.problem = "mean";
  s.filter = "cge";
  s.n = 16;
  s.f = 2;
  s.d = 64;
  s.rounds = 500;
  chaos::FaultSpec byzantine;
  byzantine.kind = chaos::FaultSpec::Kind::kByzantine;
  byzantine.agent = 9;
  byzantine.attack = "gradient_reverse";
  byzantine.attack_param = 1.0;
  s.faults = {byzantine};
  s.channel.drop_probability = 0.05;
  s.channel.duplicate_probability = 0.2;
  s.channel.max_delay = 2;
  if (churn) {
    using Kind = chaos::MembershipEvent::Kind;
    s.membership = {{Kind::kLeave, 2, 60},   {Kind::kJoin, 2, 140},  {Kind::kLeave, 7, 150},
                    {Kind::kLeave, 11, 240}, {Kind::kJoin, 7, 260}, {Kind::kJoin, 11, 400}};
  }
  s.validate();
  return s;
}

/// Spans per name, and the instant count, that one traced in-process tree
/// session leaves in the global span log.
struct SessionRecords {
  std::map<std::string, std::size_t> spans;
  std::size_t total_spans = 0;
  std::map<std::string, std::size_t> instants;
  std::size_t total_instants = 0;
  std::uint64_t dropped = 0;
};

SessionRecords traced_session_records(bool churn) {
  reset_telemetry();
  const chaos::Scenario s = session_tree_scenario(churn);
  const transport::SessionOptions options =
      opts(transport::BackendKind::kInproc, transport::Topology::kTree);
  if (churn) {
    EXPECT_FALSE(elastic::run_elastic_transport(s, options).result.nonfinite);
  } else {
    EXPECT_FALSE(transport::run_scenario_transport(s, options).result.nonfinite);
  }
  SessionRecords out;
  const telemetry::SpanLog& log = telemetry::span_log();
  for (const telemetry::SpanRecord& span : log.spans()) ++out.spans[span.name];
  out.total_spans = log.spans().size();
  for (const telemetry::InstantRecord& instant : log.instants()) ++out.instants[instant.name];
  out.total_instants = log.instants().size();
  out.dropped = log.dropped();
  telemetry::span_log().clear();
  return out;
}

}  // namespace

// The global log caps at 2^18 records, and a traced benchmark phase runs
// sessions back to back into one log, so its capacity is spent at this
// many records per session.  Any change to per-round records moves these
// numbers; docs/PERFORMANCE.md keeps the budget arithmetic.
TEST(SessionTraceBudget, FixedTreeSessionRecordsPinnedSpansAndInstants) {
  const SessionRecords r = traced_session_records(false);
  const std::map<std::string, std::size_t> spans = {
      {"session.round", 500},         {"session.scenario", 1},
      {"telemetry.parse_islands", 1}, {"transport.collect_telemetry", 1},
      {"transport.exchange", 500}};
  EXPECT_EQ(r.spans, spans);
  EXPECT_EQ(r.total_spans, 1003u);
  // One instant per round aggregated with a reduced (n, f).
  EXPECT_EQ(r.instants, (std::map<std::string, std::size_t>{{"session.filter_rebuild", 494}}));
  EXPECT_EQ(r.total_instants, 494u);
  EXPECT_EQ(r.dropped, 0u);
}

TEST(SessionTraceBudget, ChurnTreeSessionRecordsPinnedSpansAndInstants) {
  const SessionRecords r = traced_session_records(true);
  const std::map<std::string, std::size_t> spans = {
      {"elastic.round", 500},         {"elastic.scenario", 1},
      {"telemetry.parse_islands", 1}, {"transport.collect_telemetry", 1},
      {"transport.exchange", 500}};
  EXPECT_EQ(r.spans, spans);
  EXPECT_EQ(r.total_spans, 1003u);
  EXPECT_EQ(r.instants, (std::map<std::string, std::size_t>{{"elastic.filter_rebuild", 494}}));
  EXPECT_EQ(r.total_instants, 494u);
  EXPECT_EQ(r.dropped, 0u);
}

// ---------------------------------------------------------------------------
// Attribution reconciliation
// ---------------------------------------------------------------------------

TEST(Attribution, ReportReconcilesOnBothBackends) {
  for (const chaos::Scenario& scenario : {faulty_scenario(), churning_scenario()}) {
    for (const auto backend : {transport::BackendKind::kInproc, transport::BackendKind::kSocket}) {
      for (const auto topology :
           {transport::Topology::kStar, transport::Topology::kChain, transport::Topology::kTree}) {
        reset_telemetry();
        const transport::SessionOptions options = opts(backend, topology);
        const transport::ScenarioSession session =
            scenario.elastic() ? elastic::run_elastic_transport(scenario, options)
                               : transport::run_scenario_transport(scenario, options);
        const transport::AttributionReport& report = session.attribution;
        const std::string label = scenario.name + "/" + transport::to_string(backend) + "/" +
                                  transport::to_string(topology);

        EXPECT_TRUE(report.frames_reconcile) << label;
        EXPECT_TRUE(report.bytes_reconcile) << label;
        EXPECT_TRUE(report.fates_reconcile) << label;
        EXPECT_TRUE(report.agents_reconcile) << label;
        ASSERT_TRUE(report.ok()) << label;

        // Totals are exact equalities against the transport counters, not
        // approximations: re-add them here so a reconcile-flag bug cannot
        // hide a drifting cost model.  Every link stays live, so the
        // schedule predicts each agent's deliveries exactly.
        std::uint64_t frames = 0;
        for (const transport::AgentAttribution& agent : report.agents) {
          frames += agent.frames_delivered;
          EXPECT_EQ(agent.expected_frames, agent.frames_delivered)
              << label << " agent " << agent.agent;
        }
        EXPECT_EQ(frames, report.stats.frames_delivered) << label;
        EXPECT_EQ(report.exchanges, report.stats.exchanges) << label;
        EXPECT_EQ(report.stats.frames_delivered, session.transport.frames_delivered) << label;
        EXPECT_EQ(report.stats.bytes_on_wire, session.transport.bytes_on_wire) << label;
      }
    }
  }
}

TEST(Attribution, NetworkMessagesFollowTheReductionTreeClosedForm) {
  // Fault- and channel-free, every agent delivers one frame per round,
  // so each round models n estimate deliveries plus one message per
  // tree edge each frame crosses: T * (n + sum of depths).  At n = 8
  // that sum is 8 on the star, 36 on the chain and 21 on the tree.
  chaos::Scenario s = faulty_scenario();
  s.name = "observability-clean";
  s.faults.clear();
  s.channel = {};
  const std::uint64_t rounds = s.rounds;
  const std::pair<transport::Topology, std::uint64_t> per_round[] = {
      {transport::Topology::kStar, 16}, {transport::Topology::kChain, 44},
      {transport::Topology::kTree, 29}};
  for (const auto& [topology, messages] : per_round) {
    for (const auto backend : {transport::BackendKind::kInproc, transport::BackendKind::kSocket}) {
      reset_telemetry();
      const transport::ScenarioSession session =
          transport::run_scenario_transport(s, opts(backend, topology));
      const std::string label =
          transport::to_string(backend) + "/" + transport::to_string(topology);
      EXPECT_TRUE(session.attribution.ok()) << label;
      EXPECT_EQ(session.attribution.exchanges, rounds) << label;
      EXPECT_EQ(session.attribution.network_messages, rounds * messages) << label;
    }
  }
}

TEST(Attribution, FrameShortOfItsPathDoesNotReconcile) {
  // Per-agent bytes, per-link bytes and TransportStats all follow the
  // frame's hops field, so a frame booked short of its path would still
  // balance every total while the upper edges of that path read empty.
  // A delivered frame always crosses its emitter's full path on both
  // backends (a dead relay loses the subtree's frames instead), so the
  // reconcile gate pins hops to the topology depth.
  const transport::Topology topology = transport::Topology::kTree;
  const std::size_t n = 7;
  const std::size_t dim = 2;
  const std::uint32_t agent = 5;  // path 5 -> 2 -> 0 -> coordinator
  ASSERT_EQ(transport::depth_of(topology, agent, n), 3u);

  const auto report_for = [&](std::uint32_t hops) {
    util::Frame frame;
    frame.agent = agent;
    frame.hops = hops;
    frame.payload = {1.0, -2.0};
    transport::AttributionBuilder builder(topology, n, dim);
    builder.on_fate(agent, 0, chaos::RoundFate{});  // the schedule predicts this frame
    builder.on_exchange({frame});
    // The stats a backend would book for exactly this delivery.
    transport::TransportStats stats;
    stats.exchanges = 1;
    stats.frames_delivered = 1;
    stats.bytes_on_wire =
        n * util::frame_wire_size_for(dim) + std::uint64_t{util::frame_wire_size(frame)} * hops;
    return builder.build(chaos::ScenarioResult{}, stats, {});
  };

  const transport::AttributionReport full = report_for(3);
  EXPECT_TRUE(full.frames_reconcile);
  EXPECT_TRUE(full.bytes_reconcile);
  EXPECT_TRUE(full.ok());
  for (const std::size_t child : {5u, 2u, 0u}) {
    EXPECT_EQ(full.links[child].frames_up, 1u) << "link into " << child;
  }

  const transport::AttributionReport short_of_path = report_for(1);
  EXPECT_EQ(short_of_path.links[2].frames_up, 0u);
  EXPECT_EQ(short_of_path.links[0].frames_up, 0u);
  EXPECT_FALSE(short_of_path.frames_reconcile);
  EXPECT_FALSE(short_of_path.ok());
}

TEST(Attribution, FateBookedAtTheWrongRoundDoesNotReconcile) {
  // One agent on a star, three exchanges.  Its round-0 reply is delayed
  // by one round, so exchange 1 delivers two frames and exchange 2 one.
  // Booked at round 2 instead, the delayed fate falls due after the last
  // exchange: every frame, byte and fate total still balances, and only
  // the agent's predicted deliveries disagree with what arrived.
  const transport::Topology topology = transport::Topology::kStar;
  const std::size_t n = 1;
  const std::size_t dim = 2;
  const auto frame = [](std::uint64_t emitted) {
    util::Frame f;
    f.agent = 0;
    f.emitted = emitted;
    f.hops = 1;
    f.payload = {1.0, -2.0};
    return f;
  };
  chaos::RoundFate delayed;
  delayed.delay = 1;
  const chaos::RoundFate on_time;
  chaos::ScenarioResult result;
  result.delayed_replies = 1;

  const auto report_for = [&](std::size_t delayed_round,
                              const std::vector<std::vector<util::Frame>>& exchanges,
                              std::uint64_t deaths) {
    transport::AttributionBuilder builder(topology, n, dim);
    transport::TransportStats stats;
    stats.agent_deaths = deaths;
    builder.on_fate(0, delayed_round, delayed);
    for (std::size_t round = 0; round < exchanges.size(); ++round) {
      if (round > 0) builder.on_fate(0, round, on_time);
      builder.on_exchange(exchanges[round]);
      ++stats.exchanges;
      stats.bytes_on_wire += n * util::frame_wire_size_for(dim);
      for (const util::Frame& f : exchanges[round]) {
        ++stats.frames_delivered;
        stats.bytes_on_wire += util::frame_wire_size(f) * f.hops;
      }
    }
    return builder.build(result, stats, {});
  };

  const std::vector<std::vector<util::Frame>> delivered = {{}, {frame(0), frame(1)}, {frame(2)}};
  const transport::AttributionReport right = report_for(0, delivered, 0);
  EXPECT_EQ(right.agents[0].expected_frames, 3u);
  EXPECT_TRUE(right.ok());

  const transport::AttributionReport wrong = report_for(2, delivered, 0);
  EXPECT_TRUE(wrong.frames_reconcile);
  EXPECT_TRUE(wrong.bytes_reconcile);
  EXPECT_TRUE(wrong.fates_reconcile);
  EXPECT_TRUE(wrong.agents_reconcile);
  EXPECT_EQ(wrong.agents[0].expected_frames, 2u);
  EXPECT_EQ(wrong.agents[0].frames_delivered, 3u);
  EXPECT_FALSE(wrong.ok());

  // A dead link loses predicted frames legitimately: the gate holds only
  // while no death was detected.
  const std::vector<std::vector<util::Frame>> lost = {{}, {frame(0), frame(1)}, {}};
  EXPECT_FALSE(report_for(0, lost, 0).ok());
  EXPECT_TRUE(report_for(0, lost, 1).ok());
}

TEST(Attribution, ReportRendersDeterministicTextAndJson) {
  const StableArtifacts a = run_pinned(opts(transport::BackendKind::kInproc));
  const StableArtifacts b = run_pinned(opts(transport::BackendKind::kSocket));
  EXPECT_EQ(a.session.attribution.to_text(), b.session.attribution.to_text());
  EXPECT_EQ(a.session.attribution.to_json(), b.session.attribution.to_json());
  // The JSON form parses strictly and names every agent.
  const util::JsonValue doc = util::json_parse(a.session.attribution.to_json());
  const util::JsonValue* agents = doc.find("agents");
  ASSERT_NE(agents, nullptr);
  EXPECT_EQ(agents->items.size(), 8u);
}
