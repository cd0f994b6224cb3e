// Tests for src/transport/: topology shapes, the wire codec, and — the
// subsystem's load-bearing contract — the cross-backend oracle: a pinned
// suite of seeded scenarios (faulty ones included) must produce
// byte-identical estimate traces on the in-process backend and the
// multi-process socket backend, over every reduction topology, with
// matching deterministic telemetry.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "chaos/executor.h"
#include "chaos/properties.h"
#include "chaos/scenario.h"
#include "dgd/projection.h"
#include "dgd/schedule.h"
#include "dgd/trainer.h"
#include "filters/registry.h"
#include "net/server_protocol.h"
#include "telemetry/metrics.h"
#include "transport/inproc_transport.h"
#include "transport/session.h"
#include "transport/socket_transport.h"
#include "transport/topology.h"
#include "util/error.h"
#include "util/frame.h"

using namespace redopt;
using transport::BackendKind;
using transport::SessionOptions;
using transport::Topology;

namespace {

SessionOptions opts(BackendKind backend, Topology topology) {
  SessionOptions o;
  o.backend = backend;
  o.topology = topology;
  return o;
}

chaos::FaultSpec byzantine(std::size_t agent, std::size_t from, std::size_t until,
                           double param = 1.0) {
  chaos::FaultSpec spec;
  spec.kind = chaos::FaultSpec::Kind::kByzantine;
  spec.agent = agent;
  spec.from = from;
  spec.until = until;
  spec.attack = "gradient_reverse";
  spec.attack_param = param;
  return spec;
}

chaos::FaultSpec crash(std::size_t agent, std::size_t from, std::size_t until) {
  chaos::FaultSpec spec;
  spec.kind = chaos::FaultSpec::Kind::kCrash;
  spec.agent = agent;
  spec.from = from;
  spec.until = until;
  return spec;
}

chaos::FaultSpec straggler(std::size_t agent, std::size_t staleness) {
  chaos::FaultSpec spec;
  spec.kind = chaos::FaultSpec::Kind::kStraggler;
  spec.agent = agent;
  spec.from = 1;
  spec.until = 0;
  spec.staleness = staleness;
  return spec;
}

chaos::Scenario base_scenario(const std::string& name, std::uint64_t seed) {
  chaos::Scenario s;
  s.name = name;
  s.seed = seed;
  s.problem = "mean";
  s.filter = "cge";
  s.n = 6;
  s.f = 1;
  s.d = 2;
  s.rounds = 30;
  return s;
}

/// The pinned cross-backend suite: clean runs, every fault kind, channel
/// faults, every problem family.  Adding a scenario here extends the
/// oracle; never weaken an existing one.
std::vector<chaos::Scenario> pinned_suite() {
  std::vector<chaos::Scenario> suite;

  suite.push_back(base_scenario("clean-cge", 11));

  chaos::Scenario s = base_scenario("clean-cwtm", 12);
  s.filter = "cwtm";
  s.n = 7;
  s.f = 2;
  s.d = 3;
  suite.push_back(s);

  s = base_scenario("byz-reverse", 13);
  s.faults = {byzantine(0, 0, 0)};
  suite.push_back(s);

  s = base_scenario("byz-window", 14);
  s.filter = "cwtm";
  s.n = 7;
  s.f = 2;
  s.faults = {byzantine(1, 5, 20, 2.0)};
  suite.push_back(s);

  s = base_scenario("crash-recover", 15);
  s.faults = {crash(2, 1, 15)};
  suite.push_back(s);

  s = base_scenario("straggler", 16);
  s.faults = {straggler(3, 2)};
  suite.push_back(s);

  s = base_scenario("channel-drop", 17);
  s.channel.drop_probability = 0.2;
  suite.push_back(s);

  s = base_scenario("channel-dup-delay", 18);
  s.filter = "cwtm";
  s.n = 7;
  s.f = 2;
  s.channel.duplicate_probability = 0.3;
  s.channel.max_delay = 2;
  suite.push_back(s);

  s = base_scenario("mixed-faults", 19);
  s.n = 8;
  s.f = 2;
  s.faults = {byzantine(0, 0, 0), crash(1, 2, 10), straggler(2, 3)};
  s.channel.drop_probability = 0.1;
  s.channel.duplicate_probability = 0.2;
  s.channel.max_delay = 2;
  suite.push_back(s);

  s = base_scenario("regression-cge", 20);
  s.problem = "regression";
  s.n = 8;
  s.f = 2;
  s.d = 2;
  s.faults = {byzantine(4, 0, 0)};
  suite.push_back(s);

  s = base_scenario("block-regression-cwtm", 21);
  s.problem = "block_regression";
  s.filter = "cwtm";
  s.n = 9;
  s.f = 2;
  s.d = 3;
  s.faults = {byzantine(3, 0, 0), crash(5, 1, 0)};
  suite.push_back(s);

  return suite;
}

/// Stable (bit-identity-covered) chaos.* / transport.* counters from the
/// global registry — the session-level counters both backends must agree
/// on.  The registry is process-wide, so anything else in it (net.* from
/// the net:: protocols this binary also runs) is out of scope.
std::map<std::string, std::uint64_t> session_manifest() {
  std::map<std::string, std::uint64_t> manifest;
  for (const telemetry::MetricValue& m : telemetry::registry().snapshot()) {
    if (m.determinism != telemetry::Determinism::kStable) continue;
    if (m.kind != telemetry::MetricValue::Kind::kCounter) continue;
    if (m.name.rfind("chaos.", 0) != 0 && m.name.rfind("transport.", 0) != 0) continue;
    manifest[m.name] = m.counter;
  }
  return manifest;
}

void expect_sessions_identical(const transport::ScenarioSession& a,
                               const transport::ScenarioSession& b, const std::string& label) {
  ASSERT_EQ(a.estimates.size(), b.estimates.size()) << label;
  for (std::size_t t = 0; t < a.estimates.size(); ++t) {
    EXPECT_EQ(a.estimates[t], b.estimates[t]) << label << " diverges at round " << t;
  }
  EXPECT_EQ(a.result.estimate, b.result.estimate) << label;
  EXPECT_EQ(a.result.final_distance, b.result.final_distance) << label;
  EXPECT_EQ(a.result.max_distance, b.result.max_distance) << label;
  EXPECT_EQ(a.result.byzantine_replies, b.result.byzantine_replies) << label;
  EXPECT_EQ(a.result.crashed_absences, b.result.crashed_absences) << label;
  EXPECT_EQ(a.result.stale_replies, b.result.stale_replies) << label;
  EXPECT_EQ(a.result.dropped_replies, b.result.dropped_replies) << label;
  EXPECT_EQ(a.result.delayed_replies, b.result.delayed_replies) << label;
  EXPECT_EQ(a.result.duplicated_replies, b.result.duplicated_replies) << label;
  EXPECT_EQ(a.result.superseded_replies, b.result.superseded_replies) << label;
  EXPECT_EQ(a.result.filter_rebuilds, b.result.filter_rebuilds) << label;
  // Deterministic transport traffic: same frames, same bytes, same depth.
  EXPECT_EQ(a.transport.exchanges, b.transport.exchanges) << label;
  EXPECT_EQ(a.transport.frames_delivered, b.transport.frames_delivered) << label;
  EXPECT_EQ(a.transport.bytes_on_wire, b.transport.bytes_on_wire) << label;
  EXPECT_EQ(a.transport.reduce_rounds, b.transport.reduce_rounds) << label;
}

}  // namespace

// ---------------------------------------------------------------------------
// Topologies
// ---------------------------------------------------------------------------

TEST(TransportTopology, StarPutsEveryAgentUnderTheCoordinator) {
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(transport::parent_of(Topology::kStar, i, 5), transport::kCoordinatorNode);
    EXPECT_EQ(transport::depth_of(Topology::kStar, i, 5), 1u);
    EXPECT_TRUE(transport::children_of(Topology::kStar, i, 5).empty());
  }
  EXPECT_EQ(transport::children_of(Topology::kStar, transport::kCoordinatorNode, 5),
            (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(transport::max_depth(Topology::kStar, 5), 1u);
}

TEST(TransportTopology, ChainIsASingleLine) {
  EXPECT_EQ(transport::parent_of(Topology::kChain, 0, 4), transport::kCoordinatorNode);
  EXPECT_EQ(transport::parent_of(Topology::kChain, 3, 4), 2u);
  EXPECT_EQ(transport::children_of(Topology::kChain, transport::kCoordinatorNode, 4),
            (std::vector<std::size_t>{0}));
  EXPECT_EQ(transport::children_of(Topology::kChain, 1, 4), (std::vector<std::size_t>{2}));
  EXPECT_TRUE(transport::children_of(Topology::kChain, 3, 4).empty());
  EXPECT_EQ(transport::depth_of(Topology::kChain, 3, 4), 4u);
  EXPECT_EQ(transport::max_depth(Topology::kChain, 4), 4u);
}

TEST(TransportTopology, TreeIsBinaryHeapOrder) {
  EXPECT_EQ(transport::parent_of(Topology::kTree, 0, 7), transport::kCoordinatorNode);
  EXPECT_EQ(transport::parent_of(Topology::kTree, 1, 7), 0u);
  EXPECT_EQ(transport::parent_of(Topology::kTree, 2, 7), 0u);
  EXPECT_EQ(transport::parent_of(Topology::kTree, 6, 7), 2u);
  EXPECT_EQ(transport::children_of(Topology::kTree, 0, 7), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(transport::children_of(Topology::kTree, 2, 7), (std::vector<std::size_t>{5, 6}));
  EXPECT_EQ(transport::max_depth(Topology::kTree, 7), 3u);
  EXPECT_EQ(transport::max_depth(Topology::kTree, 1), 1u);
}

TEST(TransportTopology, ParseIsStrictAndNamesTheValidValues) {
  EXPECT_EQ(transport::topology_from_string("chain"), Topology::kChain);
  try {
    transport::topology_from_string("ring");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ring"), std::string::npos);
    EXPECT_NE(what.find("star, chain, tree"), std::string::npos);
  }
  EXPECT_EQ(transport::topology_names(), (std::vector<std::string>{"star", "chain", "tree"}));
}

TEST(TransportBackend, ParseIsStrictAndNamesTheValidValues) {
  EXPECT_EQ(transport::backend_from_string("socket"), BackendKind::kSocket);
  try {
    transport::backend_from_string("tcp");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tcp"), std::string::npos);
    EXPECT_NE(what.find("inproc, socket"), std::string::npos);
  }
  EXPECT_EQ(transport::backend_names(), (std::vector<std::string>{"inproc", "socket"}));
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(FrameCodec, RoundTripsEveryField) {
  util::Frame frame;
  frame.type = util::FrameType::kGradient;
  frame.agent = 42;
  frame.round = 7;
  frame.emitted = 5;
  frame.hops = 3;
  frame.payload = {1.5, -2.25, 0.0, 1e300, -0.0};

  const std::string bytes = util::encode_frame(frame);
  EXPECT_EQ(bytes.size(), util::frame_wire_size(frame));
  EXPECT_EQ(bytes.size(), util::frame_wire_size_for(frame.payload.size()));

  const util::Frame back = util::decode_frame(bytes);
  EXPECT_EQ(back.type, frame.type);
  EXPECT_EQ(back.agent, frame.agent);
  EXPECT_EQ(back.round, frame.round);
  EXPECT_EQ(back.emitted, frame.emitted);
  EXPECT_EQ(back.hops, frame.hops);
  EXPECT_EQ(back.payload, frame.payload);
}

TEST(FrameCodec, RoundTripsEmptyPayloadAndControlTypes) {
  for (const util::FrameType type :
       {util::FrameType::kEstimate, util::FrameType::kRoundDone, util::FrameType::kShutdown}) {
    util::Frame frame;
    frame.type = type;
    frame.agent = util::kCoordinatorAgent;
    frame.round = 9;
    const util::Frame back = util::decode_frame(util::encode_frame(frame));
    EXPECT_EQ(back.type, type);
    EXPECT_EQ(back.agent, util::kCoordinatorAgent);
    EXPECT_TRUE(back.payload.empty());
  }
}

TEST(FrameCodec, RejectsCorruption) {
  util::Frame frame;
  frame.payload = {3.0, 4.0};
  const std::string bytes = util::encode_frame(frame);

  // Any single flipped body byte breaks the checksum (or a validated field).
  for (std::size_t i = 4; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    EXPECT_THROW(util::decode_frame(bad), PreconditionError) << "byte " << i;
  }
  // Truncations at every length.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(util::decode_frame(bytes.substr(0, len)), PreconditionError) << "len " << len;
  }
  // Trailing garbage.
  EXPECT_THROW(util::decode_frame(bytes + "x"), PreconditionError);
}

TEST(FrameCodec, Crc32MatchesTheStandardCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(util::crc32(reinterpret_cast<const unsigned char*>(check.data()), check.size()),
            0xcbf43926u);
  EXPECT_EQ(util::crc32(nullptr, 0), 0u);
}

TEST(FrameCodec, Crc32MatchesABytewiseReferenceAtEveryLengthAndOffset) {
  // The bit-at-a-time definition of the reflected IEEE CRC-32.
  const auto reference = [](const unsigned char* data, std::size_t size) {
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i) {
      crc ^= data[i];
      for (int k = 0; k < 8; ++k) crc = (crc & 1u) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xffffffffu;
  };
  std::vector<unsigned char> bytes(8 + 80);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  // Every start offset (unaligned loads) times every length up to ten
  // eight-byte steps plus each possible tail.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; size <= 80; ++size) {
      EXPECT_EQ(util::crc32(bytes.data() + offset, size), reference(bytes.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
}

namespace {

std::string to_hex(const std::string& bytes) {
  constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xfu];
  }
  return hex;
}

}  // namespace

TEST(FrameCodec, WireBytesArePinned) {
  // Any change to these bytes is a wire-format break: every peer and
  // every recorded frame would disagree with the new encoder.
  util::Frame gradient;
  gradient.type = util::FrameType::kGradient;
  gradient.agent = 3;
  gradient.round = 17;
  gradient.emitted = 15;
  gradient.hops = 2;
  gradient.payload = {1.5, -0.0, 0.1, -2.75e-300};
  const std::string gradient_hex =
      "44000000524601020300000011000000000000000f0000000000000002000000040000000000000000"
      "00f83f00000000000000809a9999999999b93f9a4e16ac6b77bd81a15b1312";
  EXPECT_EQ(to_hex(util::encode_frame(gradient)), gradient_hex);

  util::Frame telemetry;
  telemetry.type = util::FrameType::kTelemetry;
  telemetry.agent = util::kCoordinatorAgent;
  telemetry.round = 0x0102030405060708ull;
  telemetry.emitted = 9;
  telemetry.payload = util::pack_blob("{\"op\":\"list\"}");
  const std::string telemetry_hex =
      "3c00000052460105ffffffff080706050403020109000000000000000000000003000000000000000000"
      "2a407b226f70223a226c697374227d000000664604b8";
  EXPECT_EQ(to_hex(util::encode_frame(telemetry)), telemetry_hex);

  const util::Frame back = util::decode_frame(util::encode_frame(gradient));
  ASSERT_EQ(back.payload.size(), gradient.payload.size());
  EXPECT_EQ(to_hex(util::encode_frame(back)), gradient_hex);
  EXPECT_TRUE(std::signbit(back.payload[1]));
  EXPECT_EQ(util::unpack_blob(util::decode_frame(util::encode_frame(telemetry)).payload),
            "{\"op\":\"list\"}");
}

// ---------------------------------------------------------------------------
// The cross-backend oracle
// ---------------------------------------------------------------------------

TEST(CrossBackend, PinnedSuiteIsByteIdenticalOnBothBackends) {
  for (const chaos::Scenario& s : pinned_suite()) {
    const auto inproc = transport::run_scenario_transport(s, opts(BackendKind::kInproc,
                                                                 Topology::kStar));
    const auto socket = transport::run_scenario_transport(s, opts(BackendKind::kSocket,
                                                                  Topology::kStar));
    expect_sessions_identical(inproc, socket, s.name);
  }
}

TEST(CrossBackend, EveryTopologyMatchesOnBothBackendsForFaultyScenario) {
  chaos::Scenario s = base_scenario("mixed-topo", 31);
  s.n = 8;
  s.f = 2;
  s.faults = {byzantine(0, 0, 0), crash(3, 1, 12), straggler(5, 2)};
  s.channel.duplicate_probability = 0.25;
  s.channel.max_delay = 2;

  const auto baseline =
      transport::run_scenario_transport(s, opts(BackendKind::kInproc, Topology::kStar));
  for (const Topology topology : {Topology::kStar, Topology::kChain, Topology::kTree}) {
    for (const BackendKind backend : {BackendKind::kInproc, BackendKind::kSocket}) {
      if (backend == BackendKind::kInproc && topology == Topology::kStar) continue;
      const auto session = transport::run_scenario_transport(s, opts(backend, topology));
      const std::string label =
          transport::to_string(backend) + "/" + transport::to_string(topology);
      ASSERT_EQ(session.estimates.size(), baseline.estimates.size()) << label;
      for (std::size_t t = 0; t < session.estimates.size(); ++t) {
        EXPECT_EQ(session.estimates[t], baseline.estimates[t])
            << label << " diverges at round " << t;
      }
      // Topology changes the traffic shape (hops, reduce depth) but never
      // the delivered frame multiset.
      EXPECT_EQ(session.transport.frames_delivered, baseline.transport.frames_delivered) << label;
    }
  }
}

TEST(CrossBackend, StableTelemetryManifestsMatch) {
  const chaos::Scenario s = pinned_suite()[8];  // mixed-faults: every counter moves
  auto& reg = telemetry::registry();

  reg.reset();
  (void)transport::run_scenario_transport(s, opts(BackendKind::kInproc, Topology::kTree));
  const auto inproc_manifest = session_manifest();

  reg.reset();
  (void)transport::run_scenario_transport(s, opts(BackendKind::kSocket, Topology::kTree));
  const auto socket_manifest = session_manifest();

  EXPECT_EQ(inproc_manifest, socket_manifest);
  EXPECT_GT(socket_manifest.at("chaos.rounds"), 0u);
  EXPECT_GT(socket_manifest.at("transport.bytes_on_wire"), 0u);
}

namespace {

/// Agent program for the frame-level contract: a pure function of
/// (agent, round, estimate) whose emission shape varies by round —
/// silent, one frame, a duplicate pair, or a fresh frame followed by one
/// with an older emitted round (which the canonical order moves ahead).
transport::AgentFn varied_agents() {
  return [](std::size_t agent, std::size_t round, const linalg::Vector& estimate) {
    util::Frame frame;
    frame.type = util::FrameType::kGradient;
    frame.agent = static_cast<std::uint32_t>(agent);
    frame.round = round;
    frame.emitted = round;
    frame.hops = 1;
    // Bit patterns a lossy codec would disturb: a signed zero and a
    // subnormal, next to estimate-dependent values.
    frame.payload = {estimate[0] * static_cast<double>(agent + 1), -0.0,
                     std::numeric_limits<double>::denorm_min() * static_cast<double>(round + 1),
                     estimate[1] - static_cast<double>(agent)};
    std::vector<util::Frame> out;
    switch ((agent + round) % 4) {
      case 0:
        break;
      case 1:
        out = {frame, frame};
        break;
      case 2: {
        util::Frame older = frame;
        older.emitted = round / 2;
        older.payload[0] = -older.payload[0];
        out = {frame, older};
        break;
      }
      default:
        out = {frame};
    }
    return out;
  };
}

std::uint64_t bits_of(double value) { return std::bit_cast<std::uint64_t>(value); }

}  // namespace

TEST(CrossBackend, ExchangeDeliversIdenticalFramesOnEveryTopology) {
  constexpr std::size_t n = 7;
  for (const Topology topology : {Topology::kStar, Topology::kChain, Topology::kTree}) {
    const std::string label = transport::to_string(topology);
    transport::InprocTransport inproc(topology, n, varied_agents());
    transport::SocketTransport socket(topology, n, varied_agents());
    for (std::size_t round = 0; round < 12; ++round) {
      const linalg::Vector estimate{0.5 * static_cast<double>(round) - 1.25,
                                    1.0 / (static_cast<double>(round) + 3.0)};
      const std::vector<util::Frame> expected = inproc.exchange(round, estimate);
      const std::vector<util::Frame> actual = socket.exchange(round, estimate);
      const std::string at = label + " round " + std::to_string(round);
      ASSERT_EQ(actual.size(), expected.size()) << at;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        const util::Frame& a = expected[i];
        const util::Frame& b = actual[i];
        EXPECT_EQ(a.type, b.type) << at << " frame " << i;
        EXPECT_EQ(a.agent, b.agent) << at << " frame " << i;
        EXPECT_EQ(a.round, b.round) << at << " frame " << i;
        EXPECT_EQ(a.emitted, b.emitted) << at << " frame " << i;
        EXPECT_EQ(a.hops, b.hops) << at << " frame " << i;
        EXPECT_EQ(a.hops, transport::depth_of(topology, a.agent, n)) << at << " frame " << i;
        ASSERT_EQ(a.payload.size(), b.payload.size()) << at << " frame " << i;
        for (std::size_t k = 0; k < a.payload.size(); ++k) {
          EXPECT_EQ(bits_of(a.payload[k]), bits_of(b.payload[k])) << at << " frame " << i;
        }
      }
    }
    EXPECT_EQ(inproc.stats().exchanges, socket.stats().exchanges) << label;
    EXPECT_EQ(inproc.stats().frames_delivered, socket.stats().frames_delivered) << label;
    EXPECT_EQ(inproc.stats().bytes_on_wire, socket.stats().bytes_on_wire) << label;
    EXPECT_EQ(inproc.stats().reduce_rounds, socket.stats().reduce_rounds) << label;
    EXPECT_GT(inproc.stats().frames_delivered, 0u) << label;
  }
}

TEST(ScenarioSession, MatchesTheChaosExecutorWithoutChannelFaults) {
  // The transport and the executor share one round kernel's fault
  // schedule — instance, x0, attack streams, staleness, aggregation — so
  // channel-free scenarios must reproduce the executor's trajectory bit
  // for bit, anchoring the transport to the original oracle.  (Lossy
  // channels are covered across every driver by AllDrivers in
  // test_chaos.)
  std::vector<chaos::Scenario> channel_free;
  channel_free.push_back(base_scenario("exec-clean", 41));
  chaos::Scenario s = base_scenario("exec-byz", 42);
  s.faults = {byzantine(1, 0, 0)};
  channel_free.push_back(s);
  s = base_scenario("exec-crash-straggler", 43);
  s.n = 8;
  s.f = 2;
  s.faults = {crash(0, 1, 9), straggler(4, 2)};
  channel_free.push_back(s);

  for (const chaos::Scenario& scenario : channel_free) {
    const chaos::ScenarioResult expected = chaos::run_scenario(scenario);
    const auto session =
        transport::run_scenario_transport(scenario, opts(BackendKind::kInproc, Topology::kStar));
    EXPECT_EQ(session.result.estimate, expected.estimate) << scenario.name;
    EXPECT_EQ(session.result.final_distance, expected.final_distance) << scenario.name;
    EXPECT_EQ(session.result.max_distance, expected.max_distance) << scenario.name;
    EXPECT_EQ(session.result.byzantine_replies, expected.byzantine_replies) << scenario.name;
    EXPECT_EQ(session.result.crashed_absences, expected.crashed_absences) << scenario.name;
    EXPECT_EQ(session.result.stale_replies, expected.stale_replies) << scenario.name;
  }
}

// ---------------------------------------------------------------------------
// Theorem 3 over the wire
// ---------------------------------------------------------------------------

TEST(TransportTheorem3, SocketBackendConvergesUnderChannelFaultsOnEveryTopology) {
  // Guaranteed regime (2f-redundant mean instance, CGE, faults <= f,
  // mild asynchrony): Theorem 3 promises convergence to the honest
  // argmin, and chaos::check_properties asserts it.  The wire, the
  // processes, and the topology must not cost the guarantee.
  chaos::Scenario s = base_scenario("theorem3-socket", 51);
  s.n = 8;
  s.f = 1;
  s.rounds = 60;
  s.faults = {byzantine(2, 0, 0)};
  s.channel.duplicate_probability = 0.2;
  s.channel.max_delay = 2;
  ASSERT_TRUE(s.guaranteed());

  for (const Topology topology : {Topology::kStar, Topology::kChain, Topology::kTree}) {
    const auto session =
        transport::run_scenario_transport(s, opts(BackendKind::kSocket, topology));
    const chaos::PropertyReport report = chaos::check_properties(s, session.result);
    EXPECT_TRUE(report.ok) << transport::to_string(topology) << ": " << report.summary();
    EXPECT_LT(session.result.final_distance, session.result.initial_distance);
  }
}

TEST(TransportTheorem3, DroppyChannelStillDegradesGracefully) {
  // Drops leave the guaranteed regime; the property harness then asserts
  // graceful degradation (finite, bounded trajectory) — on every topology.
  chaos::Scenario s = base_scenario("droppy-socket", 52);
  s.n = 8;
  s.f = 2;
  s.faults = {byzantine(1, 0, 0)};
  s.channel.drop_probability = 0.25;
  ASSERT_FALSE(s.guaranteed());

  for (const Topology topology : {Topology::kStar, Topology::kChain, Topology::kTree}) {
    const auto session =
        transport::run_scenario_transport(s, opts(BackendKind::kSocket, topology));
    const chaos::PropertyReport report = chaos::check_properties(s, session.result);
    EXPECT_TRUE(report.ok) << transport::to_string(topology) << ": " << report.summary();
    EXPECT_FALSE(session.result.nonfinite);
  }
}

// ---------------------------------------------------------------------------
// dgd over a transport
// ---------------------------------------------------------------------------

namespace {

dgd::TrainerConfig dgd_config(std::size_t n, std::size_t f, std::size_t d,
                              std::size_t iterations) {
  dgd::TrainerConfig config;
  filters::FilterParams fp;
  fp.n = n;
  fp.f = f;
  config.filter = filters::FilterPtr(filters::make_filter("cge", fp));
  config.schedule = std::make_shared<dgd::HarmonicSchedule>(1.0 / (2.0 * double(n - f)));
  config.projection = std::make_shared<dgd::BoxProjection>(dgd::BoxProjection::cube(d, 10.0));
  config.iterations = iterations;
  config.seed = 5;
  config.filter_factory = [](std::size_t n_active, std::size_t f_active) {
    filters::FilterParams p;
    p.n = n_active;
    p.f = f_active;
    return filters::FilterPtr(filters::make_filter("cge", p));
  };
  return config;
}

void expect_trains_identical(const dgd::TrainResult& a, const dgd::TrainResult& b,
                             const std::string& label) {
  EXPECT_EQ(a.estimate, b.estimate) << label;
  EXPECT_EQ(a.trace.iteration, b.trace.iteration) << label;
  EXPECT_EQ(a.trace.loss, b.trace.loss) << label;
  ASSERT_EQ(a.trace.estimates.size(), b.trace.estimates.size()) << label;
  for (std::size_t k = 0; k < a.trace.estimates.size(); ++k) {
    EXPECT_EQ(a.trace.estimates[k], b.trace.estimates[k]) << label << " iterate " << k;
  }
  EXPECT_EQ(a.final_loss, b.final_loss) << label;
  EXPECT_EQ(a.eliminated_agents, b.eliminated_agents) << label;
}

}  // namespace

TEST(DgdTransport, FaultFreeRunMatchesInProcessTrainerOnEveryBackend) {
  const auto built = chaos::materialize_scenario(base_scenario("dgd-parity", 61));
  const dgd::TrainerConfig config = dgd_config(6, 1, 2, 25);

  // Socket first: fork before anything in this process spins up threads.
  const auto socket = transport::run_dgd(built.problem, {}, nullptr, config,
                                         opts(BackendKind::kSocket, Topology::kStar),
                                         built.reference);
  const auto inproc_star = transport::run_dgd(built.problem, {}, nullptr, config,
                                              opts(BackendKind::kInproc, Topology::kStar),
                                              built.reference);
  const auto inproc_tree = transport::run_dgd(built.problem, {}, nullptr, config,
                                              opts(BackendKind::kInproc, Topology::kTree),
                                              built.reference);
  const dgd::TrainResult expected =
      dgd::train(built.problem, {}, nullptr, config, built.reference);

  expect_trains_identical(socket.train, expected, "socket/star");
  expect_trains_identical(inproc_star.train, expected, "inproc/star");
  expect_trains_identical(inproc_tree.train, expected, "inproc/tree");
  EXPECT_EQ(socket.stats.bytes_on_wire, inproc_star.stats.bytes_on_wire);
}

TEST(DgdTransport, ByzantineRunMatchesServerProtocol) {
  const auto built = chaos::materialize_scenario(base_scenario("dgd-byz", 62));
  const dgd::TrainerConfig config = dgd_config(6, 1, 2, 25);
  const auto attack = chaos::make_scenario_attack("gradient_reverse", 1.0);

  const auto socket = transport::run_dgd(built.problem, {0}, attack.get(), config,
                                         opts(BackendKind::kSocket, Topology::kTree),
                                         built.reference);
  const auto inproc = transport::run_dgd(built.problem, {0}, attack.get(), config,
                                         opts(BackendKind::kInproc, Topology::kChain),
                                         built.reference);
  const net::ServerProtocolResult expected =
      net::run_server_protocol(built.problem, {0}, attack.get(), config, built.reference);

  expect_trains_identical(socket.train, expected.train, "socket/tree");
  expect_trains_identical(inproc.train, expected.train, "inproc/chain");
}

// ---------------------------------------------------------------------------
// Agent death on the socket backend
// ---------------------------------------------------------------------------

namespace {

/// Minimal agent program: one gradient frame echoing (agent, round).
transport::AgentFn echo_agents() {
  return [](std::size_t agent, std::size_t round, const linalg::Vector& estimate) {
    util::Frame frame;
    frame.agent = static_cast<std::uint32_t>(agent);
    frame.round = round;
    frame.emitted = round;
    frame.hops = 1;
    frame.payload = {static_cast<double>(agent), estimate[0]};
    return std::vector<util::Frame>{frame};
  };
}

}  // namespace

TEST(SocketDeath, StarSurvivesAnAgentDeathAndReportsIt) {
  transport::SocketOptions socket_options;
  socket_options.timeout_ms = 2000;
  socket_options.die_at_round = {transport::kNeverDies, transport::kNeverDies, 3,
                                 transport::kNeverDies};
  transport::SocketTransport t(Topology::kStar, 4, echo_agents(), socket_options);

  const linalg::Vector estimate{1.0};
  for (std::size_t round = 0; round < 6; ++round) {
    const auto frames = t.exchange(round, estimate);
    if (round < 3) {
      EXPECT_EQ(frames.size(), 4u) << "round " << round;
    } else {
      EXPECT_EQ(frames.size(), 3u) << "round " << round;
      for (const auto& frame : frames) EXPECT_NE(frame.agent, 2u);
    }
  }
  EXPECT_EQ(t.live_root_links(), 3u);
  EXPECT_EQ(t.stats().agent_deaths, 1u);
  EXPECT_EQ(t.stats().exchanges, 6u);
}

TEST(SocketDeath, ChainDeathCostsTheSubtreeBehindIt) {
  transport::SocketOptions socket_options;
  socket_options.timeout_ms = 2000;
  socket_options.die_at_round = {transport::kNeverDies, 2, transport::kNeverDies,
                                 transport::kNeverDies};
  transport::SocketTransport t(Topology::kChain, 4, echo_agents(), socket_options);

  const linalg::Vector estimate{1.0};
  for (std::size_t round = 0; round < 4; ++round) {
    const auto frames = t.exchange(round, estimate);
    if (round < 2) {
      EXPECT_EQ(frames.size(), 4u) << "round " << round;
    } else {
      // Agent 1 relayed agents 2 and 3; its death silences all three.
      ASSERT_EQ(frames.size(), 1u) << "round " << round;
      EXPECT_EQ(frames[0].agent, 0u);
    }
  }
  // The coordinator's own link (to agent 0) stayed alive throughout.
  EXPECT_EQ(t.live_root_links(), 1u);
}

TEST(SocketDeath, DgdEliminatesTheDeadAgent) {
  const auto built = chaos::materialize_scenario(base_scenario("dgd-death", 63));
  dgd::TrainerConfig config = dgd_config(6, 1, 2, 8);

  SessionOptions options = opts(BackendKind::kSocket, Topology::kStar);
  options.socket.timeout_ms = 2000;
  options.socket.die_at_round = {transport::kNeverDies, transport::kNeverDies,
                                 transport::kNeverDies, 4,
                                 transport::kNeverDies, transport::kNeverDies};
  const auto result = transport::run_dgd(built.problem, {}, nullptr, config, options,
                                         built.reference);
  EXPECT_EQ(result.train.eliminated_agents, (std::vector<std::size_t>{3}));
  EXPECT_GE(result.stats.agent_deaths, 1u);
}

// ---------------------------------------------------------------------------
// Traffic accounting
// ---------------------------------------------------------------------------

TEST(TransportStats, TopologyTradesHopsAgainstDepth) {
  const chaos::Scenario s = base_scenario("traffic", 71);
  const auto star =
      transport::run_scenario_transport(s, opts(BackendKind::kInproc, Topology::kStar));
  const auto chain =
      transport::run_scenario_transport(s, opts(BackendKind::kInproc, Topology::kChain));
  const auto tree =
      transport::run_scenario_transport(s, opts(BackendKind::kInproc, Topology::kTree));

  // Same frames reach the root regardless of topology...
  EXPECT_EQ(star.transport.frames_delivered, chain.transport.frames_delivered);
  EXPECT_EQ(star.transport.frames_delivered, tree.transport.frames_delivered);
  // ...but relaying multiplies bytes by hop count and deepens the gather.
  EXPECT_LT(star.transport.bytes_on_wire, tree.transport.bytes_on_wire);
  EXPECT_LT(tree.transport.bytes_on_wire, chain.transport.bytes_on_wire);
  EXPECT_EQ(star.transport.reduce_rounds, s.rounds * 1u);
  EXPECT_EQ(chain.transport.reduce_rounds, s.rounds * 6u);
  EXPECT_EQ(tree.transport.reduce_rounds, s.rounds * 3u);
}
