#include "transport/inproc_transport.h"

#include <utility>

#include "telemetry/span.h"
#include "util/error.h"

namespace redopt::transport {

InprocTransport::InprocTransport(Topology topology, std::size_t n, AgentFn agent_fn,
                                 TelemetryFn telemetry_fn)
    : Transport(topology, n),
      agent_fn_(std::move(agent_fn)),
      telemetry_fn_(std::move(telemetry_fn)) {
  REDOPT_REQUIRE(n >= 1, "inproc transport: need at least one agent");
  relay_edges_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    relay_edges_.push_back(static_cast<std::uint32_t>(depth_of(topology, i, n) - 1));
  }
}

std::vector<AgentBlob> InprocTransport::collect_telemetry() {
  telemetry::ScopedSpan span("transport.collect_telemetry");
  std::vector<AgentBlob> blobs;
  if (!telemetry_fn_) return blobs;
  blobs.reserve(num_agents());
  for (std::size_t i = 0; i < num_agents(); ++i) {
    blobs.push_back(AgentBlob{static_cast<std::uint32_t>(i), telemetry_fn_(i)});
  }
  return blobs;
}

std::vector<util::Frame> InprocTransport::exchange(std::size_t round,
                                                   const linalg::Vector& estimate) {
  telemetry::ScopedSpan span("transport.exchange");
  span.attr("round", static_cast<std::uint64_t>(round));
  util::Frame down;
  down.type = util::FrameType::kEstimate;
  down.agent = util::kCoordinatorAgent;
  down.round = round;
  down.emitted = round;
  down.payload = estimate.data();
  // The estimate crosses the codec once; relays forward the same bytes,
  // so every agent sees this one decoded copy.
  util::Frame received = util::decode_frame(util::encode_frame(down));
  const linalg::Vector agent_estimate(std::move(received.payload));

  std::vector<util::Frame> frames;
  for (std::size_t agent = 0; agent < num_agents(); ++agent) {
    for (const util::Frame& emitted : agent_fn_(agent, received.round, agent_estimate)) {
      // Relays and the root drop every other frame type.
      if (emitted.type != util::FrameType::kGradient) continue;
      util::Frame frame = util::decode_frame(util::encode_frame(emitted));
      frame.hops += relay_edges_[agent];
      frames.push_back(std::move(frame));
    }
  }
  finish_exchange(frames, estimate.size());
  return frames;
}

}  // namespace redopt::transport
