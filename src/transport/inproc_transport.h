// In-process deterministic transport backend — the test oracle.
//
// One exchange() is a direct walk of the topology on the caller's
// thread: the estimate frame crosses the wire codec once, every agent's
// AgentFn runs on the decoded estimate in ascending agent id (the order
// a level-by-level walk visits star, chain and the heap-numbered tree),
// and each emitted gradient frame crosses the codec once and arrives
// with its hops advanced by the relay edges between its emitter and the
// coordinator.  Everything is synchronous and single-process, so this
// backend is bit-reproducible by construction; the socket backend must
// match it frame for frame.
#pragma once

#include <cstdint>
#include <vector>

#include "transport/transport.h"

namespace redopt::transport {

class InprocTransport : public Transport {
 public:
  InprocTransport(Topology topology, std::size_t n, AgentFn agent_fn,
                  TelemetryFn telemetry_fn = {});

  std::vector<util::Frame> exchange(std::size_t round, const linalg::Vector& estimate) override;
  std::string name() const override { return "inproc"; }

  /// Every agent is in-process and always reachable, so collection is a
  /// direct call per agent — but through the same serialize → parse blob
  /// round trip the socket backend ships over the wire.
  std::vector<AgentBlob> collect_telemetry() override;

 private:
  AgentFn agent_fn_;
  TelemetryFn telemetry_fn_;
  /// Per agent: relay edges above it, depth_of(agent) - 1 — the hops a
  /// frame gains between its emitter's parent link and the coordinator.
  std::vector<std::uint32_t> relay_edges_;
};

}  // namespace redopt::transport
