// Multi-process socket transport backend.
//
// Spawns one coordinator (the calling process) plus n agent processes
// connected by Unix-domain stream socket pairs, one per topology edge.
// Frames cross the wire in the length-prefixed, CRC-checksummed binary
// format of util/frame.h; every read is guarded by a poll() timeout with
// bounded retries, and a closed or timed-out link is handled gracefully
// by marking the edge dead and carrying on with the surviving agents —
// an agent's death costs its subtree's replies, never the round.
//
// Determinism: the processes only *move* frames; every decision that
// shapes the byte stream (who emits, attacks, channel faults) is made by
// the AgentFn from per-(agent, round) named RNG forks, and the coordinator
// canonicalizes arrivals by (agent, emitted).  So a healthy run is
// bit-identical to the in-process backend — the cross-backend oracle the
// transport tests enforce.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "transport/transport.h"

namespace redopt::transport {

/// Socket-backend knobs.  The defaults are generous: timeouts exist to
/// survive real faults (a hung or dead agent), not to race healthy runs.
struct SocketOptions {
  int timeout_ms = 10000;  ///< per poll() wait on a frame read
  int max_retries = 3;     ///< extra poll attempts before a link counts as dead
  /// Test hook: agent i exits silently at the start of round
  /// die_at_round[i] (kNeverDies or an empty vector = never).
  std::vector<std::size_t> die_at_round;
};

inline constexpr std::size_t kNeverDies = std::numeric_limits<std::size_t>::max();

class SocketTransport : public Transport {
 public:
  /// Forks the n agent processes immediately.  @p agent_fn (and
  /// @p telemetry_fn, when set) run inside the forked children, one
  /// agent each; they must not touch threads or global mutable state
  /// (see agent_replica.h).
  SocketTransport(Topology topology, std::size_t n, AgentFn agent_fn, SocketOptions options = {},
                  TelemetryFn telemetry_fn = {});
  ~SocketTransport() override;

  std::vector<util::Frame> exchange(std::size_t round, const linalg::Vector& estimate) override;
  std::string name() const override { return "socket"; }

  /// Runs one kTelemetry collection sweep: the request walks down the
  /// tree, every live agent ships its serialized island back up (relays
  /// forward their subtree's blobs like gradient frames).  Dead links
  /// cost their subtree's blobs, never the sweep.
  std::vector<AgentBlob> collect_telemetry() override;

  /// Agents whose coordinator-side link is still alive.
  std::size_t live_root_links() const;

 private:
  [[noreturn]] void agent_main(std::size_t agent);
  void shutdown_agents();

  AgentFn agent_fn_;
  TelemetryFn telemetry_fn_;
  SocketOptions options_;
  std::vector<int> up_fd_;    ///< parent-of-i side of agent i's edge
  std::vector<int> down_fd_;  ///< agent-i side of its edge (children only)
  std::vector<pid_t> pids_;
  std::vector<std::size_t> root_children_;
  std::vector<char> link_alive_;  ///< per root child, coordinator's view
};

}  // namespace redopt::transport
