#include "transport/agent_replica.h"

#include <algorithm>
#include <utility>

#include "chaos/round.h"
#include "util/error.h"

namespace redopt::transport {

AgentReplica::AgentReplica(const chaos::Scenario& scenario,
                           const chaos::MaterializedScenario& built, std::size_t agent)
    : scenario_(scenario),
      problem_(built.problem),
      agent_(agent),
      was_member_(scenario.initially_member(agent)),
      max_staleness_(scenario.max_staleness()),
      telemetry_(std::make_unique<telemetry::AgentTelemetry>()) {
  REDOPT_REQUIRE(agent < scenario.n, "agent replica: agent id out of range");
  // Private streaming clones: this replica's absorbs never leak into
  // another replica or the coordinator's materialized originals.
  streams_.reserve(built.streams.size());
  for (const auto& stream : built.streams) {
    streams_.push_back(std::make_shared<data::StreamingLeastSquaresCost>(*stream));
  }
  const chaos::FaultSpec* own = scenario_.fault_of(agent_);
  if (own != nullptr && own->kind == chaos::FaultSpec::Kind::kByzantine) {
    attack_ = chaos::make_scenario_attack(own->attack, own->attack_param);
  }
  telemetry::Registry& reg = telemetry_->registry;
  m_rounds_ = reg.counter("replica.rounds");
  m_frames_emitted_ = reg.counter("replica.frames_emitted");
  m_byzantine_ = reg.counter("replica.byzantine_replies");
  m_crashed_ = reg.counter("replica.crashed_absences");
  m_stale_ = reg.counter("replica.stale_replies");
  m_dropped_ = reg.counter("replica.dropped_replies");
  m_delayed_ = reg.counter("replica.delayed_replies");
  m_duplicated_ = reg.counter("replica.duplicated_replies");
  m_gradient_norm_ =
      reg.histogram("replica.gradient_norm", telemetry::BucketLayout::exponential(1e-3, 4.0, 12));
  if (scenario_.elastic()) {
    m_absent_rounds_ = reg.counter("elastic.absent_rounds");
    m_joins_ = reg.counter("elastic.joins");
    m_leaves_ = reg.counter("elastic.leaves");
    m_stream_rows_ = reg.counter("elastic.stream_rows");
  }
}

const core::CostFunction& AgentReplica::cost(std::size_t who) const {
  return streams_.empty() ? *problem_.costs[who] : *streams_[who];
}

linalg::Vector AgentReplica::honest_payload(std::size_t who, std::size_t round) const {
  const chaos::FaultSpec* spec = scenario_.fault_of(who);
  std::size_t staleness = 0;
  if (spec != nullptr && spec->kind == chaos::FaultSpec::Kind::kStraggler &&
      spec->in_window(round)) {
    staleness = std::min(spec->staleness, history_.size() - 1);
  }
  return cost(who).gradient(history_[staleness]);
}

std::vector<util::Frame> AgentReplica::on_round(std::size_t round, const linalg::Vector& estimate) {
  // Every branch below books into the island with exactly the semantics
  // of the coordinator's membership and round_fate() replay (session.cpp)
  // — that one-to-one mirror is what the attribution report reconciles
  // against.
  const std::uint64_t t = static_cast<std::uint64_t>(round);
  telemetry::ScopedSpan span(telemetry_->spans, "replica.round");
  span.attr("t", t);
  auto note = [&](const char* name) {
    telemetry_->spans.instant(name, {{"t", telemetry::Value(t)}});
  };

  // Stream arrivals due this round fold into the private clones — EVERY
  // agent's arrivals, so Byzantine recomputation sees the same
  // post-arrival world in every process.  Arrivals fire even while this
  // agent sits out: data accumulates through a departure.
  while (stream_cursor_ < scenario_.stream.size() &&
         scenario_.stream[stream_cursor_].round <= round) {
    const chaos::StreamEvent& event = scenario_.stream[stream_cursor_];
    streams_[event.agent]->absorb(event.rows);
    if (event.agent == agent_) {
      m_stream_rows_.inc(event.rows);
      note("elastic.stream_arrival");
    }
    ++stream_cursor_;
  }

  // History advances every round, member or not, so straggler staleness
  // depths match the coordinator's round clock.
  history_.push_front(estimate);
  while (history_.size() > max_staleness_ + 1) history_.pop_back();

  // Frames the channel delayed into this round are in flight regardless
  // of what the schedule does to the agent now (even crashed or departed
  // agents' earlier replies still arrive).
  std::vector<util::Frame> out;
  if (auto it = delayed_.find(round); it != delayed_.end()) {
    out = std::move(it->second);
    delayed_.erase(it);
  }

  const bool member = scenario_.member_at(agent_, round);
  if (member != was_member_) {
    (member ? m_joins_ : m_leaves_).inc();
    note(member ? "elastic.join" : "elastic.leave");
    was_member_ = member;
  }
  if (!member) {
    m_absent_rounds_.inc();
    note("elastic.absent");
    m_frames_emitted_.inc(out.size());
    return out;
  }
  m_rounds_.inc();

  const chaos::RoundFate what = chaos::round_fate(scenario_, agent_, round);
  if (!what.emits) {
    m_crashed_.inc();
    note("replica.crashed");
    m_frames_emitted_.inc(out.size());
    return out;
  }
  if (what.byzantine) {
    m_byzantine_.inc();
    note("replica.byzantine");
  }
  if (what.stale) {
    m_stale_.inc();
    note("replica.stale");
  }

  // Byzantine agents are never stale: the attack sees the freshest state
  // (worst case for the server).
  linalg::Vector payload =
      what.byzantine ? cost(agent_).gradient(history_[0]) : honest_payload(agent_, round);

  if (what.byzantine) {
    const linalg::Vector true_gradient = payload;
    // What the adversary observes: the replies of the live members that
    // are not Byzantine this execution and not crashed this round (stale
    // where straggling) — recomputed locally, so the observation needs no
    // extra communication.
    std::vector<linalg::Vector> observed;
    observed.reserve(scenario_.n);
    for (std::size_t j = 0; j < scenario_.n; ++j) {
      if (!scenario_.member_at(j, round)) continue;
      const chaos::FaultSpec* spec = scenario_.fault_of(j);
      if (spec != nullptr && spec->kind == chaos::FaultSpec::Kind::kByzantine) continue;
      if (spec != nullptr && spec->kind == chaos::FaultSpec::Kind::kCrash &&
          spec->in_window(round)) {
        continue;
      }
      observed.push_back(honest_payload(j, round));
    }
    const std::vector<linalg::Vector> fallback{true_gradient};
    attacks::AttackContext ctx;
    ctx.iteration = round;
    ctx.agent_id = agent_;
    // The attack context keeps the scenario's nominal (n, f): the
    // adversary plans against the declared shape, while the coordinator
    // defends with the derived budget of the live membership.
    ctx.n = scenario_.n;
    ctx.f = scenario_.f;
    ctx.estimate = &history_[0];
    ctx.honest_gradient = &true_gradient;
    ctx.honest_gradients = observed.empty() ? &fallback : &observed;
    rng::Rng rng = chaos::attack_rng(scenario_.seed, agent_, round);
    ctx.rng = &rng;
    payload = attack_->craft(ctx);
    REDOPT_REQUIRE(payload.size() == scenario_.d, "attack crafted a wrong-dimension vector");
  }
  m_gradient_norm_.observe(payload.norm());

  if (what.dropped) {
    m_dropped_.inc();
    note("replica.dropped");
    m_frames_emitted_.inc(out.size());
    return out;
  }

  util::Frame frame;
  frame.type = util::FrameType::kGradient;
  frame.agent = static_cast<std::uint32_t>(agent_);
  frame.round = round;
  frame.emitted = round;
  frame.hops = 1;
  frame.payload.assign(payload.begin(), payload.end());
  if (what.duplicated) {
    m_duplicated_.inc();
    note("replica.duplicated");
    out.push_back(frame);  // the extra copy lands on time
  }
  if (what.delay > 0) {
    m_delayed_.inc();
    note("replica.delayed");
    frame.round = round + what.delay;
    delayed_[round + what.delay].push_back(std::move(frame));
  } else {
    out.push_back(std::move(frame));
  }
  m_frames_emitted_.inc(out.size());
  return out;
}

}  // namespace redopt::transport
