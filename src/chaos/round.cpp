#include "chaos/round.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <limits>
#include <string_view>

#include "filters/registry.h"
#include "runtime/runtime.h"
#include "util/error.h"

namespace redopt::chaos {

namespace {

/// "<head><a><mid><b>" in @p buf: the bytes head + std::to_string(a) +
/// mid + std::to_string(b) would hold, without the heap.  The two labels
/// take at most 19 + 20 + 2 + 20 = 61 bytes; every write is bounded by
/// the buffer's end all the same.
std::string_view fork_label(std::array<char, 64>& buf, std::string_view head, std::size_t a,
                            std::string_view mid, std::size_t b) {
  char* const end = buf.data() + buf.size();
  char* p = std::copy(head.begin(), head.end(), buf.data());
  p = std::to_chars(p, end, a).ptr;
  p = std::copy_n(mid.begin(), std::min(mid.size(), static_cast<std::size_t>(end - p)), p);
  p = std::to_chars(p, end, b).ptr;
  return {buf.data(), static_cast<std::size_t>(p - buf.data())};
}

}  // namespace

ChannelDecision channel_decision(const ChannelFaults& faults, std::uint64_t seed,
                                 std::size_t agent, std::size_t round) {
  ChannelDecision decision;
  if (faults.drop_probability <= 0.0 && faults.duplicate_probability <= 0.0 &&
      faults.max_delay == 0) {
    return decision;
  }
  std::array<char, 64> label;
  rng::Rng stream =
      rng::Rng(seed).fork(fork_label(label, "transport-channel-a", agent, "-r", round));
  // Draw all three knobs unconditionally so the decision is a pure
  // function of the label, not of which probabilities are non-zero.
  const double drop_draw = stream.uniform();
  const double duplicate_draw = stream.uniform();
  const std::size_t delay_draw =
      faults.max_delay == 0
          ? 0
          : static_cast<std::size_t>(
                stream.uniform_int(0, static_cast<std::int64_t>(faults.max_delay)));
  decision.drop = faults.drop_probability > 0.0 && drop_draw < faults.drop_probability;
  if (decision.drop) return decision;
  decision.duplicate =
      faults.duplicate_probability > 0.0 && duplicate_draw < faults.duplicate_probability;
  decision.delay = delay_draw;
  return decision;
}

RoundFate round_fate(const Scenario& scenario, std::size_t agent, std::size_t round) {
  REDOPT_REQUIRE(agent < scenario.n, "round fate: agent id out of range");
  const FaultSpec* spec = scenario.fault_of(agent);
  const bool active = spec != nullptr && spec->in_window(round);

  RoundFate what;
  if (active && spec->kind == FaultSpec::Kind::kCrash) {
    what.emits = false;
    return what;
  }
  what.byzantine = active && spec->kind == FaultSpec::Kind::kByzantine;
  what.stale = active && spec->kind == FaultSpec::Kind::kStraggler && round >= 1;
  const ChannelDecision decision =
      channel_decision(scenario.channel, scenario.seed, agent, round);
  what.dropped = decision.drop;
  what.duplicated = decision.duplicate;
  what.delay = decision.delay;
  return what;
}

rng::Rng attack_rng(std::uint64_t seed, std::size_t agent, std::size_t round) {
  std::array<char, 64> label;
  return rng::Rng(seed).fork(fork_label(label, "attack-", agent, "-", round));
}

FilterCache::FilterCache(std::string name, FilterFactory factory)
    : name_(std::move(name)), factory_(std::move(factory)) {}

const filters::FilterPtr& FilterCache::get(std::size_t replies, std::size_t f_cap,
                                           std::size_t* f_used) {
  std::size_t f_try = std::min(f_cap, replies == 0 ? std::size_t{0} : replies - 1);
  while (true) {
    const auto key = std::make_pair(replies, f_try);
    if (auto it = cache_.find(key); it != cache_.end()) {
      *f_used = f_try;
      return it->second;
    }
    try {
      filters::FilterPtr made;
      if (factory_) {
        made = factory_(name_, replies, f_try);
      } else {
        filters::FilterParams fp;
        fp.n = replies;
        fp.f = f_try;
        made = filters::make_filter(name_, fp);
      }
      *f_used = f_try;
      return cache_.emplace(key, std::move(made)).first->second;
    } catch (const PreconditionError&) {
      if (f_try == 0) break;
      --f_try;
    }
  }
  // Even f = 0 failed: degrade to the plain average so the execution
  // stays total.
  *f_used = 0;
  filters::FilterParams fp;
  fp.n = replies;
  fp.f = 0;
  return cache_.emplace(std::make_pair(replies, std::size_t{0}), filters::make_filter("mean", fp))
      .first->second;
}

RoundState initial_round_state(const Scenario& scenario, const MaterializedScenario& built) {
  const dgd::BoxProjection projection = dgd::BoxProjection::cube(scenario.d, 10.0);
  rng::Rng x0_rng = rng::Rng(scenario.seed).fork("x0");
  linalg::Vector x(scenario.d);
  for (auto& v : x) v = x0_rng.uniform(-5.0, 5.0);

  RoundState state;
  state.x = projection.project(x);
  state.history.push_front(state.x);
  state.initial_distance = linalg::distance(state.x, built.reference);
  state.max_distance = state.initial_distance;
  return state;
}

ScenarioResult scenario_result(const RoundState& state, const MaterializedScenario& built) {
  ScenarioResult result;
  result.estimate = state.x;
  result.reference = built.reference;
  result.initial_distance = state.initial_distance;
  result.final_distance = state.nonfinite ? std::numeric_limits<double>::infinity()
                                          : linalg::distance(state.x, built.reference);
  result.max_distance = state.max_distance;
  result.nonfinite = state.nonfinite;
  result.nonfinite_round = state.nonfinite_round;
  const RoundCounters& c = state.counters;
  result.byzantine_replies = c.byzantine_replies;
  result.crashed_absences = c.crashed_absences;
  result.stale_replies = c.stale_replies;
  result.dropped_replies = c.dropped_replies;
  result.delayed_replies = c.delayed_replies;
  result.duplicated_replies = c.duplicated_replies;
  result.superseded_replies = c.superseded_replies;
  result.filter_rebuilds = c.filter_rebuilds;
  return result;
}

RoundKernel::RoundKernel(const Scenario& scenario, const MaterializedScenario& built,
                         KernelOptions options)
    : scenario_(scenario),
      built_(built),
      attack_of_(scenario.n),
      filters_(scenario.filter, std::move(options.filter_factory)),
      schedule_(scenario_schedule_coefficient(scenario.filter, scenario.n, scenario.f)),
      projection_(dgd::BoxProjection::cube(scenario.d, 10.0)),
      max_staleness_(scenario.max_staleness()),
      fates_(scenario.n),
      payloads_(scenario.n),
      scratch_(scenario.n) {
  REDOPT_REQUIRE(!scenario.elastic(), "round kernel: fixed-membership scenarios only");
  REDOPT_REQUIRE(built.problem.costs.size() == scenario.n,
                 "round kernel: the materialized problem has the wrong agent count");
  for (const FaultSpec& spec : scenario.faults) {
    if (spec.kind == FaultSpec::Kind::kByzantine) {
      attack_of_[spec.agent] = make_scenario_attack(spec.attack, spec.attack_param);
    }
  }
  observed_.reserve(scenario.n);
  arrivals_.reserve(2 * scenario.n);
  received_.reserve(scenario.n);
}

void RoundKernel::step(RoundState& state) {
  const Scenario& s = scenario_;
  const std::size_t n = s.n;
  const std::size_t t = state.next_round;
  REDOPT_REQUIRE(!state.finished(s.rounds), "round kernel: the run is already finished");
  for (std::size_t i = 0; i < n; ++i) fates_[i] = round_fate(s, i, t);

  // --- Emission: every non-crashed agent computes its reply, stragglers
  // on an old estimate.  Byzantine agents are never stale: the attack
  // sees the freshest state (worst case for the server).  The lambda
  // captures two pointers, so std::function holds it without the heap. ---
  const std::deque<linalg::Vector>* history = &state.history;
  runtime::parallel_for(0, n, [this, history](std::size_t i) {
    const RoundFate& fate = fates_[i];
    if (!fate.emits) return;
    const std::size_t lag =
        fate.stale ? std::min(scenario_.fault_of(i)->staleness, history->size() - 1) : 0;
    built_.problem.costs[i]->gradient_into((*history)[lag], payloads_[i], scratch_[i]);
  });

  RoundCounters& counters = state.counters;
  bool attacked = false;
  for (const RoundFate& fate : fates_) {
    if (!fate.emits) {
      ++counters.crashed_absences;
      continue;
    }
    if (fate.stale) ++counters.stale_replies;
    attacked = attacked || fate.byzantine;
  }

  // --- Attack: what the adversary observes is the replies of the agents
  // that are not Byzantine this execution (stale where straggling).  Their
  // payloads move into the view and back, so nothing is copied. ---
  if (attacked) {
    observed_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (attack_of_[i] == nullptr && fates_[i].emits) observed_.push_back(std::move(payloads_[i]));
    }
    const std::size_t seen = observed_.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (!fates_[i].byzantine) continue;
      true_gradient_ = payloads_[i];
      // With no observed reply the adversary sees only its own gradient.
      if (seen == 0) observed_.assign(1, true_gradient_);
      rng::Rng rng = attack_rng(s.seed, i, t);
      attacks::AttackContext ctx;
      ctx.iteration = t;
      ctx.agent_id = i;
      ctx.n = n;
      ctx.f = s.f;
      ctx.estimate = &state.x;
      ctx.honest_gradient = &true_gradient_;
      ctx.honest_gradients = &observed_;
      ctx.rng = &rng;
      attack_of_[i]->craft_into(ctx, payloads_[i]);
      REDOPT_REQUIRE(payloads_[i].size() == s.d, "attack crafted a wrong-dimension vector");
      ++counters.byzantine_replies;
    }
    for (std::size_t i = 0, k = 0; k < seen; ++i) {
      if (attack_of_[i] == nullptr && fates_[i].emits) payloads_[i] = std::move(observed_[k++]);
    }
  }

  // --- Channel: replies delayed into this round arrive first, then each
  // emitted reply is dropped, duplicated (the extra copy lands on time)
  // or delayed.  Pending replies stay ordered by delivery round; a new
  // delayed reply reuses the buffer of one delivered earlier, and only a
  // reply beyond every earlier round's in-flight count allocates. ---
  for (PendingReply& reply : due_) spare_payloads_.push_back(std::move(reply.payload));
  due_.clear();
  std::vector<PendingReply>& pending = state.pending;
  const auto due_end = std::find_if(pending.begin(), pending.end(),
                                    [t](const PendingReply& r) { return r.deliver_at != t; });
  for (auto it = pending.begin(); it != due_end; ++it) due_.push_back(std::move(*it));
  pending.erase(pending.begin(), due_end);

  arrivals_.clear();
  for (const PendingReply& reply : due_) {
    arrivals_.push_back(Arrival{reply.agent, reply.emitted, &reply.payload});
  }
  for (std::size_t i = 0; i < n; ++i) {
    const RoundFate& fate = fates_[i];
    if (!fate.emits) continue;
    if (fate.dropped) {
      ++counters.dropped_replies;
      continue;
    }
    if (fate.duplicated) {
      ++counters.duplicated_replies;
      arrivals_.push_back(Arrival{i, t, &payloads_[i]});
    }
    if (fate.delay == 0) {
      arrivals_.push_back(Arrival{i, t, &payloads_[i]});
      continue;
    }
    ++counters.delayed_replies;
    PendingReply reply{i, t, t + fate.delay, {}};
    if (!spare_payloads_.empty()) {
      reply.payload = std::move(spare_payloads_.back());
      spare_payloads_.pop_back();
    }
    reply.payload = payloads_[i];
    const auto at = std::upper_bound(
        pending.begin(), pending.end(), reply.deliver_at,
        [](std::size_t due, const PendingReply& r) { return due < r.deliver_at; });
    pending.insert(at, std::move(reply));
  }

  // --- Receive: the freshest reply per agent (sequence-number dedup: a
  // stale or duplicate arrival never replaces a fresher one). ---
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  freshest_.assign(n, kNone);
  for (std::size_t k = 0; k < arrivals_.size(); ++k) {
    std::size_t& best = freshest_[arrivals_[k].agent];
    if (best == kNone) {
      best = k;
      continue;
    }
    if (arrivals_[k].emitted > arrivals_[best].emitted) best = k;
    ++counters.superseded_replies;
  }
  received_.clear();
  for (const std::size_t k : freshest_) {
    if (k != kNone) received_.push_back(arrivals_[k].payload);
  }

  // --- Aggregate and step: x <- Proj(x - eta_t * direction), in place. ---
  linalg::Vector& x = state.x;
  if (!received_.empty()) {
    std::size_t f_used = 0;
    const filters::FilterPtr& filter = filters_.get(received_.size(), s.f, &f_used);
    if (received_.size() != n || f_used != s.f) ++counters.filter_rebuilds;
    filter->apply_into(received_, direction_, filter_scratch_);
    direction_ *= schedule_.step(t);
    x -= direction_;
    projection_.project_in_place(x);
  }

  // The straggler window slides by one: the oldest entry's buffer takes x
  // (a reloaded window longer than the scenario needs is cut first).
  std::deque<linalg::Vector>& window = state.history;
  while (window.size() > max_staleness_ + 1) window.pop_back();
  if (window.size() < max_staleness_ + 1) {
    window.push_front(x);
  } else {
    std::rotate(window.rbegin(), window.rbegin() + 1, window.rend());
    window.front() = x;
  }

  state.next_round = t + 1;
  if (!x.is_finite()) {
    state.nonfinite = true;
    state.nonfinite_round = t;
    return;
  }
  state.max_distance = std::max(state.max_distance, linalg::distance(x, built_.reference));
}

}  // namespace redopt::chaos
