#include "chaos/scenario.h"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>

#include "util/error.h"
#include "util/json.h"

namespace redopt::chaos {

namespace {

const char* kind_name(FaultSpec::Kind kind) {
  switch (kind) {
    case FaultSpec::Kind::kByzantine:
      return "byzantine";
    case FaultSpec::Kind::kCrash:
      return "crash";
    case FaultSpec::Kind::kStraggler:
      return "straggler";
  }
  return "byzantine";  // unreachable
}

FaultSpec::Kind kind_from_name(const std::string& name) {
  if (name == "byzantine") return FaultSpec::Kind::kByzantine;
  if (name == "crash") return FaultSpec::Kind::kCrash;
  if (name == "straggler") return FaultSpec::Kind::kStraggler;
  REDOPT_REQUIRE(false, "scenario: unknown fault kind: " + name);
  return FaultSpec::Kind::kByzantine;  // unreachable
}

bool known_problem(const std::string& p) {
  return p == "mean" || p == "regression" || p == "block_regression" ||
         p == "streaming_regression";
}

const char* membership_kind_name(MembershipEvent::Kind kind) {
  return kind == MembershipEvent::Kind::kJoin ? "join" : "leave";
}

MembershipEvent::Kind membership_kind_from_name(const std::string& name) {
  if (name == "join") return MembershipEvent::Kind::kJoin;
  if (name == "leave") return MembershipEvent::Kind::kLeave;
  REDOPT_REQUIRE(false, "scenario: unknown membership kind: " + name);
  return MembershipEvent::Kind::kLeave;  // unreachable
}

/// Caps the total streamed rows a parsed scenario may demand, so a fuzzed
/// document cannot turn replay into an unbounded absorb loop.
constexpr std::size_t kMaxStreamRows = 1 << 16;

}  // namespace

const std::vector<std::string>& scenario_attack_names() {
  static const std::vector<std::string> names = {
      "gradient_reverse", "random",     "zero",  "large_norm",       "lie",
      "ipm",              "camouflage", "orthogonal_drift", "poisoned_cost", "mimic"};
  return names;
}

void Scenario::validate() const {
  REDOPT_REQUIRE(n >= 1 && d >= 1 && rounds >= 1, "scenario: n, d, rounds must be positive");
  REDOPT_REQUIRE(f >= 1, "scenario: fault budget f must be >= 1");
  REDOPT_REQUIRE(n > 2 * f, "scenario: needs n > 2f");
  REDOPT_REQUIRE(known_problem(problem), "scenario: unknown problem family: " + problem);
  REDOPT_REQUIRE(problem != "regression" || n - 2 * f >= d,
                 "scenario: regression instances need n - 2f >= d");
  REDOPT_REQUIRE(noise_sigma >= 0.0, "scenario: noise_sigma must be non-negative");
  REDOPT_REQUIRE(channel.drop_probability >= 0.0 && channel.drop_probability <= 1.0,
                 "scenario: drop probability must lie in [0, 1]");
  REDOPT_REQUIRE(channel.duplicate_probability >= 0.0 && channel.duplicate_probability <= 1.0,
                 "scenario: duplicate probability must lie in [0, 1]");

  std::set<std::size_t> seen;
  const auto& attacks = scenario_attack_names();
  for (const FaultSpec& spec : faults) {
    REDOPT_REQUIRE(spec.agent < n, "scenario: fault spec names an unknown agent");
    REDOPT_REQUIRE(seen.insert(spec.agent).second,
                   "scenario: at most one fault spec per agent");
    REDOPT_REQUIRE(spec.until == 0 || spec.from < spec.until,
                   "scenario: fault window must be non-empty (from < until)");
    REDOPT_REQUIRE(spec.from < rounds, "scenario: fault window starts past the last round");
    if (spec.kind == FaultSpec::Kind::kByzantine) {
      REDOPT_REQUIRE(
          std::find(attacks.begin(), attacks.end(), spec.attack) != attacks.end(),
          "scenario: unknown or unsupported attack: " + spec.attack);
      // mimic's knob is a rank, where 0 is meaningful; every other knob is
      // a positive scale factor.
      REDOPT_REQUIRE(spec.attack_param > 0.0 || (spec.attack == "mimic" && spec.attack_param >= 0.0),
                     "scenario: attack_param must be positive");
    }
    if (spec.kind == FaultSpec::Kind::kStraggler) {
      REDOPT_REQUIRE(spec.staleness >= 1, "scenario: straggler staleness must be >= 1");
    }
    if (spec.kind == FaultSpec::Kind::kCrash) {
      REDOPT_REQUIRE(spec.from >= 1, "scenario: crash windows must begin at round >= 1");
    }
  }

  // Membership events: canonically sorted by (round, agent), rounds in
  // [1, rounds), per-agent kinds alternating on strictly increasing
  // rounds, and at least one live member at every round.  Membership only
  // changes at event rounds, so the liveness sweep folds the events once
  // instead of walking every round.
  std::vector<MembershipEvent::Kind> last_kind(n, MembershipEvent::Kind::kLeave);
  std::vector<bool> has_event(n, false);
  for (std::size_t k = 0; k < membership.size(); ++k) {
    const MembershipEvent& event = membership[k];
    REDOPT_REQUIRE(event.agent < n, "scenario: membership event names an unknown agent");
    REDOPT_REQUIRE(event.round >= 1 && event.round < rounds,
                   "scenario: membership event round must lie in [1, rounds)");
    if (k > 0) {
      const MembershipEvent& prev = membership[k - 1];
      REDOPT_REQUIRE(prev.round < event.round ||
                         (prev.round == event.round && prev.agent < event.agent),
                     "scenario: membership events must be sorted by (round, agent)");
    }
    if (has_event[event.agent]) {
      REDOPT_REQUIRE(last_kind[event.agent] != event.kind,
                     "scenario: membership kinds must alternate per agent");
    }
    has_event[event.agent] = true;
    last_kind[event.agent] = event.kind;
  }
  std::size_t live = 0;
  for (std::size_t i = 0; i < n; ++i) live += initially_member(i) ? 1 : 0;
  REDOPT_REQUIRE(live >= 1, "scenario: at least one agent must be a member at round 0");
  for (const MembershipEvent& event : membership) {
    live += event.kind == MembershipEvent::Kind::kJoin ? 1 : std::size_t(-1);
    REDOPT_REQUIRE(live >= 1 && live <= n,
                   "scenario: membership schedule must keep >= 1 live member");
  }

  // Stream events: only the streaming family absorbs rows, events are
  // canonically sorted and unique per (round, agent), and the total row
  // demand stays bounded.
  REDOPT_REQUIRE(stream.empty() || problem == "streaming_regression",
                 "scenario: stream events require the streaming_regression problem");
  std::size_t total_rows = 0;
  for (std::size_t k = 0; k < stream.size(); ++k) {
    const StreamEvent& event = stream[k];
    REDOPT_REQUIRE(event.agent < n, "scenario: stream event names an unknown agent");
    REDOPT_REQUIRE(event.round >= 1 && event.round < rounds,
                   "scenario: stream event round must lie in [1, rounds)");
    REDOPT_REQUIRE(event.rows >= 1, "scenario: stream event must carry >= 1 row");
    if (k > 0) {
      const StreamEvent& prev = stream[k - 1];
      REDOPT_REQUIRE(prev.round < event.round ||
                         (prev.round == event.round && prev.agent < event.agent),
                     "scenario: stream events must be sorted by (round, agent)");
    }
    total_rows += event.rows;
    REDOPT_REQUIRE(total_rows <= kMaxStreamRows,
                   "scenario: stream events demand too many total rows");
  }
}

bool Scenario::initially_member(std::size_t agent) const {
  for (const MembershipEvent& event : membership) {
    if (event.agent != agent) continue;
    // First event in canonical order: a join means the agent starts out.
    return event.kind == MembershipEvent::Kind::kLeave;
  }
  return true;
}

bool Scenario::member_at(std::size_t agent, std::size_t round) const {
  bool member = initially_member(agent);
  for (const MembershipEvent& event : membership) {
    if (event.round > round) break;
    if (event.agent == agent) member = event.kind == MembershipEvent::Kind::kJoin;
  }
  return member;
}

std::vector<std::size_t> Scenario::members_at(std::size_t round) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (member_at(i, round)) out.push_back(i);
  }
  return out;
}

std::size_t Scenario::member_count_at(std::size_t round) const {
  return members_at(round).size();
}

std::size_t Scenario::derived_f_at(std::size_t round) const {
  const std::size_t m = member_count_at(round);
  if (m > 2 * f) return f;
  return m == 0 ? 0 : (m - 1) / 2;
}

bool Scenario::redundant_at(std::size_t round) const {
  if (derived_f_at(round) != f) return false;
  std::size_t live_crashes = 0;
  for (const FaultSpec& spec : faults) {
    if (spec.kind == FaultSpec::Kind::kCrash && member_at(spec.agent, round)) ++live_crashes;
  }
  return member_count_at(round) > 3 * f + live_crashes;
}

bool Scenario::redundant_throughout() const {
  // Membership is piecewise constant between events: checking round 0 and
  // each event round covers every regime of the schedule.
  if (!redundant_at(0)) return false;
  for (const MembershipEvent& event : membership) {
    if (!redundant_at(event.round)) return false;
  }
  return true;
}

const FaultSpec* Scenario::fault_of(std::size_t agent) const {
  for (const FaultSpec& spec : faults) {
    if (spec.agent == agent) return &spec;
  }
  return nullptr;
}

std::size_t Scenario::max_staleness() const {
  std::size_t out = 0;
  for (const FaultSpec& spec : faults) {
    if (spec.kind == FaultSpec::Kind::kStraggler) out = std::max(out, spec.staleness);
  }
  return out;
}

std::vector<std::size_t> Scenario::byzantine_agents() const {
  std::vector<std::size_t> out;
  for (const FaultSpec& spec : faults) {
    if (spec.kind == FaultSpec::Kind::kByzantine) out.push_back(spec.agent);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::size_t> Scenario::crash_agents() const {
  std::vector<std::size_t> out;
  for (const FaultSpec& spec : faults) {
    if (spec.kind == FaultSpec::Kind::kCrash) out.push_back(spec.agent);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t Scenario::faulty_agent_count() const {
  return byzantine_agents().size() + crash_agents().size();
}

bool Scenario::guaranteed() const {
  if (noise_sigma != 0.0) return false;
  if (problem != "mean" && problem != "block_regression" && problem != "streaming_regression") {
    return false;
  }
  if (filter != "cge" && filter != "cwtm") return false;
  if (!within_budget()) return false;
  if (channel.drop_probability != 0.0) return false;
  if (channel.max_delay > 2) return false;
  if (rounds < 40) return false;
  const std::size_t crashes = crash_agents().size();
  if (n <= 3 * f + crashes) return false;
  if (elastic() && !redundant_throughout()) return false;
  for (const FaultSpec& spec : faults) {
    if (spec.kind == FaultSpec::Kind::kStraggler && spec.staleness > 5) return false;
  }
  return true;
}

std::string Scenario::to_json() const {
  using util::json_escape;
  using util::json_number;
  std::ostringstream os;
  os << "{\"name\":\"" << json_escape(name) << "\"";
  os << ",\"seed\":" << seed;
  os << ",\"problem\":\"" << json_escape(problem) << "\"";
  os << ",\"filter\":\"" << json_escape(filter) << "\"";
  os << ",\"n\":" << n << ",\"f\":" << f << ",\"d\":" << d << ",\"rounds\":" << rounds;
  os << ",\"noise_sigma\":" << json_number(noise_sigma);
  os << ",\"channel\":{\"drop\":" << json_number(channel.drop_probability)
     << ",\"duplicate\":" << json_number(channel.duplicate_probability)
     << ",\"max_delay\":" << channel.max_delay << "}";
  os << ",\"faults\":[";
  for (std::size_t k = 0; k < faults.size(); ++k) {
    const FaultSpec& spec = faults[k];
    if (k > 0) os << ",";
    os << "{\"kind\":\"" << kind_name(spec.kind) << "\",\"agent\":" << spec.agent
       << ",\"from\":" << spec.from << ",\"until\":" << spec.until;
    if (spec.kind == FaultSpec::Kind::kByzantine) {
      os << ",\"attack\":\"" << json_escape(spec.attack)
         << "\",\"attack_param\":" << json_number(spec.attack_param);
    }
    if (spec.kind == FaultSpec::Kind::kStraggler) os << ",\"staleness\":" << spec.staleness;
    os << "}";
  }
  os << "]";
  // Elastic members are emitted only when present, so fixed-membership
  // scenarios keep their historical byte-exact form.
  if (!membership.empty()) {
    os << ",\"membership\":[";
    for (std::size_t k = 0; k < membership.size(); ++k) {
      const MembershipEvent& event = membership[k];
      if (k > 0) os << ",";
      os << "{\"kind\":\"" << membership_kind_name(event.kind)
         << "\",\"agent\":" << event.agent << ",\"round\":" << event.round << "}";
    }
    os << "]";
  }
  if (!stream.empty()) {
    os << ",\"stream\":[";
    for (std::size_t k = 0; k < stream.size(); ++k) {
      const StreamEvent& event = stream[k];
      if (k > 0) os << ",";
      os << "{\"agent\":" << event.agent << ",\"round\":" << event.round
         << ",\"rows\":" << event.rows << "}";
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

namespace {

constexpr std::int64_t kMaxSize = 1 << 20;  ///< caps parsed sizes/rounds

std::size_t as_size(const util::JsonValue& v) {
  return static_cast<std::size_t>(v.as_int(0, kMaxSize));
}

void reject_unknown_members(const util::JsonValue& object,
                            const std::vector<std::string>& known, const std::string& where) {
  for (const auto& [key, value] : object.members) {
    (void)value;
    REDOPT_REQUIRE(std::find(known.begin(), known.end(), key) != known.end(),
                   "scenario: unknown member \"" + key + "\" in " + where);
  }
}

}  // namespace

Scenario scenario_from_json(const std::string& text) {
  const util::JsonValue doc = util::json_parse(text);
  REDOPT_REQUIRE(doc.kind == util::JsonValue::Kind::kObject,
                 "scenario: document must be a JSON object");
  reject_unknown_members(doc,
                         {"name", "seed", "problem", "filter", "n", "f", "d", "rounds",
                          "noise_sigma", "channel", "faults", "membership", "stream"},
                         "scenario");

  Scenario s;
  s.name = doc.at("name").as_string();
  s.seed = static_cast<std::uint64_t>(
      doc.at("seed").as_int(0, std::numeric_limits<std::int64_t>::max()));
  s.problem = doc.at("problem").as_string();
  s.filter = doc.at("filter").as_string();
  s.n = as_size(doc.at("n"));
  s.f = as_size(doc.at("f"));
  s.d = as_size(doc.at("d"));
  s.rounds = as_size(doc.at("rounds"));
  s.noise_sigma = doc.at("noise_sigma").as_number();
  REDOPT_REQUIRE(s.noise_sigma >= 0.0, "scenario: noise_sigma must be non-negative");

  const util::JsonValue& channel = doc.at("channel");
  REDOPT_REQUIRE(channel.kind == util::JsonValue::Kind::kObject,
                 "scenario: channel must be an object");
  reject_unknown_members(channel, {"drop", "duplicate", "max_delay"}, "channel");
  s.channel.drop_probability = channel.at("drop").as_number();
  s.channel.duplicate_probability = channel.at("duplicate").as_number();
  s.channel.max_delay = as_size(channel.at("max_delay"));

  for (const util::JsonValue& item : doc.at("faults").as_array()) {
    REDOPT_REQUIRE(item.kind == util::JsonValue::Kind::kObject,
                   "scenario: each fault must be an object");
    reject_unknown_members(
        item, {"kind", "agent", "from", "until", "attack", "attack_param", "staleness"},
        "fault");
    FaultSpec spec;
    spec.kind = kind_from_name(item.at("kind").as_string());
    spec.agent = as_size(item.at("agent"));
    spec.from = as_size(item.at("from"));
    spec.until = as_size(item.at("until"));
    if (spec.kind == FaultSpec::Kind::kByzantine) {
      spec.attack = item.at("attack").as_string();
      spec.attack_param = item.at("attack_param").as_number();
    }
    if (spec.kind == FaultSpec::Kind::kStraggler) spec.staleness = as_size(item.at("staleness"));
    s.faults.push_back(spec);
  }

  if (const util::JsonValue* membership = doc.find("membership")) {
    for (const util::JsonValue& item : membership->as_array()) {
      REDOPT_REQUIRE(item.kind == util::JsonValue::Kind::kObject,
                     "scenario: each membership event must be an object");
      reject_unknown_members(item, {"kind", "agent", "round"}, "membership event");
      MembershipEvent event;
      event.kind = membership_kind_from_name(item.at("kind").as_string());
      event.agent = as_size(item.at("agent"));
      event.round = as_size(item.at("round"));
      s.membership.push_back(event);
    }
  }

  if (const util::JsonValue* stream = doc.find("stream")) {
    for (const util::JsonValue& item : stream->as_array()) {
      REDOPT_REQUIRE(item.kind == util::JsonValue::Kind::kObject,
                     "scenario: each stream event must be an object");
      reject_unknown_members(item, {"agent", "round", "rows"}, "stream event");
      StreamEvent event;
      event.agent = as_size(item.at("agent"));
      event.round = as_size(item.at("round"));
      event.rows = as_size(item.at("rows"));
      s.stream.push_back(event);
    }
  }

  s.validate();
  return s;
}

}  // namespace redopt::chaos
