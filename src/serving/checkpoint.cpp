#include "serving/checkpoint.h"

#include <cmath>
#include <limits>

#include "util/error.h"
#include "util/json.h"

namespace redopt::serving {

namespace {

std::string vector_json(const linalg::Vector& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += util::json_number(v[i]);
  }
  out += "]";
  return out;
}

linalg::Vector vector_from(const util::JsonValue& value, std::size_t d, const char* what) {
  const auto& items = value.as_array();
  REDOPT_REQUIRE(items.size() == d, std::string("checkpoint: ") + what +
                                        " has wrong dimension");
  linalg::Vector v(d);
  for (std::size_t i = 0; i < d; ++i) {
    v[i] = items[i].as_number();
  }
  return v;
}

std::uint64_t uint_from(const util::JsonValue& value, const char* what) {
  const std::int64_t raw = value.as_int(0, std::numeric_limits<std::int64_t>::max());
  (void)what;
  return static_cast<std::uint64_t>(raw);
}

}  // namespace

std::string JobCheckpoint::to_json() const {
  const chaos::RoundState& st = state;
  std::string out = "{";
  out += "\"spec\":" + spec.to_json() + ",";
  out += "\"next_round\":" + std::to_string(st.next_round) + ",";
  out += "\"x\":" + vector_json(st.x) + ",";
  out += "\"history\":[";
  for (std::size_t i = 0; i < st.history.size(); ++i) {
    if (i > 0) out += ",";
    out += vector_json(st.history[i]);
  }
  out += "],";
  out += "\"pending\":[";
  for (std::size_t i = 0; i < st.pending.size(); ++i) {
    if (i > 0) out += ",";
    const chaos::PendingReply& r = st.pending[i];
    out += "{\"agent\":" + std::to_string(r.agent) + ",\"emitted\":" + std::to_string(r.emitted) +
           ",\"deliver_at\":" + std::to_string(r.deliver_at) +
           ",\"payload\":" + vector_json(r.payload) + "}";
  }
  out += "],";
  const chaos::RoundCounters& c = st.counters;
  out += "\"counters\":{";
  out += "\"byzantine_replies\":" + std::to_string(c.byzantine_replies) + ",";
  out += "\"crashed_absences\":" + std::to_string(c.crashed_absences) + ",";
  out += "\"stale_replies\":" + std::to_string(c.stale_replies) + ",";
  out += "\"dropped_replies\":" + std::to_string(c.dropped_replies) + ",";
  out += "\"delayed_replies\":" + std::to_string(c.delayed_replies) + ",";
  out += "\"duplicated_replies\":" + std::to_string(c.duplicated_replies) + ",";
  out += "\"superseded_replies\":" + std::to_string(c.superseded_replies) + ",";
  out += "\"filter_rebuilds\":" + std::to_string(c.filter_rebuilds);
  out += "},";
  out += "\"initial_distance\":" + util::json_number(st.initial_distance) + ",";
  out += "\"max_distance\":" + util::json_number(st.max_distance) + ",";
  out += "\"nonfinite\":" + std::string(st.nonfinite ? "true" : "false") + ",";
  out += "\"nonfinite_round\":" + std::to_string(st.nonfinite_round);
  out += "}";
  return out;
}

JobCheckpoint checkpoint_from_json(const std::string& text) {
  const util::JsonValue doc = util::json_parse(text);
  REDOPT_REQUIRE(doc.kind == util::JsonValue::Kind::kObject,
                 "checkpoint: expected a JSON object");

  JobCheckpoint ck;
  chaos::RoundState& st = ck.state;
  bool saw_spec = false, saw_next_round = false, saw_x = false, saw_history = false;
  bool saw_pending = false, saw_counters = false, saw_initial = false, saw_max = false;
  bool saw_nonfinite = false, saw_nonfinite_round = false;

  // The spec member must parse first (vector dimensions are checked
  // against it), so pre-scan for it before walking the rest.
  const util::JsonValue* spec_value = doc.find("spec");
  REDOPT_REQUIRE(spec_value != nullptr, "checkpoint: missing member: spec");
  ck.spec = job_spec_from_json(util::json_serialize(*spec_value));
  const std::size_t d = ck.spec.scenario.d;
  const std::size_t rounds = ck.spec.scenario.rounds;

  for (const auto& [key, value] : doc.members) {
    if (key == "spec") {
      saw_spec = true;  // parsed above
    } else if (key == "next_round") {
      st.next_round = static_cast<std::size_t>(
          value.as_int(0, static_cast<std::int64_t>(rounds)));
      saw_next_round = true;
    } else if (key == "x") {
      st.x = vector_from(value, d, "x");
      saw_x = true;
    } else if (key == "history") {
      const auto& items = value.as_array();
      REDOPT_REQUIRE(!items.empty(), "checkpoint: history must be non-empty");
      REDOPT_REQUIRE(items.size() <= rounds + 1, "checkpoint: history longer than the run");
      for (const auto& item : items) {
        st.history.push_back(vector_from(item, d, "history entry"));
      }
      saw_history = true;
    } else if (key == "pending") {
      for (const auto& item : value.as_array()) {
        REDOPT_REQUIRE(item.kind == util::JsonValue::Kind::kObject,
                       "checkpoint: pending entry must be an object");
        chaos::PendingReply reply;
        bool saw_agent = false, saw_emitted = false, saw_deliver = false, saw_payload = false;
        for (const auto& [rkey, rvalue] : item.members) {
          if (rkey == "agent") {
            reply.agent = static_cast<std::size_t>(
                rvalue.as_int(0, static_cast<std::int64_t>(ck.spec.scenario.n) - 1));
            saw_agent = true;
          } else if (rkey == "emitted") {
            reply.emitted = static_cast<std::size_t>(
                rvalue.as_int(0, static_cast<std::int64_t>(rounds) - 1));
            saw_emitted = true;
          } else if (rkey == "deliver_at") {
            reply.deliver_at = static_cast<std::size_t>(
                rvalue.as_int(0, std::numeric_limits<std::int64_t>::max()));
            saw_deliver = true;
          } else if (rkey == "payload") {
            reply.payload = vector_from(rvalue, d, "pending payload");
            saw_payload = true;
          } else {
            REDOPT_REQUIRE(false, "checkpoint: unknown pending member: " + rkey);
          }
        }
        REDOPT_REQUIRE(saw_agent && saw_emitted && saw_deliver && saw_payload,
                       "checkpoint: pending entry missing a member");
        REDOPT_REQUIRE(reply.deliver_at > reply.emitted,
                       "checkpoint: pending reply must deliver after emission");
        st.pending.push_back(std::move(reply));
      }
      saw_pending = true;
    } else if (key == "counters") {
      REDOPT_REQUIRE(value.kind == util::JsonValue::Kind::kObject,
                     "checkpoint: counters must be an object");
      for (const auto& [ckey, cvalue] : value.members) {
        if (ckey == "byzantine_replies") {
          st.counters.byzantine_replies = uint_from(cvalue, ckey.c_str());
        } else if (ckey == "crashed_absences") {
          st.counters.crashed_absences = uint_from(cvalue, ckey.c_str());
        } else if (ckey == "stale_replies") {
          st.counters.stale_replies = uint_from(cvalue, ckey.c_str());
        } else if (ckey == "dropped_replies") {
          st.counters.dropped_replies = uint_from(cvalue, ckey.c_str());
        } else if (ckey == "delayed_replies") {
          st.counters.delayed_replies = uint_from(cvalue, ckey.c_str());
        } else if (ckey == "duplicated_replies") {
          st.counters.duplicated_replies = uint_from(cvalue, ckey.c_str());
        } else if (ckey == "superseded_replies") {
          st.counters.superseded_replies = uint_from(cvalue, ckey.c_str());
        } else if (ckey == "filter_rebuilds") {
          st.counters.filter_rebuilds = uint_from(cvalue, ckey.c_str());
        } else {
          REDOPT_REQUIRE(false, "checkpoint: unknown counter: " + ckey);
        }
      }
      saw_counters = true;
    } else if (key == "initial_distance") {
      st.initial_distance = value.as_number();
      saw_initial = true;
    } else if (key == "max_distance") {
      st.max_distance = value.as_number();
      saw_max = true;
    } else if (key == "nonfinite") {
      st.nonfinite = value.as_bool();
      saw_nonfinite = true;
    } else if (key == "nonfinite_round") {
      st.nonfinite_round = static_cast<std::size_t>(
          value.as_int(0, std::numeric_limits<std::int64_t>::max()));
      saw_nonfinite_round = true;
    } else {
      REDOPT_REQUIRE(false, "checkpoint: unknown member: " + key);
    }
  }

  REDOPT_REQUIRE(saw_spec && saw_next_round && saw_x && saw_history && saw_pending &&
                     saw_counters && saw_initial && saw_max && saw_nonfinite &&
                     saw_nonfinite_round,
                 "checkpoint: missing a required member");
  REDOPT_REQUIRE(st.history.front() == st.x,
                 "checkpoint: history front must equal the current iterate");
  // Pending replies must be ones the round kernel could have left in
  // flight: emitted in a completed round, delayed by at most the
  // channel's max_delay, due no earlier than the next round, and listed
  // in delivery order.  A forged future `emitted` would otherwise beat
  // a genuine delayed reply in the freshest-reply dedup.
  const std::size_t max_delay = ck.spec.scenario.channel.max_delay;
  for (std::size_t k = 0; k < st.pending.size(); ++k) {
    const chaos::PendingReply& reply = st.pending[k];
    REDOPT_REQUIRE(reply.emitted < st.next_round,
                   "checkpoint: pending reply emitted in a round not yet run");
    REDOPT_REQUIRE(reply.deliver_at - reply.emitted <= max_delay,
                   "checkpoint: pending reply delayed past the channel's max_delay");
    REDOPT_REQUIRE(reply.deliver_at >= st.next_round,
                   "checkpoint: pending reply delivers in the past");
    REDOPT_REQUIRE(k == 0 || st.pending[k - 1].deliver_at <= reply.deliver_at,
                   "checkpoint: pending replies out of delivery order");
  }
  REDOPT_REQUIRE(std::isfinite(st.initial_distance) && std::isfinite(st.max_distance),
                 "checkpoint: distances must be finite");
  return ck;
}

}  // namespace redopt::serving
