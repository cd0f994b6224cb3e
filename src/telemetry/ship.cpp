#include "telemetry/ship.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <string_view>
#include <utility>
#include <variant>

#include "util/error.h"
#include "util/json.h"

namespace redopt::telemetry {

namespace {

template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const std::to_chars_result written = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, written.ptr);
}

void append_value(std::string& out, const Value& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    append_int(out, *i);
  } else if (const auto* u = std::get_if<std::uint64_t>(&value)) {
    append_int(out, *u);
  } else if (const auto* d = std::get_if<double>(&value)) {
    util::append_json_number(out, *d);
  } else if (const auto* b = std::get_if<bool>(&value)) {
    out += *b ? "true" : "false";
  } else {
    util::append_json_string(out, std::get<std::string>(value));
  }
}

void append_attrs(std::string& out, const std::vector<std::pair<std::string, Value>>& attrs) {
  out += "\"attrs\":{";
  bool first = true;
  for (const auto& [key, value] : attrs) {
    if (!first) out += ',';
    first = false;
    util::append_json_string(out, key);
    out += ':';
    append_value(out, value);
  }
  out += '}';
}

void append_number_array(std::string& out, const char* key, const std::vector<double>& values) {
  out += '"';
  out += key;
  out += "\":[";
  bool first = true;
  for (double v : values) {
    if (!first) out += ',';
    first = false;
    util::append_json_number(out, v);
  }
  out += ']';
}

void append_count_array(std::string& out, const char* key,
                        const std::vector<std::uint64_t>& values) {
  out += '"';
  out += key;
  out += "\":[";
  bool first = true;
  for (std::uint64_t v : values) {
    if (!first) out += ',';
    first = false;
    append_int(out, v);
  }
  out += ']';
}

/// The histogram value members (everything that depends on the observed
/// data, as opposed to the registered layout).
void append_histogram_values(std::string& out, const MetricValue& m) {
  append_count_array(out, "buckets", m.bucket_counts);
  out += ",\"overflow\":";
  append_int(out, m.overflow_count);
  out += ",\"count\":";
  append_int(out, m.count);
  out += ",\"sum\":";
  util::append_json_number(out, m.sum);
  if (m.count > 0) {
    out += ",\"min\":";
    util::append_json_number(out, m.min);
    out += ",\"max\":";
    util::append_json_number(out, m.max);
  }
}

void append_metric(std::string& out, const MetricValue& m) {
  const bool unstable = m.determinism == Determinism::kUnstable;
  out += "{\"name\":";
  util::append_json_string(out, m.name);
  out += ",\"kind\":\"";
  switch (m.kind) {
    case MetricValue::Kind::kCounter:
      out += unstable ? "counter\",\"nd\":{\"value\":" : "counter\",\"value\":";
      append_int(out, m.counter);
      if (unstable) out += '}';
      break;
    case MetricValue::Kind::kGauge:
      out += unstable ? "gauge\",\"nd\":{\"value\":" : "gauge\",\"value\":";
      util::append_json_number(out, m.gauge);
      if (unstable) out += '}';
      break;
    case MetricValue::Kind::kHistogram:
      out += "histogram\",";
      append_number_array(out, "bounds", m.upper_bounds);
      out += unstable ? ",\"nd\":{" : ",";
      append_histogram_values(out, m);
      if (unstable) out += '}';
      break;
  }
  out += '}';
}

void append_span(std::string& out, const SpanRecord& span) {
  out += "{\"id\":";
  append_int(out, span.id);
  out += ",\"parent\":";
  append_int(out, span.parent);
  out += ",\"name\":";
  util::append_json_string(out, span.name);
  out += ',';
  append_attrs(out, span.attributes);
  out += span.closed ? ",\"closed\":true" : ",\"closed\":false";
  out += ",\"nd\":{\"start_s\":";
  util::append_json_number(out, span.start_s);
  out += ",\"dur_s\":";
  util::append_json_number(out, span.duration_s);
  out += "}}";
}

void append_instant(std::string& out, const InstantRecord& instant) {
  out += "{\"span\":";
  append_int(out, instant.span);
  out += ",\"name\":";
  util::append_json_string(out, instant.name);
  out += ',';
  append_attrs(out, instant.attributes);
  if (instant.determinism == Determinism::kUnstable) out += ",\"unstable\":true";
  out += ",\"nd\":{\"at_s\":";
  util::append_json_number(out, instant.at_s);
  out += "}}";
}

/// Appends one island document.  The parts are taken by reference, so a
/// live SpanLog serializes without being copied into an AgentSnapshot.
void append_island(std::string& out, std::uint32_t agent, std::uint64_t spans_dropped,
                   const Snapshot& metrics, const std::vector<SpanRecord>& spans,
                   const std::vector<InstantRecord>& instants) {
  // Records run about 130 bytes per span, 100 per instant and up to a
  // few hundred per metric; reserving that up front makes a typical
  // island one allocation.
  out.reserve(out.size() + 64 + 256 * metrics.size() + 160 * spans.size() +
              112 * instants.size());
  out += "{\"v\":1,\"agent\":";
  append_int(out, agent);
  out += ",\"spans_dropped\":";
  append_int(out, spans_dropped);
  out += ",\"metrics\":[";
  bool first = true;
  for (const MetricValue& m : metrics) {
    if (!first) out += ',';
    first = false;
    append_metric(out, m);
  }
  out += "],\"spans\":[";
  first = true;
  for (const SpanRecord& span : spans) {
    if (!first) out += ',';
    first = false;
    append_span(out, span);
  }
  out += "],\"instants\":[";
  first = true;
  for (const InstantRecord& instant : instants) {
    if (!first) out += ',';
    first = false;
    append_instant(out, instant);
  }
  out += "]}";
}

// ---------------------------------------------------------------- parsing

/// Reads one island document straight into an AgentSnapshot, pulling
/// tokens from util::JsonReader without building a DOM.  Members must
/// appear exactly in the order append_island() writes them, so a
/// missing, duplicated, reordered or unknown member is an error.
class IslandReader {
 public:
  explicit IslandReader(std::string_view text) : json_(text) {}

  AgentSnapshot read() {
    AgentSnapshot snapshot;
    json_.begin_object();
    member("v");
    json_.read_number().as_int(1, 1);  // the only version
    member("agent");
    snapshot.agent = static_cast<std::uint32_t>(
        json_.read_number().as_int(0, std::numeric_limits<std::uint32_t>::max()));
    member("spans_dropped");
    snapshot.spans_dropped = read_u64();
    member("metrics");
    json_.begin_array();
    while (json_.next_item()) snapshot.metrics.push_back(read_metric());
    member("spans");
    json_.begin_array();
    while (json_.next_item()) snapshot.spans.push_back(read_span());
    member("instants");
    json_.begin_array();
    while (json_.next_item()) snapshot.instants.push_back(read_instant());
    end_object();
    json_.finish();
    return snapshot;
  }

 private:
  /// True when the next member of the current object is @p name, which
  /// is then consumed; otherwise the member (or the closing '}') stays
  /// pending for the next call.
  bool optional(const char* name) {
    if (!pending_) {
      has_key_ = json_.next_member(key_);
      pending_ = true;
    }
    if (!has_key_ || key_ != name) return false;
    pending_ = false;
    return true;
  }

  void member(const char* name) {
    REDOPT_REQUIRE(optional(name),
                   std::string("telemetry blob: expected member \"") + name + "\"");
  }

  void end_object() {
    if (!pending_) has_key_ = json_.next_member(key_);
    pending_ = false;
    REDOPT_REQUIRE(!has_key_, "telemetry blob: unexpected member \"" + std::string(key_) + "\"");
  }

  std::uint64_t read_u64() {
    return static_cast<std::uint64_t>(
        json_.read_number().as_int(0, std::numeric_limits<std::int64_t>::max()));
  }

  double read_double() { return json_.read_number().value; }

  Value read_attr_value() {
    switch (json_.peek()) {
      case '"':
        return json_.read_string();
      case 't':
      case 'f':
        return json_.read_bool();
      case 'n':
        // json_number spells non-finite doubles as null.
        json_.read_null();
        return std::numeric_limits<double>::quiet_NaN();
      case '{':
      case '[':
        REDOPT_REQUIRE(false, "telemetry blob: attribute value must be a scalar");
        return false;  // unreachable
      default: {
        const util::JsonNumber number = json_.read_number();
        if (number.has_integer) return number.integer;
        return number.value;
      }
    }
  }

  std::vector<std::pair<std::string, Value>> read_attrs() {
    member("attrs");
    std::vector<std::pair<std::string, Value>> attrs;
    json_.begin_object();
    std::string_view key;
    while (json_.next_member(key)) {
      std::string name(key);  // the view does not outlive the next string
      Value value = read_attr_value();
      attrs.emplace_back(std::move(name), std::move(value));
    }
    return attrs;
  }

  void read_histogram_values(MetricValue& m) {
    member("buckets");
    json_.begin_array();
    while (json_.next_item()) m.bucket_counts.push_back(read_u64());
    REDOPT_REQUIRE(m.bucket_counts.size() == m.upper_bounds.size(),
                   "telemetry blob: histogram bucket/bound count mismatch");
    member("overflow");
    m.overflow_count = read_u64();
    member("count");
    m.count = read_u64();
    member("sum");
    m.sum = read_double();
    if (m.count > 0) {
      member("min");
      m.min = read_double();
      member("max");
      m.max = read_double();
    }
  }

  MetricValue read_metric() {
    MetricValue m;
    json_.begin_object();
    member("name");
    m.name = json_.read_string();
    member("kind");
    const std::string kind = json_.read_string();
    if (kind == "counter") {
      m.kind = MetricValue::Kind::kCounter;
    } else if (kind == "gauge") {
      m.kind = MetricValue::Kind::kGauge;
    } else if (kind == "histogram") {
      m.kind = MetricValue::Kind::kHistogram;
      member("bounds");
      json_.begin_array();
      while (json_.next_item()) m.upper_bounds.push_back(read_double());
    } else {
      REDOPT_REQUIRE(false, "telemetry blob: unknown metric kind: " + kind);
    }
    // A kUnstable metric's values sit under "nd".
    const bool unstable = optional("nd");
    if (unstable) {
      m.determinism = Determinism::kUnstable;
      json_.begin_object();
    }
    switch (m.kind) {
      case MetricValue::Kind::kCounter:
        member("value");
        m.counter = read_u64();
        break;
      case MetricValue::Kind::kGauge:
        member("value");
        m.gauge = read_double();
        break;
      case MetricValue::Kind::kHistogram:
        read_histogram_values(m);
        break;
    }
    if (unstable) end_object();
    end_object();
    return m;
  }

  SpanRecord read_span() {
    SpanRecord span;
    json_.begin_object();
    member("id");
    span.id = read_u64();
    member("parent");
    span.parent = read_u64();
    member("name");
    span.name = json_.read_string();
    span.attributes = read_attrs();
    member("closed");
    span.closed = json_.read_bool();
    member("nd");
    json_.begin_object();
    member("start_s");
    span.start_s = read_double();
    member("dur_s");
    span.duration_s = read_double();
    end_object();
    end_object();
    return span;
  }

  InstantRecord read_instant() {
    InstantRecord instant;
    json_.begin_object();
    member("span");
    instant.span = read_u64();
    member("name");
    instant.name = json_.read_string();
    instant.attributes = read_attrs();
    if (optional("unstable")) {
      REDOPT_REQUIRE(json_.read_bool(), "telemetry blob: \"unstable\" is written only as true");
      instant.determinism = Determinism::kUnstable;
    }
    member("nd");
    json_.begin_object();
    member("at_s");
    instant.at_s = read_double();
    end_object();
    end_object();
    return instant;
  }

  util::JsonReader json_;
  std::string_view key_;  ///< the last member key read
  bool has_key_ = false;  ///< false when the last next_member() met '}'
  bool pending_ = false;  ///< key_/has_key_ not yet consumed by a match
};

}  // namespace

std::string serialize_agent_snapshot(const AgentSnapshot& snapshot) {
  std::string out;
  append_island(out, snapshot.agent, snapshot.spans_dropped, snapshot.metrics, snapshot.spans,
                snapshot.instants);
  return out;
}

std::string serialize_agent_telemetry(std::uint32_t agent, const AgentTelemetry& telemetry) {
  std::string out;
  append_island(out, agent, telemetry.spans.dropped(), telemetry.registry.snapshot(),
                telemetry.spans.spans(), telemetry.spans.instants());
  return out;
}

AgentSnapshot parse_agent_snapshot(const std::string& json_text) {
  return IslandReader(json_text).read();
}

Snapshot merge_agent_snapshots(const Snapshot& coordinator,
                               const std::vector<AgentSnapshot>& agents) {
  Snapshot merged = coordinator;
  for (const AgentSnapshot& agent : agents) {
    const std::string prefix = "agent." + std::to_string(agent.agent) + ".";
    for (MetricValue m : agent.metrics) {
      m.name = prefix + m.name;
      merged.push_back(std::move(m));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const MetricValue& a, const MetricValue& b) { return a.name < b.name; });
  return merged;
}

std::string render_merged_manifest(const Snapshot& coordinator,
                                   const std::vector<AgentSnapshot>& agents) {
  std::string out = "{\"v\":1,\"coordinator\":{\"metrics\":[";
  bool first = true;
  for (const MetricValue& m : coordinator) {
    if (!first) out += ',';
    first = false;
    append_metric(out, m);
  }
  out += "]},\"agents\":[";
  first = true;
  for (const AgentSnapshot& agent : agents) {
    if (!first) out += ',';
    first = false;
    append_island(out, agent.agent, agent.spans_dropped, agent.metrics, agent.spans,
                  agent.instants);
  }
  out += "]}";
  return out;
}

namespace {

bool is_unstable_element(const util::JsonValue& v) {
  if (v.kind != util::JsonValue::Kind::kObject) return false;
  const util::JsonValue* unstable = v.find("unstable");
  return unstable != nullptr && unstable->kind == util::JsonValue::Kind::kBool &&
         unstable->boolean;
}

void strip_unstable(util::JsonValue& v) {
  if (v.kind == util::JsonValue::Kind::kObject) {
    std::vector<std::pair<std::string, util::JsonValue>> kept;
    kept.reserve(v.members.size());
    for (auto& [key, member] : v.members) {
      if (key == "nd" || key == "ts" || key == "dur") continue;
      strip_unstable(member);
      kept.emplace_back(key, std::move(member));
    }
    v.members = std::move(kept);
  } else if (v.kind == util::JsonValue::Kind::kArray) {
    std::vector<util::JsonValue> kept;
    kept.reserve(v.items.size());
    for (util::JsonValue& item : v.items) {
      if (is_unstable_element(item)) continue;
      strip_unstable(item);
      kept.push_back(std::move(item));
    }
    v.items = std::move(kept);
  }
}

}  // namespace

std::string stable_json_projection(const std::string& json_text) {
  util::JsonValue doc = util::json_parse(json_text);
  strip_unstable(doc);
  return util::json_serialize(doc);
}

}  // namespace redopt::telemetry
