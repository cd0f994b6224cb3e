#include "transport/attribution.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"

namespace redopt::transport {

namespace {

/// Value of counter @p name in a (name-sorted) snapshot; 0 if absent.
std::uint64_t counter_value(const telemetry::Snapshot& metrics, const std::string& name) {
  for (const telemetry::MetricValue& m : metrics) {
    if (m.name == name && m.kind == telemetry::MetricValue::Kind::kCounter) return m.counter;
  }
  return 0;
}

std::string bool_json(bool b) { return b ? "true" : "false"; }

}  // namespace

AttributionBuilder::AttributionBuilder(Topology topology, std::size_t n, std::size_t estimate_dim)
    : topology_(topology), n_(n), estimate_dim_(estimate_dim) {
  REDOPT_REQUIRE(n >= 1, "attribution: need at least one agent");
  agents_.resize(n);
  links_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    agents_[i].agent = static_cast<std::uint32_t>(i);
    links_[i].child = i;
    links_[i].parent = parent_of(topology, i, n);
  }
}

void AttributionBuilder::on_exchange(const std::vector<util::Frame>& frames) {
  ++exchanges_;
  for (const util::Frame& frame : frames) {
    REDOPT_REQUIRE(frame.agent < n_, "attribution: frame from unknown agent");
    AgentAttribution& row = agents_[frame.agent];
    const std::uint64_t wire = util::frame_wire_size(frame);
    ++row.frames_delivered;
    row.bytes_up += wire * frame.hops;
    hops_total_ += frame.hops;
    // A delivered frame crosses its emitter's whole path on both
    // backends (a dead relay loses frames, never shortens them); a short
    // hops field would still balance every byte total below.
    if (frame.hops != depth_of(topology_, frame.agent, n_)) full_paths_ = false;
    // Walk the ancestor chain: the frame crossed its emitter's parent
    // edge, then that node's parent edge, ... — frame.hops edges total.
    std::size_t node = frame.agent;
    for (std::uint64_t h = 0; h < frame.hops && node != kCoordinatorNode; ++h) {
      ++links_[node].frames_up;
      links_[node].bytes_up += wire;
      node = parent_of(topology_, node, n_);
    }
  }
}

void AttributionBuilder::on_fate(std::size_t agent, std::size_t round,
                                 const chaos::RoundFate& fate) {
  REDOPT_REQUIRE(agent < n_, "attribution: fate for unknown agent");
  AgentAttribution& row = agents_[agent];
  ++row.rounds;
  if (!fate.emits) {
    ++row.crashed;
    return;
  }
  if (fate.byzantine) ++row.byzantine;
  if (fate.stale) ++row.stale;
  if (fate.dropped) {
    ++row.dropped;
    return;
  }
  if (fate.duplicated) {
    ++row.duplicated;
    ++row.expected_frames;  // the extra copy lands on time
  }
  if (fate.delay > 0) {
    ++row.delayed;
    delayed_due_[agent].push_back(round + fate.delay);
  } else {
    ++row.expected_frames;
  }
}

void AttributionBuilder::on_superseded(std::uint32_t agent) {
  REDOPT_REQUIRE(agent < n_, "attribution: superseded reply from unknown agent");
  ++agents_[agent].superseded;
}

AttributionReport AttributionBuilder::build(
    const chaos::ScenarioResult& result, const TransportStats& stats,
    const std::vector<telemetry::AgentSnapshot>& shipped) const {
  AttributionReport report;
  report.agents = agents_;
  report.links = links_;
  report.exchanges = exchanges_;
  report.network_messages = exchanges_ * n_ + hops_total_;
  report.stats = stats;

  // A delayed reply only lands if its due round was actually exchanged.
  for (const auto& [agent, dues] : delayed_due_) {
    for (std::uint64_t due : dues) {
      if (due < exchanges_) ++report.agents[agent].expected_frames;
    }
  }

  const std::uint64_t estimate_wire = util::frame_wire_size_for(estimate_dim_);
  std::uint64_t frames_total = 0;
  std::uint64_t bytes_up_total = 0;
  for (const AgentAttribution& row : report.agents) {
    frames_total += row.frames_delivered;
    bytes_up_total += row.bytes_up;
  }
  std::uint64_t link_frames = 0;
  std::uint64_t link_bytes = 0;
  for (LinkAttribution& link : report.links) {
    link.bytes_down = exchanges_ * estimate_wire;
    link_frames += link.frames_up;
    link_bytes += link.bytes_up + link.bytes_down;
  }
  const std::uint64_t bytes_down_total = exchanges_ * n_ * estimate_wire;

  report.frames_reconcile = exchanges_ == stats.exchanges &&
                            frames_total == stats.frames_delivered &&
                            link_frames == hops_total_ && full_paths_;
  report.bytes_reconcile = bytes_up_total + bytes_down_total == stats.bytes_on_wire &&
                           link_bytes == stats.bytes_on_wire;

  std::uint64_t byz = 0, crash = 0, stale = 0, drop = 0, delay = 0, dup = 0, superseded = 0;
  for (const AgentAttribution& row : report.agents) {
    byz += row.byzantine;
    crash += row.crashed;
    stale += row.stale;
    drop += row.dropped;
    delay += row.delayed;
    dup += row.duplicated;
    superseded += row.superseded;
  }
  report.fates_reconcile =
      byz == result.byzantine_replies && crash == result.crashed_absences &&
      stale == result.stale_replies && drop == result.dropped_replies &&
      delay == result.delayed_replies && dup == result.duplicated_replies &&
      superseded == result.superseded_replies;

  // Reconcile every shipped island against the coordinator's replay: the
  // agent recorded its own fates; the coordinator recomputed them from
  // the schedule; they must agree counter for counter.
  report.agents_reconcile = true;
  for (const telemetry::AgentSnapshot& snapshot : shipped) {
    if (snapshot.agent >= n_) {
      report.agents_reconcile = false;
      continue;
    }
    AgentAttribution& row = report.agents[snapshot.agent];
    row.shipped = true;
    row.shipped_frames_emitted = counter_value(snapshot.metrics, "replica.frames_emitted");
    row.counters_match =
        counter_value(snapshot.metrics, "replica.rounds") == row.rounds &&
        counter_value(snapshot.metrics, "replica.byzantine_replies") == row.byzantine &&
        counter_value(snapshot.metrics, "replica.crashed_absences") == row.crashed &&
        counter_value(snapshot.metrics, "replica.stale_replies") == row.stale &&
        counter_value(snapshot.metrics, "replica.dropped_replies") == row.dropped &&
        counter_value(snapshot.metrics, "replica.delayed_replies") == row.delayed &&
        counter_value(snapshot.metrics, "replica.duplicated_replies") == row.duplicated;
    if (!row.counters_match) report.agents_reconcile = false;
  }
  return report;
}

std::string AttributionReport::to_text() const {
  std::ostringstream out;
  out << "fault attribution: " << agents.size() << " agents, " << exchanges << " exchanges, "
      << network_messages << " modeled network messages\n";
  out << "agent  delivered  expected  bytes_up  superseded  byz  crash  stale  drop  delay  dup"
         "  shipped  match\n";
  for (const AgentAttribution& a : agents) {
    out << a.agent << "  " << a.frames_delivered << "  " << a.expected_frames << "  " << a.bytes_up
        << "  " << a.superseded << "  " << a.byzantine << "  " << a.crashed << "  " << a.stale
        << "  " << a.dropped << "  " << a.delayed << "  " << a.duplicated << "  "
        << (a.shipped ? "yes" : "no") << "  "
        << (a.shipped ? (a.counters_match ? "yes" : "NO") : "-") << "\n";
  }
  out << "link  frames_up  bytes_up  bytes_down\n";
  for (const LinkAttribution& l : links) {
    if (l.parent == kCoordinatorNode) {
      out << "coord";
    } else {
      out << l.parent;
    }
    out << "->" << l.child << "  " << l.frames_up << "  " << l.bytes_up << "  " << l.bytes_down
        << "\n";
  }
  out << "totals: frames_delivered=" << stats.frames_delivered
      << " bytes_on_wire=" << stats.bytes_on_wire << " reduce_rounds=" << stats.reduce_rounds
      << "\n";
  out << "reconcile: frames=" << (frames_reconcile ? "ok" : "MISMATCH")
      << " bytes=" << (bytes_reconcile ? "ok" : "MISMATCH")
      << " fates=" << (fates_reconcile ? "ok" : "MISMATCH")
      << " agents=" << (agents_reconcile ? "ok" : "MISMATCH") << " -> "
      << (ok() ? "ok" : "MISMATCH") << "\n";
  return out.str();
}

std::string AttributionReport::to_json() const {
  std::ostringstream out;
  out << "{\"v\":1,\"exchanges\":" << exchanges << ",\"network_messages\":" << network_messages;
  out << ",\"stats\":{\"exchanges\":" << stats.exchanges
      << ",\"frames_delivered\":" << stats.frames_delivered
      << ",\"bytes_on_wire\":" << stats.bytes_on_wire
      << ",\"reduce_rounds\":" << stats.reduce_rounds << "}";
  out << ",\"agents\":[";
  for (std::size_t i = 0; i < agents.size(); ++i) {
    const AgentAttribution& a = agents[i];
    if (i > 0) out << ",";
    out << "{\"agent\":" << a.agent << ",\"frames_delivered\":" << a.frames_delivered
        << ",\"expected_frames\":" << a.expected_frames << ",\"bytes_up\":" << a.bytes_up
        << ",\"superseded\":" << a.superseded << ",\"rounds\":" << a.rounds
        << ",\"byzantine\":" << a.byzantine << ",\"crashed\":" << a.crashed
        << ",\"stale\":" << a.stale << ",\"dropped\":" << a.dropped << ",\"delayed\":" << a.delayed
        << ",\"duplicated\":" << a.duplicated << ",\"shipped\":" << bool_json(a.shipped)
        << ",\"shipped_frames_emitted\":" << a.shipped_frames_emitted
        << ",\"counters_match\":" << bool_json(a.counters_match) << "}";
  }
  out << "],\"links\":[";
  for (std::size_t i = 0; i < links.size(); ++i) {
    const LinkAttribution& l = links[i];
    if (i > 0) out << ",";
    out << "{\"parent\":";
    if (l.parent == kCoordinatorNode) {
      out << -1;
    } else {
      out << l.parent;
    }
    out << ",\"child\":" << l.child << ",\"frames_up\":" << l.frames_up
        << ",\"bytes_up\":" << l.bytes_up << ",\"bytes_down\":" << l.bytes_down << "}";
  }
  out << "],\"reconcile\":{\"frames\":" << bool_json(frames_reconcile)
      << ",\"bytes\":" << bool_json(bytes_reconcile) << ",\"fates\":" << bool_json(fates_reconcile)
      << ",\"agents\":" << bool_json(agents_reconcile) << ",\"ok\":" << bool_json(ok()) << "}}";
  return out.str();
}

}  // namespace redopt::transport
