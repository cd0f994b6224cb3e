// perfbench_driver: runs one workload once and writes its raw
// observations (sample arrays, exact work counts, correctness tallies)
// as one flat JSON object.  perfbench/run.py builds this binary, runs it
// in a scratch directory, and turns the observations into metrics.
//
//   perfbench_driver --workload serve_small --seed 1 --seconds 10 \
//       --trace 0 --redoptd PATH --out result.json
//
// All files (daemon state, socket, traces, /proc status snapshots) are
// written relative to the working directory.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "load.h"
#include "probes.h"
#include "telemetry/events.h"
#include "telemetry/span.h"
#include "telemetry/trace_export.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

constexpr const char* kSocket = "d.sock";
constexpr double kWarmupSeconds = 4.0;

/// A flat JSON object of numbers, strings and number arrays.
class Out {
 public:
  void num(const std::string& key, double value) { member(key) += redopt::util::json_number(value); }
  void str(const std::string& key, const std::string& value) {
    member(key) += "\"" + redopt::util::json_escape(value) + "\"";
  }
  void arr(const std::string& key, const std::vector<double>& values) {
    std::string& out = member(key);
    out += "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      out += redopt::util::json_number(values[i]);
    }
    out += "]";
  }
  std::string render() const { return text_ + "}\n"; }

 private:
  std::string& member(const std::string& key) {
    text_ += text_.size() > 1 ? ",\n\"" : "\"";
    text_ += redopt::util::json_escape(key) + "\":";
    return text_;
  }
  std::string text_ = "{";
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  REDOPT_REQUIRE(out.good(), "perfbench: cannot write " + path);
}

std::string self_status() {
  std::ifstream in("/proc/self/status");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void put_load(Out& out, const std::string& prefix, const LoadResult& load) {
  out.arr(prefix + "ttr_ms", load.ttr_ms);
  out.arr(prefix + "submit_us", load.submit_us);
  out.arr(prefix + "status_us", load.status_us);
  out.arr(prefix + "result_us", load.result_us);
  out.arr(prefix + "polls", load.polls);
  out.num(prefix + "wall_s", load.wall_s);
  out.num(prefix + "jobs", static_cast<double>(load.completed));
  out.num(prefix + "rounds", static_cast<double>(load.rounds));
}

struct Tally {
  std::size_t attempted = 0, completed = 0, rejected = 0, exceptions = 0, mismatches = 0;
  void add(const LoadResult& load) {
    attempted += load.attempted;
    completed += load.completed;
    rejected += load.rejected;
    exceptions += load.exceptions;
    mismatches += load.mismatches;
  }
};

/// One daemon lifetime under closed-loop load; the status snapshot is
/// taken before shutdown, while the daemon still runs.
LoadResult serve_phase(const Workload& w, const std::string& redoptd, const std::string& tag,
                       const std::string& trace_out, const LoadOptions& options,
                       ManifestOracle& oracle, std::vector<double>* setup_s) {
  // Spawning takes a few milliseconds, so set-up is sampled many times.
  const std::size_t spawns = setup_s != nullptr ? 15 : 1;
  LoadResult load;
  for (std::size_t i = 0; i < spawns; ++i) {
    const std::string state = "state-" + tag + "-" + std::to_string(i);
    const bool last = i + 1 == spawns;
    DaemonProcess daemon(redoptd, kSocket, state, last ? trace_out : "");
    const double ready_s = daemon.wait_ready();
    if (setup_s != nullptr) setup_s->push_back(ready_s);
    if (last) {
      // Untimed warm-up at the same load: a daemon fresh on an idle disk
      // writes its first checkpoints measurably faster than under steady
      // load, and the timed phase should see the steady state.
      LoadOptions warm = options;
      warm.seconds = kWarmupSeconds;
      warm.min_jobs = 0;
      warm.exact_jobs = 0;
      const LoadResult warm_load = run_load(w, kSocket, warm, oracle);
      REDOPT_REQUIRE(warm_load.completed == warm_load.attempted,
                     "perfbench: a warm-up job failed or mismatched");
      LoadOptions timed = options;
      timed.first_job = warm_load.attempted;
      load = run_load(w, kSocket, timed, oracle);
      write_file("redoptd-" + tag + ".status", daemon.proc_status());
    }
    daemon.shutdown();
    fs::remove_all(state);
  }
  return load;
}

/// Runs sessions round-robin over the workload's fixed and churn
/// scenarios for @p seconds (at least one of each), checking each against
/// its reference trace.
struct SessionPhase {
  std::vector<double> ttr_ms;
  std::size_t sessions = 0, rounds = 0, mismatches = 0;
  double wall_s = 0.0;
};
SessionPhase session_phase(const Workload& w, double seconds,
                           const std::vector<SessionRun>& reference) {
  SessionPhase phase;
  const redopt::util::Stopwatch clock;
  while (phase.sessions < 2 || clock.elapsed_seconds() < seconds) {
    const std::size_t index = phase.sessions % 2;
    const redopt::util::Stopwatch one;
    const SessionRun run = run_session(w, index);
    phase.ttr_ms.push_back(one.elapsed_ms());
    ++phase.sessions;
    phase.rounds += run.rounds;
    if (!same_trace(run.estimates, reference[index].estimates)) ++phase.mismatches;
  }
  phase.wall_s = clock.elapsed_seconds();
  return phase;
}

/// Renders the global span log recorded while @p fn ran.
template <typename Fn>
std::uint64_t traced(const std::string& trace_path, Fn&& fn) {
  auto& log = redopt::telemetry::span_log();
  log.clear();
  redopt::telemetry::set_enabled(true);
  fn();
  redopt::telemetry::set_enabled(false);
  redopt::telemetry::TraceTrack track;
  track.name = "perfbench_driver";
  track.spans = &log.spans();
  track.instants = &log.instants();
  write_file(trace_path, redopt::telemetry::render_chrome_trace({track}));
  const std::uint64_t dropped = log.dropped();
  log.clear();
  return dropped;
}

int run(int argc, char** argv) {
  const redopt::util::Cli cli(argc, argv,
                              {"workload", "seed", "seconds", "trace", "redoptd", "out"});
  const std::string name = cli.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 10.0);
  const bool trace = cli.get_int("trace", 0) != 0;
  const std::string redoptd = cli.get_string("redoptd", "");
  const std::string out_path = cli.get_string("out", "result.json");
  REDOPT_REQUIRE(!redoptd.empty(), "pass --redoptd PATH");

  Workload w = make_workload(name, seed);
  Out out;
  out.str("workload", name);
  Tally tally;
  std::vector<double> setup_s;
  std::uint64_t dropped = 0;
  std::vector<SessionRun> reference;

  LoadOptions options;
  options.seconds = seconds;
  options.min_jobs = w.min_jobs;
  ManifestOracle oracle(w);

  if (w.primary == Primary::kServing) {
    const LoadResult load = serve_phase(w, redoptd, "main", "", options, oracle, &setup_s);
    tally.add(load);
    put_load(out, "", load);
    out.str("rss_status", "redoptd-main.status");
    reference = {run_session(w, 0), run_session(w, 1)};
    if (trace) {
      const LoadResult traced_load =
          serve_phase(w, redoptd, "traced", "daemon-trace.json", options, oracle, nullptr);
      tally.add(traced_load);
      out.num("traced.wall_s", traced_load.wall_s);
      out.num("traced.rounds", static_cast<double>(traced_load.rounds));
      dropped += traced("session-trace.json", [&] {
        for (int rep = 0; rep < 2; ++rep) {
          for (std::size_t index = 0; index < 2; ++index) {
            if (!same_trace(run_session(w, index).estimates, reference[index].estimates)) {
              ++tally.mismatches;
            }
          }
        }
      });
    }
  } else {
    // Set-up: build the workload's scenarios and run one untimed warm-up
    // of each session; the last warm-up is every later session's reference.
    for (int rep = 0; rep < 3; ++rep) {
      const redopt::util::Stopwatch clock;
      w = make_workload(name, seed);
      std::vector<SessionRun> warm = {run_session(w, 0), run_session(w, 1)};
      setup_s.push_back(clock.elapsed_seconds());
      for (std::size_t i = 0; i < warm.size() && !reference.empty(); ++i) {
        if (!same_trace(warm[i].estimates, reference[i].estimates)) ++tally.mismatches;
      }
      reference = std::move(warm);
    }
    const SessionPhase phase = session_phase(w, seconds, reference);
    write_file("driver.status", self_status());
    out.str("rss_status", "driver.status");
    out.arr("ttr_ms", phase.ttr_ms);
    out.num("wall_s", phase.wall_s);
    out.num("jobs", static_cast<double>(phase.sessions));
    out.num("rounds", static_cast<double>(phase.rounds));
    tally.attempted += phase.sessions;
    tally.completed += phase.sessions - phase.mismatches;
    tally.mismatches += phase.mismatches;
    if (trace) {
      SessionPhase traced_phase;
      dropped += traced("session-trace.json",
                        [&] { traced_phase = session_phase(w, seconds, reference); });
      tally.mismatches += traced_phase.mismatches;
      out.num("traced.wall_s", traced_phase.wall_s);
      out.num("traced.rounds", static_cast<double>(traced_phase.rounds));
      // The serving layers on this workload's own job stream: a fixed
      // batch, untraced for the client view, then traced for the daemon's.
      LoadOptions probe = options;
      probe.exact_jobs = w.fixed_jobs;
      const LoadResult client_view = serve_phase(w, redoptd, "probe", "", probe, oracle, nullptr);
      tally.add(client_view);
      put_load(out, "probe.", client_view);
      tally.add(serve_phase(w, redoptd, "traced", "daemon-trace.json", probe, oracle, nullptr));
    }
  }
  out.arr("setup_s", setup_s);

  // Exact work counts, printed with every run.
  const ReplayStats replay = replay_serving(w, "state-replay");
  out.num("count.serving.ckpt_bytes_per_slice",
          static_cast<double>(replay.ckpt_bytes) / static_cast<double>(replay.slices - replay.jobs));
  out.num("count.serving.slices_per_job",
          static_cast<double>(replay.slices) / static_cast<double>(replay.jobs));
  out.num("count.serving.restacks", static_cast<double>(replay.restacks));
  const SessionRun& fixed = reference.at(0);
  const double exchanges = static_cast<double>(fixed.transport.exchanges);
  out.num("count.transport.bytes_per_round",
          static_cast<double>(fixed.transport.bytes_on_wire) / exchanges);
  out.num("count.transport.frames_per_round",
          static_cast<double>(fixed.transport.frames_delivered) / exchanges);
  out.num("count.transport.reduce_depth",
          static_cast<double>(fixed.transport.reduce_rounds) / exchanges);
  out.num("count.elastic.filter_rebuilds", static_cast<double>(reference.at(1).filter_rebuilds));

  if (trace) {
    out.arr("replay.admit_ms", replay.admit_ms);
    out.arr("replay.slice_us", replay.slice_us);
    out.arr("replay.ckpt_serialize_us", replay.ckpt_serialize_us);
    out.arr("replay.ckpt_write_us", replay.ckpt_write_us);
    out.arr("replay.manifest_us", replay.manifest_us);
    out.arr("replay.materialize_ms", replay.materialize_ms);
    out.arr("replay.restack_ms", replay.restack_ms);
    out.num("replay.slice_total_us", replay.slice_total_us);
    out.num("replay.ckpt_total_us", replay.ckpt_total_us);
    const LayerProbes probes = probe_layers(w);
    out.arr("probe.executor_round_us", probes.executor_round_us);
    out.arr("probe.gradient_us", probes.gradient_us);
    out.arr("probe.filter_cge_us", probes.filter_cge_us);
    out.arr("probe.filter_cwtm_us", probes.filter_cwtm_us);
    out.arr("probe.filter_krum_us", probes.filter_krum_us);
    out.arr("probe.codec_us", probes.codec_us);
    out.num("span_dropped", static_cast<double>(dropped));
  }

  out.num("attempted", static_cast<double>(tally.attempted));
  out.num("completed", static_cast<double>(tally.completed));
  out.num("rejected", static_cast<double>(tally.rejected));
  out.num("exceptions", static_cast<double>(tally.exceptions));
  out.num("mismatches", static_cast<double>(tally.mismatches));
  write_file(out_path, out.render());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
