#include "serving/daemon.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/ship.h"
#include "telemetry/span.h"
#include "telemetry/trace_export.h"
#include "util/error.h"
#include "util/frame.h"
#include "util/json.h"
#include "util/stopwatch.h"

namespace redopt::serving {

namespace fs = std::filesystem;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  REDOPT_REQUIRE(in.good(), "cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  REDOPT_REQUIRE(in.good() || in.eof(), "failed reading file: " + path);
  return buffer.str();
}

std::string error_response(const std::string& message) {
  return "{\"ok\":false,\"error\":\"" + util::json_escape(message) + "\"}";
}

}  // namespace

void atomic_write_file(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    REDOPT_REQUIRE(out.good(), "cannot open file for writing: " + tmp);
    out << bytes;
    out.flush();
    REDOPT_REQUIRE(out.good(), "failed writing file: " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  REDOPT_REQUIRE(!ec, "cannot rename " + tmp + " -> " + path + ": " + ec.message());
}

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      scheduler_(options_.scheduler),
      listener_(options_.socket_path) {
  REDOPT_REQUIRE(!options_.state_dir.empty(), "daemon: state_dir must be set");
  std::error_code ec;
  fs::create_directories(options_.state_dir, ec);
  REDOPT_REQUIRE(!ec, "daemon: cannot create state dir " + options_.state_dir);
}

std::string Daemon::checkpoint_path(const std::string& job_id) const {
  return (fs::path(options_.state_dir) / (job_id + ".ckpt.json")).string();
}

std::string Daemon::manifest_path(const std::string& job_id) const {
  return (fs::path(options_.state_dir) / (job_id + ".manifest.json")).string();
}

std::size_t Daemon::recover() {
  // Sort the checkpoint files so adoption (and hence the round-robin
  // submission order after a restart) is filesystem-independent.
  std::vector<std::string> checkpoint_files;
  for (const auto& entry : fs::directory_iterator(options_.state_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 10 && name.substr(name.size() - 10) == ".ckpt.json") {
      checkpoint_files.push_back(entry.path().string());
    }
  }
  std::sort(checkpoint_files.begin(), checkpoint_files.end());

  std::size_t resumed = 0;
  for (const std::string& path : checkpoint_files) {
    const JobCheckpoint checkpoint = checkpoint_from_json(read_file(path));
    const std::string& job_id = checkpoint.spec.job_id;
    if (fs::exists(manifest_path(job_id))) {
      // The crash landed between manifest write and checkpoint removal:
      // the job is complete, only the cleanup is owed.
      std::error_code ec;
      fs::remove(path, ec);
      continue;
    }
    started_at_[job_id] = uptime_.elapsed_seconds();
    scheduler_.adopt(checkpoint);
    ++resumed;
  }
  return resumed;
}

void Daemon::persist(const JobCheckpoint& checkpoint, bool finished) {
  const std::string& job_id = checkpoint.spec.job_id;
  if (!finished) {
    atomic_write_file(checkpoint_path(job_id), checkpoint.to_json());
    return;
  }
  const chaos::MaterializedScenario* built = scheduler_.built(job_id);
  REDOPT_ASSERT(built != nullptr, "daemon: finished job has no materialized scenario");
  const auto it = started_at_.find(job_id);
  const double wall_s = it == started_at_.end() ? 0.0 : uptime_.elapsed_seconds() - it->second;
  const std::string manifest = job_manifest_json(checkpoint, *built, wall_s);
  // The manifest file carries the stable projection: deterministic
  // bytes, so kill/resume equivalence is a plain file comparison.
  atomic_write_file(manifest_path(job_id), telemetry::stable_json_projection(manifest));
  std::error_code ec;
  fs::remove(checkpoint_path(job_id), ec);
  telemetry::span_instant("serving.manifest", {{"job", telemetry::Value(job_id)}});
  // The manifest now answers `result`; the instance (about n*d*d doubles)
  // would otherwise stay resident for the daemon's lifetime.
  scheduler_.release(job_id);
  started_at_.erase(job_id);
}

std::string Daemon::handle_request(const std::string& request_json) {
  try {
    const util::JsonValue doc = util::json_parse(request_json);
    const std::string op = doc.at("op").as_string();

    if (op == "submit") {
      const util::JsonValue* job = doc.find("job");
      REDOPT_REQUIRE(job != nullptr, "submit: missing member: job");
      const JobSpec spec = job_spec_from_json(util::json_serialize(*job));
      const std::string reason = scheduler_.submit(spec);
      if (!reason.empty()) return error_response(reason);
      started_at_[spec.job_id] = uptime_.elapsed_seconds();
      // Persist the round-0 checkpoint immediately: a daemon killed
      // right after admission still owes the client this job.
      const JobCheckpoint* checkpoint = scheduler_.checkpoint(spec.job_id);
      REDOPT_ASSERT(checkpoint != nullptr, "daemon: admitted job has no checkpoint");
      persist(*checkpoint, false);
      const auto status = scheduler_.status(spec.job_id);
      return "{\"ok\":true,\"job\":\"" + util::json_escape(spec.job_id) + "\",\"state\":\"" +
             to_string(status->state) + "\"}";
    }

    if (op == "status") {
      const std::string job_id = doc.at("job").as_string();
      const auto status = scheduler_.status(job_id);
      if (!status.has_value()) {
        if (fs::exists(manifest_path(job_id))) {
          return "{\"ok\":true,\"job\":\"" + util::json_escape(job_id) +
                 "\",\"state\":\"done\"}";
        }
        return error_response("unknown job: " + job_id);
      }
      return "{\"ok\":true,\"job\":\"" + util::json_escape(job_id) + "\",\"state\":\"" +
             to_string(status->state) +
             "\",\"rounds_done\":" + std::to_string(status->rounds_done) +
             ",\"rounds_total\":" + std::to_string(status->rounds_total) + "}";
    }

    if (op == "result") {
      const std::string job_id = doc.at("job").as_string();
      const std::string path = manifest_path(job_id);
      if (!fs::exists(path)) {
        if (scheduler_.status(job_id).has_value()) {
          return error_response("job not finished: " + job_id);
        }
        return error_response("unknown job: " + job_id);
      }
      return "{\"ok\":true,\"job\":\"" + util::json_escape(job_id) +
             "\",\"manifest\":" + read_file(path) + "}";
    }

    if (op == "list") {
      std::string out = "{\"ok\":true,\"jobs\":[";
      bool first = true;
      for (const JobStatus& status : scheduler_.list()) {
        if (!first) out += ",";
        first = false;
        out += "{\"job\":\"" + util::json_escape(status.job_id) + "\",\"state\":\"" +
               to_string(status.state) +
               "\",\"rounds_done\":" + std::to_string(status.rounds_done) +
               ",\"rounds_total\":" + std::to_string(status.rounds_total) + "}";
      }
      out += "]}";
      return out;
    }

    if (op == "shutdown") {
      shutdown_ = true;
      return "{\"ok\":true,\"shutting_down\":true}";
    }

    return error_response("unknown op: " + op);
  } catch (const PreconditionError& e) {
    return error_response(e.what());
  }
}

bool Daemon::poll_once() {
  bool worked = false;

  // Only block in accept() when there is no job to run: with work
  // pending, a zero-timeout poll keeps the loop CPU-bound on slices
  // instead of sleeping the accept quantum between every slice.
  const int accept_timeout = scheduler_.idle() ? options_.accept_timeout_ms : 0;
  if (auto stream = listener_.accept(accept_timeout); stream.has_value()) {
    telemetry::ScopedSpan request_span("serving.request");
    util::Frame request;
    const auto status =
        stream->read_frame(&request, options_.io_timeout_ms, options_.io_max_retries);
    if (status == transport::UdsIoStatus::kOk) {
      if (request.type == util::FrameType::kShutdown) {
        shutdown_ = true;
        util::Frame reply;
        reply.type = util::FrameType::kShutdown;
        reply.agent = util::kCoordinatorAgent;
        stream->write_frame(reply);
      } else if (request.type == util::FrameType::kTelemetry) {
        std::string response;
        try {
          response = handle_request(util::unpack_blob(request.payload));
        } catch (const PreconditionError& e) {
          response = error_response(e.what());
        }
        util::Frame reply;
        reply.type = util::FrameType::kTelemetry;
        reply.agent = util::kCoordinatorAgent;
        reply.payload = util::pack_blob(response);
        stream->write_frame(reply);
      } else {
        telemetry::registry().counter("serving.bad_frames").inc();
      }
      worked = true;
    } else {
      telemetry::registry().counter("serving.bad_frames").inc();
    }
  }

  if (!shutdown_) {
    const std::string stepped = scheduler_.step(
        [this](const JobCheckpoint& checkpoint, bool finished) { persist(checkpoint, finished); });
    worked = worked || !stepped.empty();
  }
  return worked;
}

void Daemon::serve() {
  telemetry::ScopedSpan serve_span("serving.daemon");
  while (!shutdown_) {
    poll_once();
  }
  if (!options_.trace_out.empty()) write_trace();
}

void Daemon::write_trace() const {
  const auto& log = telemetry::span_log();
  telemetry::TraceTrack track;
  track.pid = 0;
  track.name = "redoptd";
  track.spans = &log.spans();
  track.instants = &log.instants();
  atomic_write_file(options_.trace_out, telemetry::render_chrome_trace({track}));
}

}  // namespace redopt::serving
