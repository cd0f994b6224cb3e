#include "load.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "serving/client.h"
#include "serving/runner.h"
#include "telemetry/ship.h"
#include "util/error.h"
#include "util/json.h"

extern char** environ;

namespace perfbench {

namespace serving = redopt::serving;
using Clock = std::chrono::steady_clock;

namespace {

double us_since(Clock::time_point begin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - begin).count();
}

bool response_ok(const std::string& response) {
  return redopt::util::json_parse(response).at("ok").as_bool();
}

}  // namespace

DaemonProcess::DaemonProcess(const std::string& binary, const std::string& socket,
                             const std::string& state_dir, const std::string& trace_out)
    : socket_(socket) {
  std::vector<std::string> args = {binary,          "--serve",      "--socket", socket,
                                   "--state-dir",   state_dir,      "--max-jobs", "8",
                                   "--slice-rounds", "16"};
  if (!trace_out.empty()) {
    args.push_back("--trace-out");
    args.push_back(trace_out);
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  std::vector<std::string> env_storage = {"REDOPT_THREADS=1"};
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::string(*e).rfind("REDOPT_THREADS=", 0) != 0) env_storage.emplace_back(*e);
  }
  std::vector<char*> envp;
  for (std::string& e : env_storage) envp.push_back(e.data());
  envp.push_back(nullptr);
  const int log_fd = ::open("daemon.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
  REDOPT_REQUIRE(log_fd >= 0, "perfbench: cannot open daemon.log");

  since_fork_.reset();
  pid_ = ::fork();
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(log_fd);
  REDOPT_REQUIRE(pid_ > 0, "perfbench: fork failed");
}

DaemonProcess::~DaemonProcess() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
}

double DaemonProcess::wait_ready() {
  // Client's own connect retry sleeps 20 ms slices; poll finer so the
  // set-up time is not quantized by it.
  for (;;) {
    try {
      if (response_ok(serving::Client(socket_, 0).list())) return since_fork_.elapsed_seconds();
    } catch (const redopt::PreconditionError&) {
    }
    int status = 0;
    REDOPT_REQUIRE(::waitpid(pid_, &status, WNOHANG) == 0,
                   "perfbench: redoptd exited during start-up (see daemon.log)");
    REDOPT_REQUIRE(since_fork_.elapsed_seconds() < 30.0, "perfbench: redoptd never answered");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::string DaemonProcess::proc_status() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void DaemonProcess::shutdown() {
  serving::Client(socket_).shutdown_daemon();
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  REDOPT_REQUIRE(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                 "perfbench: redoptd exited abnormally (see daemon.log)");
}

std::string ManifestOracle::expected(const serving::JobSpec& spec, std::size_t k) {
  const std::size_t index = k % workload_.job_pool.size();
  const std::string pool_id = "pool-" + std::to_string(index);
  auto it = replays_.find(index);
  if (it == replays_.end()) {
    auto scheduler = std::make_unique<serving::Scheduler>(serving::SchedulerOptions{});
    serving::JobSpec replay = spec;
    replay.job_id = pool_id;
    const std::string reason = scheduler->submit(replay);
    REDOPT_REQUIRE(reason.empty(), "perfbench: replay admission failed: " + reason);
    while (!scheduler->idle()) scheduler->step({});
    it = replays_.emplace(index, std::move(scheduler)).first;
  }
  // The trajectory derives from the scenario seed alone, so the replayed
  // final checkpoint renders any job id's manifest.
  serving::JobCheckpoint final_ck = *it->second->finished_checkpoint(pool_id);
  final_ck.spec.job_id = spec.job_id;
  return redopt::telemetry::stable_json_projection(
      serving::job_manifest_json(final_ck, *it->second->built(pool_id), 0.0));
}

LoadResult run_load(const Workload& workload, const std::string& socket,
                    const LoadOptions& options, ManifestOracle& oracle) {
  struct Fetched {
    std::size_t k = 0;
    std::string response;
  };
  std::mutex mutex;  // guards issued, the merged result and fetched
  std::size_t issued = 0;
  LoadResult result;
  std::vector<Fetched> fetched;

  const Clock::time_point start = Clock::now();
  auto next_job = [&]() -> long {
    const std::lock_guard<std::mutex> lock(mutex);
    if (options.exact_jobs > 0) {
      if (issued >= options.exact_jobs) return -1;
    } else if (issued >= options.min_jobs &&
               std::chrono::duration<double>(Clock::now() - start).count() >= options.seconds) {
      return -1;
    }
    return static_cast<long>(options.first_job + issued++);
  };

  auto lane = [&]() {
    struct Slot {
      bool busy = false;
      std::size_t k = 0;
      std::string id;
      Clock::time_point begin;
      std::size_t polls = 0;
    };
    LoadResult mine;
    std::vector<Fetched> got;
    serving::Client client(socket);
    std::vector<Slot> slots(options.in_flight);
    bool draining = false;
    for (;;) {
      bool any_busy = false;
      for (Slot& slot : slots) {
        try {
          if (!slot.busy) {
            if (draining) continue;
            const long k = next_job();
            if (k < 0) {
              draining = true;
              continue;
            }
            const serving::JobSpec spec = job_spec(workload, static_cast<std::size_t>(k));
            ++mine.attempted;
            const Clock::time_point begin = Clock::now();
            const std::string response = client.submit(spec);
            mine.submit_us.push_back(us_since(begin));
            if (!response_ok(response)) {
              ++mine.rejected;
              continue;
            }
            slot = Slot{true, static_cast<std::size_t>(k), spec.job_id, begin, 0};
          } else {
            const Clock::time_point poll = Clock::now();
            const std::string status = client.status(slot.id);
            mine.status_us.push_back(us_since(poll));
            ++slot.polls;
            const redopt::util::JsonValue doc = redopt::util::json_parse(status);
            if (!doc.at("ok").as_bool()) {
              ++mine.exceptions;
              slot.busy = false;
              continue;
            }
            if (doc.at("state").as_string() == "done") {
              const Clock::time_point fetch = Clock::now();
              std::string response = client.result(slot.id);
              mine.result_us.push_back(us_since(fetch));
              mine.ttr_ms.push_back(us_since(slot.begin) / 1e3);
              mine.polls.push_back(static_cast<double>(slot.polls));
              got.push_back(Fetched{slot.k, std::move(response)});
              slot.busy = false;
            }
          }
        } catch (const std::exception&) {
          ++mine.exceptions;
          slot.busy = false;
        }
        any_busy = any_busy || slot.busy;
      }
      if (draining && !any_busy) break;
    }
    const std::lock_guard<std::mutex> lock(mutex);
    result.attempted += mine.attempted;
    result.rejected += mine.rejected;
    result.exceptions += mine.exceptions;
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(result.ttr_ms, mine.ttr_ms);
    append(result.submit_us, mine.submit_us);
    append(result.status_us, mine.status_us);
    append(result.result_us, mine.result_us);
    append(result.polls, mine.polls);
    for (Fetched& f : got) fetched.push_back(std::move(f));
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < options.clients; ++c) threads.emplace_back(lane);
  for (std::thread& t : threads) t.join();
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();

  // Verification runs after the clock stopped: it replays in process.
  for (const Fetched& f : fetched) {
    const serving::JobSpec spec = job_spec(workload, f.k);
    const std::string prefix = "{\"ok\":true,\"job\":\"" + redopt::util::json_escape(spec.job_id) +
                               "\",\"manifest\":";
    const std::string& r = f.response;
    const bool framed = r.size() > prefix.size() && r.compare(0, prefix.size(), prefix) == 0 &&
                        r.back() == '}';
    if (!framed) {
      ++result.exceptions;
      continue;
    }
    const std::string manifest = r.substr(prefix.size(), r.size() - prefix.size() - 1);
    if (manifest != oracle.expected(spec, f.k)) {
      ++result.mismatches;
      continue;
    }
    ++result.completed;
    result.rounds += spec.scenario.rounds;
  }
  return result;
}

}  // namespace perfbench
