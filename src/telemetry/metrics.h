// Process-wide deterministic metrics: counters, gauges, and fixed-layout
// histograms.
//
// Determinism contract (the reason this module exists instead of an
// off-the-shelf metrics library): metric *values* are reproducible
// functions of the computation, not of the execution schedule.
//
//   * Recording is sharded per thread: each recording thread owns a
//     private shard, so concurrent recordings from the runtime's pool
//     never contend and never race.  Snapshots fold the shards through a
//     fixed-shape merge (shard-registration order; all merge operators —
//     integer addition, bucket-wise addition, min/max — are exact), so a
//     snapshot is a pure function of the per-shard contents.
//   * Integer counters and histogram bucket/count cells are exact in any
//     recording order, so their totals are bit-identical for every
//     runtime::set_threads() value.
//   * Histogram `sum` is a double.  It is bit-identical across thread
//     counts whenever (a) observations happen outside parallel regions
//     (true for every wired hot path that observes non-integral values) or
//     (b) the observed values are integers small enough that double
//     addition is exact (e.g. staleness counts).
//   * Metrics that cannot honour the contract — wall-clock durations, and
//     values that depend on the configured lane count such as the exact
//     algorithm's pruning counters — are registered with
//     Determinism::kUnstable.  Sinks segregate them (the JSONL sink puts
//     their values under the "nd" key) so bit-identity checks can mask
//     them wholesale.
//
// Thread-safety: record operations (Counter::inc, Histogram::observe) are
// safe from any thread, including inside runtime parallel regions.
// Registration (counter()/gauge()/histogram()), snapshot(), reset(), and
// the value() conveniences must run while no recording is in flight
// (before a parallel region starts or after parallel_for/parallel_reduce
// returned — the pool join provides the necessary happens-before edge).
// Register handles up front, record through them anywhere.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace redopt::telemetry {

class Registry;

/// Whether a metric's value is covered by the bit-identity contract.
enum class Determinism {
  kStable,    ///< bit-identical across thread counts (the default)
  kUnstable,  ///< wall-clock or lane-count dependent; masked by sinks
};

/// Bucket layout of a histogram: finite ascending upper bounds plus an
/// implicit +Inf overflow bucket.  Layouts are fixed at registration, so a
/// histogram's shape never depends on the data it observed.
struct BucketLayout {
  std::vector<double> upper_bounds;  ///< ascending, strictly increasing

  /// `count` buckets of equal width starting at @p start.
  static BucketLayout linear(double start, double width, std::size_t count);

  /// `count` buckets with bounds start, start*factor, start*factor^2, ...
  /// (factor > 1).  The standard layout for norms and durations.
  static BucketLayout exponential(double start, double factor, std::size_t count);

  /// Explicit bounds (must be strictly increasing).
  static BucketLayout explicit_bounds(std::vector<double> bounds);
};

/// Lightweight handle to a registered counter (monotone uint64).
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t by = 1) const;

  /// Merged total over all shards.  Serial-context only.
  std::uint64_t value() const;

 private:
  friend class Registry;
  Counter(Registry* registry, std::size_t id) : registry_(registry), id_(id) {}
  Registry* registry_ = nullptr;
  std::size_t id_ = 0;
};

/// Lightweight handle to a registered gauge (last-set double).  Gauges are
/// not sharded: set() is serial-context only (they record run-level facts
/// like a chosen candidate's score, not hot-path events).
class Gauge {
 public:
  Gauge() = default;
  void set(double v) const;
  double value() const;

 private:
  friend class Registry;
  Gauge(Registry* registry, std::size_t id) : registry_(registry), id_(id) {}
  Registry* registry_ = nullptr;
  std::size_t id_ = 0;
};

/// Lightweight handle to a registered histogram.
class Histogram {
 public:
  Histogram() = default;
  void observe(double v) const;

 private:
  friend class Registry;
  Histogram(Registry* registry, std::size_t id) : registry_(registry), id_(id) {}
  Registry* registry_ = nullptr;
  std::size_t id_ = 0;
};

/// Point-in-time merged value of one metric.
struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  Kind kind = Kind::kCounter;
  Determinism determinism = Determinism::kStable;

  std::uint64_t counter = 0;  ///< kCounter
  double gauge = 0.0;         ///< kGauge

  // kHistogram: per-bucket counts aligned with `upper_bounds`, plus the
  // +Inf overflow bucket and the order-exact aggregates.
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> bucket_counts;
  std::uint64_t overflow_count = 0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

using Snapshot = std::vector<MetricValue>;

/// Metric registry.  Registration is idempotent by name: registering the
/// same name again returns a handle to the same metric (re-registering
/// under a different kind or layout throws PreconditionError).  Most code
/// uses the process-wide registry() below; separate instances exist for
/// isolation in tests and must outlive every thread that recorded into
/// them.
class Registry {
 public:
  Registry();
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter counter(const std::string& name, Determinism det = Determinism::kStable);
  Gauge gauge(const std::string& name, Determinism det = Determinism::kStable);
  Histogram histogram(const std::string& name, const BucketLayout& layout,
                      Determinism det = Determinism::kStable);

  /// Merged values of every registered metric, sorted by metric name —
  /// a canonical order, so serialized snapshots are byte-identical no
  /// matter what order call sites registered in.  Serial-context only.
  Snapshot snapshot() const;

  /// Zeroes every metric value (registrations are kept).  Serial-context
  /// only.
  void reset();

  /// Number of registered metrics.
  std::size_t size() const;

  /// Entries in the calling thread's shard cache.  Each is a registry the
  /// thread recorded into; entries of destroyed registries are pruned at
  /// the thread's next cache miss.  A test hook for that pruning.
  static std::size_t thread_cache_size();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct Shard;
  struct Impl;
  struct CachedShard;
  Shard& local_shard() const;
  static std::vector<CachedShard>& thread_shard_cache();

  std::unique_ptr<Impl> impl_;
};

/// The process-wide registry used by all wired hot paths.
Registry& registry();

/// Renders @p snapshot in the Prometheus text exposition format.  Metric
/// names are prefixed with "redopt_" and dots become underscores;
/// kUnstable metrics carry a "# NONDETERMINISTIC" comment line.
std::string render_prometheus(const Snapshot& snapshot);

}  // namespace redopt::telemetry
