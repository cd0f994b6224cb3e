#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <sstream>

#include "util/error.h"
#include "util/json.h"

namespace redopt::telemetry {

BucketLayout BucketLayout::linear(double start, double width, std::size_t count) {
  REDOPT_REQUIRE(width > 0.0, "bucket width must be positive");
  REDOPT_REQUIRE(count >= 1, "a histogram needs at least one finite bucket");
  BucketLayout layout;
  layout.upper_bounds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    layout.upper_bounds.push_back(start + width * static_cast<double>(i));
  }
  return layout;
}

BucketLayout BucketLayout::exponential(double start, double factor, std::size_t count) {
  REDOPT_REQUIRE(start > 0.0, "exponential buckets start above zero");
  REDOPT_REQUIRE(factor > 1.0, "bucket growth factor must exceed 1");
  REDOPT_REQUIRE(count >= 1, "a histogram needs at least one finite bucket");
  BucketLayout layout;
  layout.upper_bounds.reserve(count);
  double bound = start;
  for (std::size_t i = 0; i < count; ++i) {
    layout.upper_bounds.push_back(bound);
    bound *= factor;
  }
  return layout;
}

BucketLayout BucketLayout::explicit_bounds(std::vector<double> bounds) {
  REDOPT_REQUIRE(!bounds.empty(), "a histogram needs at least one finite bucket");
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    REDOPT_REQUIRE(bounds[i - 1] < bounds[i], "bucket bounds must be strictly increasing");
  }
  BucketLayout layout;
  layout.upper_bounds = std::move(bounds);
  return layout;
}

namespace {

/// Per-shard histogram cell.  Bucket vectors are sized lazily by the
/// owning thread on first observation.
struct HistCell {
  std::vector<std::uint64_t> buckets;
  std::uint64_t overflow = 0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

struct MetricInfo {
  std::string name;
  MetricValue::Kind kind = MetricValue::Kind::kCounter;
  Determinism determinism = Determinism::kStable;
  BucketLayout layout;  // kHistogram only
};

}  // namespace

/// One recording thread's private cells, indexed by metric id.  Only the
/// owning thread writes; snapshot()/reset() read and zero from a serial
/// context (the pool join provides the happens-before edge).
struct Registry::Shard {
  std::vector<std::uint64_t> counters;
  std::vector<HistCell> hists;

  std::uint64_t& counter_cell(std::size_t id) {
    if (counters.size() <= id) counters.resize(id + 1, 0);
    return counters[id];
  }
  HistCell& hist_cell(std::size_t id) {
    if (hists.size() <= id) hists.resize(id + 1);
    return hists[id];
  }
};

struct Registry::Impl {
  /// Identifies the registry to thread shard caches and expires with it.
  /// Caches hold weak references, which keep the control block allocated,
  /// so a later registry never shares it with a destroyed one.
  const std::shared_ptr<int> liveness = std::make_shared<int>(0);
  mutable std::mutex mutex;
  std::vector<MetricInfo> metrics;
  // Name-keyed and *ordered*: snapshot() folds metrics by iterating this
  // map, so serialized output never depends on hash-table layout or on
  // the order call sites happened to register in (rule D2).
  std::map<std::string, std::size_t> by_name;
  std::vector<double> gauges;  // indexed by metric id (kGauge only)
  mutable std::vector<std::unique_ptr<Shard>> shards;  // registration order

  std::size_t register_metric(const std::string& name, MetricValue::Kind kind, Determinism det,
                              BucketLayout layout) {
    std::lock_guard<std::mutex> lock(mutex);
    auto it = by_name.find(name);
    if (it != by_name.end()) {
      const MetricInfo& existing = metrics[it->second];
      REDOPT_REQUIRE(existing.kind == kind,
                     "metric '" + name + "' already registered with a different kind");
      REDOPT_REQUIRE(existing.determinism == det,
                     "metric '" + name + "' already registered with a different determinism");
      REDOPT_REQUIRE(existing.layout.upper_bounds == layout.upper_bounds,
                     "metric '" + name + "' already registered with a different bucket layout");
      return it->second;
    }
    const std::size_t id = metrics.size();
    metrics.push_back(MetricInfo{name, kind, det, std::move(layout)});
    gauges.resize(metrics.size(), 0.0);
    by_name.emplace(name, id);
    return id;
  }
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

/// One entry of a thread's shard cache: the registry's liveness token,
/// matched by owner, and the thread's shard in it.
struct Registry::CachedShard {
  std::weak_ptr<int> liveness;
  Shard* shard;
};

std::vector<Registry::CachedShard>& Registry::thread_shard_cache() {
  thread_local std::vector<CachedShard> cache;
  return cache;
}

std::size_t Registry::thread_cache_size() { return thread_shard_cache().size(); }

Registry::Shard& Registry::local_shard() const {
  // Live registries are few (the global one, per-replica and test-local
  // instances), so a linear scan beats a hash lookup.  A miss first drops
  // the entries of destroyed registries, keeping the scan as short as
  // the live set however many registries the thread has outlived.
  std::vector<CachedShard>& cache = thread_shard_cache();
  const std::shared_ptr<int>& self = impl_->liveness;
  for (const CachedShard& e : cache) {
    if (!e.liveness.owner_before(self) && !self.owner_before(e.liveness)) return *e.shard;
  }
  std::erase_if(cache, [](const CachedShard& e) { return e.liveness.expired(); });
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->shards.push_back(std::make_unique<Shard>());
  Shard* shard = impl_->shards.back().get();
  cache.push_back(CachedShard{self, shard});
  return *shard;
}

Counter Registry::counter(const std::string& name, Determinism det) {
  return Counter(this, impl_->register_metric(name, MetricValue::Kind::kCounter, det, {}));
}

Gauge Registry::gauge(const std::string& name, Determinism det) {
  return Gauge(this, impl_->register_metric(name, MetricValue::Kind::kGauge, det, {}));
}

Histogram Registry::histogram(const std::string& name, const BucketLayout& layout,
                              Determinism det) {
  return Histogram(this, impl_->register_metric(name, MetricValue::Kind::kHistogram, det, layout));
}

void Counter::inc(std::uint64_t by) const {
  if (registry_ == nullptr) return;
  registry_->local_shard().counter_cell(id_) += by;
}

std::uint64_t Counter::value() const {
  if (registry_ == nullptr) return 0;
  auto& impl = *registry_->impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  std::uint64_t total = 0;
  for (const auto& shard : impl.shards) {
    if (shard->counters.size() > id_) total += shard->counters[id_];
  }
  return total;
}

void Gauge::set(double v) const {
  if (registry_ == nullptr) return;
  auto& impl = *registry_->impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  impl.gauges[id_] = v;
}

double Gauge::value() const {
  if (registry_ == nullptr) return 0.0;
  auto& impl = *registry_->impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  return impl.gauges[id_];
}

void Histogram::observe(double v) const {
  if (registry_ == nullptr) return;
  auto& impl = *registry_->impl_;
  HistCell& cell = registry_->local_shard().hist_cell(id_);
  const std::vector<double>& bounds = impl.metrics[id_].layout.upper_bounds;
  if (cell.buckets.empty()) cell.buckets.resize(bounds.size(), 0);
  ++cell.count;
  // NaN observations land in the overflow bucket and are excluded from the
  // order-exact aggregates (sum/min/max would otherwise be poisoned).
  if (std::isnan(v)) {
    ++cell.overflow;
    return;
  }
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  if (it == bounds.end()) {
    ++cell.overflow;
  } else {
    ++cell.buckets[static_cast<std::size_t>(it - bounds.begin())];
  }
  cell.sum += v;
  cell.min = std::min(cell.min, v);
  cell.max = std::max(cell.max, v);
}

Snapshot Registry::snapshot() const {
  auto& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  Snapshot out;
  out.reserve(impl.metrics.size());
  // Fold in metric-name order (the map's iteration order), so two
  // registries that registered the same metrics in different orders
  // produce byte-identical serialized snapshots.
  for (const auto& entry : impl.by_name) {
    const std::size_t id = entry.second;
    const MetricInfo& info = impl.metrics[id];
    MetricValue value;
    value.name = info.name;
    value.kind = info.kind;
    value.determinism = info.determinism;
    switch (info.kind) {
      case MetricValue::Kind::kCounter:
        for (const auto& shard : impl.shards) {
          if (shard->counters.size() > id) value.counter += shard->counters[id];
        }
        break;
      case MetricValue::Kind::kGauge:
        value.gauge = impl.gauges[id];
        break;
      case MetricValue::Kind::kHistogram: {
        value.upper_bounds = info.layout.upper_bounds;
        value.bucket_counts.assign(value.upper_bounds.size(), 0);
        // Fixed-shape merge: fold shards in registration order.  Every
        // merge operator except the double sum is exact in any order; the
        // sum's guarantees are spelled out in the header contract.
        for (const auto& shard : impl.shards) {
          if (shard->hists.size() <= id) continue;
          const HistCell& cell = shard->hists[id];
          if (cell.count == 0) continue;
          for (std::size_t b = 0; b < cell.buckets.size(); ++b) {
            value.bucket_counts[b] += cell.buckets[b];
          }
          value.overflow_count += cell.overflow;
          value.count += cell.count;
          value.sum += cell.sum;
          value.min = std::min(value.min, cell.min);
          value.max = std::max(value.max, cell.max);
        }
        break;
      }
    }
    out.push_back(std::move(value));
  }
  return out;
}

void Registry::reset() {
  auto& impl = *impl_;
  std::lock_guard<std::mutex> lock(impl.mutex);
  for (auto& shard : impl.shards) {
    std::fill(shard->counters.begin(), shard->counters.end(), 0);
    for (HistCell& cell : shard->hists) cell = HistCell{};
  }
  std::fill(impl.gauges.begin(), impl.gauges.end(), 0.0);
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->metrics.size();
}

Registry& registry() {
  static Registry instance;
  return instance;
}

namespace {

/// Prometheus-safe metric name: redopt_ prefix, [a-zA-Z0-9_] body.
std::string prom_name(const std::string& name) {
  std::string out = "redopt_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string render_prometheus(const Snapshot& snapshot) {
  std::ostringstream os;
  for (const MetricValue& m : snapshot) {
    const std::string name = prom_name(m.name);
    if (m.determinism == Determinism::kUnstable) os << "# NONDETERMINISTIC " << name << "\n";
    switch (m.kind) {
      case MetricValue::Kind::kCounter:
        os << "# TYPE " << name << " counter\n";
        os << name << " " << m.counter << "\n";
        break;
      case MetricValue::Kind::kGauge:
        os << "# TYPE " << name << " gauge\n";
        os << name << " " << util::json_number(m.gauge) << "\n";
        break;
      case MetricValue::Kind::kHistogram: {
        os << "# TYPE " << name << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < m.upper_bounds.size(); ++b) {
          cumulative += m.bucket_counts[b];
          os << name << "_bucket{le=\"" << util::json_number(m.upper_bounds[b]) << "\"} "
             << cumulative << "\n";
        }
        os << name << "_bucket{le=\"+Inf\"} " << m.count << "\n";
        os << name << "_sum " << util::json_number(m.sum) << "\n";
        os << name << "_count " << m.count << "\n";
        break;
      }
    }
  }
  return os.str();
}

}  // namespace redopt::telemetry
