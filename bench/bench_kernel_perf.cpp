// R-P5 — dense-kernel throughput (google-benchmark).
//
// Microbenchmarks for the src/linalg kernels every hot path funnels
// through: the reductions (dot, norm_squared, distance_squared), the
// element-wise updates (axpy), the matrix products (matvec,
// matvec_transposed, gemm_add), the batched least-squares gradient path
// built on them, and the pivoted Householder QR that solves a job's honest
// minimum at admission.  Dimensions d in {2, 64, 1024} cover the paper's
// small exact-algorithm problems, the DGD experiment family, and the
// vectorization-bound regime.  The reductions keep one accumulator in
// ascending order (docs/PERFORMANCE.md, "Determinism vs. speed"), so
// they bound what pinned evaluation order costs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/batch_gradient.h"
#include "core/least_squares_cost.h"
#include "data/regression.h"
#include "linalg/decompose.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "perf_common.h"
#include "rng/rng.h"

using namespace redopt;
using linalg::Vector;

namespace {

std::vector<double> make_values(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  return rng.gaussian_vector(n);
}

void bm_dot(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto a = make_values(d, 1);
  const auto b = make_values(d, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::kernels::dot(a.data(), b.data(), d));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d));
}

void bm_norm_squared(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto a = make_values(d, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::kernels::norm_squared(a.data(), d));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d));
}

void bm_distance_squared(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto a = make_values(d, 4);
  const auto b = make_values(d, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::kernels::distance_squared(a.data(), b.data(), d));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d));
}

void bm_axpy(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  auto y = make_values(d, 6);
  const auto x = make_values(d, 7);
  for (auto _ : state) {
    linalg::kernels::axpy(y.data(), 1e-9, x.data(), d);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d));
}

// rows x d row-major times d-vector; rows fixed at 64 so d carries the
// sweep like everywhere else.
void bm_matvec(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = 64;
  const auto a = make_values(rows * d, 8);
  const auto x = make_values(d, 9);
  std::vector<double> out(rows);
  for (auto _ : state) {
    linalg::kernels::matvec(a.data(), rows, d, x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * d));
}

void bm_matvec_transposed(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = 64;
  const auto a = make_values(rows * d, 10);
  const auto x = make_values(rows, 11);
  std::vector<double> out(d);
  for (auto _ : state) {
    linalg::kernels::matvec_transposed(a.data(), rows, d, x.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * d));
}

// d x d times d x d — the gram-style product the argmin paths pay.
void bm_gemm(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto a = make_values(d * d, 12);
  const auto b = make_values(d * d, 13);
  std::vector<double> c(d * d);
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.0);
    linalg::kernels::gemm_add(a.data(), b.data(), c.data(), d, d, d);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d * d * d));
}

// All-agents gradient evaluation through the batched least-squares path —
// the trainers' per-round fan-out workload (n = 32 agents, 8 rows each).
void bm_batch_gradient(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 32;
  const std::size_t rows = 8;
  rng::Rng rng(14);
  std::vector<core::CostPtr> costs;
  costs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    linalg::Matrix a(rows, d);
    for (std::size_t r = 0; r < rows; ++r) {
      const auto row = rng.gaussian_vector(d);
      for (std::size_t c = 0; c < d; ++c) a(r, c) = row[c];
    }
    const Vector b(rng.gaussian_vector(rows));
    costs.push_back(std::make_shared<core::LeastSquaresCost>(a, b));
  }
  auto evaluator = core::BatchGradientEvaluator::try_create(costs);
  const Vector x(make_values(d, 15));
  std::vector<Vector> out;
  for (auto _ : state) {
    evaluator->evaluate_all(x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * rows * d));
}

// Pivoted QR plus the least-squares solve of a stacked (14 d) x d honest
// system: fourteen d x d orthonormal blocks, what materialize_scenario
// solves for a block_regression job with two of its 16 agents faulty.
void bm_qr(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const std::size_t blocks = 14;
  rng::Rng rng(16);
  const auto inst =
      data::make_orthonormal_regression(16, d, 1, 0.1, Vector(make_values(d, 17)), rng);
  linalg::Matrix stacked(blocks * d, d);
  Vector b(blocks * d);
  for (std::size_t id = 0; id < blocks; ++id) {
    for (std::size_t r = 0; r < d; ++r) {
      for (std::size_t c = 0; c < d; ++c) stacked(id * d + r, c) = inst.block(id)(r, c);
      b[id * d + r] = inst.observation(id)[r];
    }
  }
  for (auto _ : state) {
    const Vector x = linalg::QrDecomposition(stacked).solve_least_squares(b);
    benchmark::DoNotOptimize(x.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blocks * d * d));
}

void register_all() {
  struct Named {
    const char* name;
    void (*fn)(benchmark::State&);
  };
  for (const Named& b : {Named{"kernel/dot", bm_dot},
                         Named{"kernel/norm_squared", bm_norm_squared},
                         Named{"kernel/distance_squared", bm_distance_squared},
                         Named{"kernel/axpy", bm_axpy},
                         Named{"kernel/matvec", bm_matvec},
                         Named{"kernel/matvec_transposed", bm_matvec_transposed},
                         Named{"kernel/gemm", bm_gemm},
                         Named{"kernel/batch_gradient", bm_batch_gradient}}) {
    benchmark::RegisterBenchmark(b.name, b.fn)->Arg(2)->Arg(64)->Arg(1024);
  }
  // An 896 x 64 system is already the admission-sized case; 14336 x 1024
  // would take seconds per iteration.
  benchmark::RegisterBenchmark("kernel/qr", bm_qr)->Arg(2)->Arg(64);
}

const bool registered = (register_all(), true);

}  // namespace

int main(int argc, char** argv) { return bench::run_perf_bench(argc, argv); }
