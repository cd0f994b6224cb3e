// Batched gradient evaluation for least-squares agent populations.
//
// For the paper's evaluation family — every agent holds a
// LeastSquaresCost Q_i(x) = ||A_i x - b_i||^2 — this evaluator stacks all
// agents' rows once at construction and exposes
//
//   * evaluate_all():  one stacked residual pass  r = R x - b  followed by
//     per-agent transposed products — a single matrix op over the whole
//     population; and
//   * evaluate_agent(): one agent against caller-owned workspaces, for a
//     parallel fan-out (each agent writes only its own slots, so the loop
//     is allocation-free after warm-up and bit-identical at any lane
//     count).
//
// The stacked copy is the price: the DGD trainer and the scenario round
// evaluate each agent in place through CostFunction::gradient_into
// instead, and train_async is the library's remaining user.
//
// Bit-identity contract: both entry points produce exactly the bytes of
// LeastSquaresCost::gradient(x) for every agent — the same kernels run
// over the same rows in the same order (the stacked matvec is row-
// independent, so stacking changes nothing).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/cost_function.h"

namespace redopt::core {

class BatchGradientEvaluator {
 public:
  /// Builds an evaluator when every cost is a LeastSquaresCost; returns
  /// nullptr otherwise (callers fall back to the virtual gradient path).
  static std::unique_ptr<BatchGradientEvaluator> try_create(const std::vector<CostPtr>& costs);

  /// Builds one evaluator over several same-dimension populations
  /// stacked along a new batching axis.  Group g's agents occupy global
  /// indices [group_offset(g), group_offset(g+1)); every per-agent entry
  /// point takes those global indices.  Returns nullptr when any cost is
  /// not a LeastSquaresCost or dimensions differ across groups.
  static std::unique_ptr<BatchGradientEvaluator> try_create_grouped(
      const std::vector<std::vector<CostPtr>>& groups);

  /// True when every cost is a LeastSquaresCost of one dimension
  /// (written to @p d when non-null) — the cheap compatibility probe
  /// callers run before paying for construction.
  static bool all_least_squares(const std::vector<CostPtr>& costs, std::size_t* d);

  std::size_t num_agents() const { return row_offsets_.size() - 1; }
  std::size_t dimension() const { return d_; }
  /// Observation rows held by agent @p i.
  std::size_t agent_rows(std::size_t i) const { return row_offsets_[i + 1] - row_offsets_[i]; }

  std::size_t num_groups() const { return group_offsets_.size() - 1; }
  /// First global agent index of group @p g (group_offset(num_groups())
  /// is the total agent count).
  std::size_t group_offset(std::size_t g) const { return group_offsets_[g]; }
  std::size_t group_agents(std::size_t g) const {
    return group_offsets_[g + 1] - group_offsets_[g];
  }

  /// Gradients of all agents at @p x.  @p out is resized to num_agents()
  /// vectors of dimension d and overwritten; no allocation once every
  /// buffer has reached steady-state size.  Not thread-safe (uses the
  /// internal stacked-residual workspace).
  void evaluate_all(const Vector& x, std::vector<Vector>& out);

  /// Gradient of agent @p i at @p x, written into @p out.  @p residual_ws
  /// is caller-owned scratch (resized to the agent's row count).  Safe to
  /// call concurrently for distinct agents with distinct workspaces.
  void evaluate_agent(std::size_t i, const Vector& x, Vector& residual_ws, Vector& out) const;

 private:
  BatchGradientEvaluator() = default;

  std::size_t d_ = 0;
  std::vector<double> rows_;                // stacked row-major A blocks
  std::vector<double> rhs_;                 // stacked b entries
  std::vector<std::size_t> row_offsets_;    // agent i owns rows [off_i, off_{i+1})
  std::vector<std::size_t> group_offsets_;  // group g owns agents [goff_g, goff_{g+1})
  std::vector<double> residual_;            // evaluate_all workspace
};

}  // namespace redopt::core
