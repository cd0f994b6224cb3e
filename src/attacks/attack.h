// Byzantine fault behaviours.
//
// A Byzantine agent may send an arbitrary vector in place of its gradient.
// Attack models that arbitrariness; the trainer invokes craft() for each
// Byzantine agent each iteration.  The context deliberately gives the
// attack *omniscient* power — it sees the current estimate, the gradient
// the agent would have sent honestly, and all honest agents' gradients —
// because fault-tolerance guarantees must hold against worst-case
// adversaries with full knowledge (the paper's faults are "arbitrary").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "linalg/vector.h"
#include "rng/rng.h"

namespace redopt::attacks {

using linalg::Vector;

/// Everything an omniscient Byzantine agent can see when crafting a value.
struct AttackContext {
  std::size_t iteration = 0;  ///< DGD iteration t
  std::size_t agent_id = 0;   ///< this Byzantine agent's id
  std::size_t n = 0;          ///< total number of agents
  std::size_t f = 0;          ///< fault budget
  const Vector* estimate = nullptr;          ///< current server estimate x^t
  const Vector* honest_gradient = nullptr;   ///< gradient this agent would send honestly
  const std::vector<Vector>* honest_gradients = nullptr;  ///< all honest agents' gradients
  rng::Rng* rng = nullptr;    ///< per-execution random stream
};

/// A Byzantine fault behaviour.  Implementations are stateless; all
/// randomness flows through the context's rng so executions stay
/// reproducible.
class Attack {
 public:
  virtual ~Attack() = default;

  /// The vector the faulty agent sends instead of its gradient.
  Vector craft(const AttackContext& ctx) const {
    Vector out;
    craft_into(ctx, out);
    return out;
  }

  /// Writes craft(ctx) into @p out.  An attack that works in place
  /// allocates nothing once @p out has the gradient's dimension.  @p out
  /// must not alias a vector the context points to.
  virtual void craft_into(const AttackContext& ctx, Vector& out) const = 0;

  /// Whether the faulty agent replies at all this iteration.  In the
  /// synchronous model a missing reply identifies the agent as faulty: the
  /// server eliminates it and updates (n, f) — step S1 of the paper's DGD
  /// description.  Defaults to always replying; DropoutAttack overrides.
  virtual bool responds(const AttackContext& /*ctx*/) const { return true; }

  /// Canonical registry name, e.g. "gradient_reverse".
  virtual std::string name() const = 0;
};

using AttackPtr = std::shared_ptr<const Attack>;

namespace detail {
/// Validates that the context fields an attack needs are present.
void check_context(const AttackContext& ctx, bool needs_honest_gradients, const char* who);
}  // namespace detail

}  // namespace redopt::attacks
