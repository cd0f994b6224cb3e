// Deterministic job checkpoints: the resumable state of a serving job.
//
// A checkpoint is the job's spec plus the round kernel's RoundState
// (chaos/round.h): the current iterate, the straggler history window,
// the channel's in-flight delayed replies, and the accumulated fault
// counters.  That is everything the slice runner (serving/runner.h)
// needs to continue a job from round `next_round` exactly as if it had
// never stopped, because every fault draw is a per-(agent, round) named
// fork of the scenario seed: there is no cross-round RNG stream to
// serialize.
//
// The JSON form is canonical and bit-exact: doubles serialize through
// util::json_number (17 significant digits, enough to round-trip any
// IEEE-754 double), members emit in a fixed order, and the strict
// parser rejects unknown members.  serialize(parse(serialize(ck))) ==
// serialize(ck) byte for byte, which is what makes a killed-and-
// restarted daemon's final manifest byte-identical to an uninterrupted
// run's (tests/test_serving.cpp pins exactly that).
#pragma once

#include <string>

#include "chaos/round.h"
#include "serving/job.h"

namespace redopt::serving {

/// The resumable state of one job.
struct JobCheckpoint {
  JobSpec spec;
  chaos::RoundState state;

  /// True when no rounds remain: the scenario's schedule is done or a
  /// non-finite iterate ended the run early.
  bool finished() const { return state.finished(spec.scenario.rounds); }

  /// Canonical JSON blob (fixed member order, bit-exact doubles).
  std::string to_json() const;
};

/// Strict inverse of JobCheckpoint::to_json(): unknown members, missing
/// members, wrong-dimension vectors, inconsistent round indices and
/// pending replies the round kernel could never have produced are all
/// rejected with redopt::PreconditionError (the daemon feeds this bytes
/// read back from disk after a crash — they are untrusted).
JobCheckpoint checkpoint_from_json(const std::string& text);

}  // namespace redopt::serving
