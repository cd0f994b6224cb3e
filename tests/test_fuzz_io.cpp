// Robustness fuzzing for every input surface: regression instance
// files, key = value configs, the JSON parser, chaos scenario files,
// telemetry islands, and the transport wire codec (the one binary
// format).
// Each corpus starts from a valid document and applies seeded byte
// mutations; the contract under test is "success or PreconditionError" —
// parsers must never crash, hang, or silently misparse, no matter the
// input.  The suites also pin down specific malformed inputs that the
// mutation corpus might miss (overflow, negative sizes, non-finite
// values, trailing garbage).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "chaos/executor.h"
#include "chaos/generator.h"
#include "chaos/scenario.h"
#include "serving/checkpoint.h"
#include "serving/job.h"
#include "serving/runner.h"
#include "data/instance_io.h"
#include "elastic/churn.h"
#include "data/regression.h"
#include "rng/rng.h"
#include "telemetry/metrics.h"
#include "telemetry/ship.h"
#include "telemetry/span.h"
#include "util/config.h"
#include "util/error.h"
#include "util/frame.h"
#include "util/json.h"

using namespace redopt;

namespace {

constexpr std::size_t kMutantsPerSeed = 400;

/// Applies 1-8 seeded byte mutations (overwrite, insert, delete, truncate)
/// to @p base.  Deterministic per (base, rng state).
std::string mutate(const std::string& base, rng::Rng& rng) {
  std::string out = base;
  const auto edits = static_cast<std::size_t>(rng.uniform_int(1, 8));
  for (std::size_t e = 0; e < edits && !out.empty(); ++e) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1));
    switch (rng.uniform_int(0, 3)) {
      case 0:  // overwrite with an arbitrary byte
        out[pos] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 1:  // insert an arbitrary byte
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos),
                   static_cast<char>(rng.uniform_int(0, 255)));
        break;
      case 2:  // delete one byte
        out.erase(out.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
      default:  // truncate
        out.resize(pos);
        break;
    }
  }
  return out;
}

/// Runs @p parse on every mutant of @p base; anything but success or a
/// typed error is a bug (a crash fails the whole binary, which is the
/// point — the sanitizer CI job runs this same corpus under asan/ubsan).
template <typename Parse>
void fuzz_corpus(const std::string& base, std::uint64_t seed, const Parse& parse) {
  rng::Rng rng(seed);
  std::size_t survived = 0;
  for (std::size_t k = 0; k < kMutantsPerSeed; ++k) {
    const std::string mutant = mutate(base, rng);
    try {
      parse(mutant);
      ++survived;
    } catch (const PreconditionError&) {
      // expected for malformed inputs
    }
  }
  // Not an assertion target, just a sanity signal that the corpus is not
  // trivially all-rejected (some mutations hit comments/whitespace).
  (void)survived;
}

std::string valid_instance_text() {
  rng::Rng rng(5);
  const auto inst =
      data::make_regression(data::paper_matrix(), linalg::Vector{1.0, -2.0}, 0.05, 1, rng);
  return data::regression_to_string(inst);
}

}  // namespace

TEST(FuzzInstanceIo, MutatedInstancesNeverCrash) {
  const std::string base = valid_instance_text();
  fuzz_corpus(base, 101, [](const std::string& text) { data::regression_from_string(text); });
  fuzz_corpus(base, 202, [](const std::string& text) { data::regression_from_string(text); });
}

TEST(FuzzInstanceIo, ValidInstanceRoundTrips) {
  const std::string base = valid_instance_text();
  const auto parsed = data::regression_from_string(base);
  EXPECT_EQ(data::regression_to_string(parsed), base);
}

TEST(FuzzInstanceIo, RejectsHostileHeaders) {
  // Negative sizes must not wrap into huge allocations.
  EXPECT_THROW(data::regression_from_string("redopt-regression v1\nn -5 d 2 f 1\n"),
               PreconditionError);
  // Claimed sizes beyond the file contents are rejected before allocation.
  EXPECT_THROW(
      data::regression_from_string("redopt-regression v1\nn 999999 d 9999 f 1\nx_star 0 0\n"),
      PreconditionError);
  EXPECT_THROW(data::regression_from_string("redopt-regression v1\nn 99999999999999999999 d 2 f 1\n"),
               PreconditionError);
  // f > n is inconsistent.
  EXPECT_THROW(data::regression_from_string("redopt-regression v1\nn 2 d 1 f 3\n"
                                            "x_star 1\nrow 1 obs 1\nrow 1 obs 1\n"),
               PreconditionError);
}

TEST(FuzzInstanceIo, RejectsNonFiniteAndTrailingContent) {
  const std::string header = "redopt-regression v1\nn 1 d 1 f 0\n";
  EXPECT_THROW(data::regression_from_string(header + "x_star nan\nrow 1 obs 1\n"),
               PreconditionError);
  EXPECT_THROW(data::regression_from_string(header + "x_star 1\nrow inf obs 1\n"),
               PreconditionError);
  EXPECT_THROW(data::regression_from_string(header + "x_star 1\nrow 1 obs 1 extra\n"),
               PreconditionError);
  EXPECT_THROW(data::regression_from_string(header + "x_star 1\nrow 1 obs 1\ngarbage\n"),
               PreconditionError);
  EXPECT_THROW(data::regression_from_string(header + "x_star 1 2\nrow 1 obs 1\n"),
               PreconditionError);
}

TEST(FuzzConfig, MutatedConfigsNeverCrash) {
  const std::string base =
      "# experiment description\n"
      "filter = cge\n"
      "iterations = 500\n"
      "step = 0.25\n"
      "trace = true\n";
  fuzz_corpus(base, 303, [](const std::string& text) {
    const util::Config config = util::Config::parse(text);
    // Exercise the typed getters too: they must throw, not misparse.
    try {
      config.get_int("iterations", 0);
    } catch (const PreconditionError&) {
    }
    try {
      config.get_double("step", 0.0);
    } catch (const PreconditionError&) {
    }
    try {
      config.get_bool("trace", false);
    } catch (const PreconditionError&) {
    }
  });
}

TEST(FuzzConfig, TypedGettersRejectMisparses) {
  const util::Config config = util::Config::parse(
      "count = 12abc\nrate = 0.5x\nflag = maybe\nhuge = 1e999\nok = 7\n");
  EXPECT_THROW(config.get_int("count", 0), PreconditionError);
  EXPECT_THROW(config.get_double("rate", 0.0), PreconditionError);
  EXPECT_THROW(config.get_bool("flag", false), PreconditionError);
  EXPECT_THROW(config.get_double("huge", 0.0), PreconditionError);
  EXPECT_EQ(config.get_int("ok", 0), 7);
  EXPECT_EQ(config.get_int("absent", 42), 42);  // absent keys keep defaults
}

TEST(FuzzJson, MutatedDocumentsNeverCrash) {
  const std::string base =
      R"({"name":"trace","values":[1,2.5,-3e2,true,false,null],)"
      R"("nested":{"deep":["\u0041\n\"quoted\"",{}]},"count":12})";
  fuzz_corpus(base, 404, [](const std::string& text) { util::json_parse(text); });
  fuzz_corpus(base, 505, [](const std::string& text) { util::json_parse(text); });
}

TEST(FuzzJson, RejectsPathologicalDocuments) {
  EXPECT_THROW(util::json_parse(std::string(1000, '[')), PreconditionError);  // deep nesting
  EXPECT_THROW(util::json_parse("{\"a\":1,}"), PreconditionError);
  EXPECT_THROW(util::json_parse("\"\\ud800\""), PreconditionError);  // lone surrogate
  EXPECT_THROW(util::json_parse("1e999999"), PreconditionError);     // double overflow
  EXPECT_THROW(util::json_parse("{\"a\":1} {\"b\":2}"), PreconditionError);
}

TEST(FuzzJson, LargeIntegersRoundTripExactly) {
  const std::int64_t big = 8266114566950128573;  // not representable as double
  const util::JsonValue v = util::json_parse(std::to_string(big));
  EXPECT_EQ(v.as_int(0, std::numeric_limits<std::int64_t>::max()), big);
}

TEST(FuzzScenario, MutatedScenarioJsonNeverCrashes) {
  chaos::Generator generator(chaos::GeneratorSpec{}, 77);
  for (std::uint64_t seed = 606; seed <= 808; seed += 101) {
    const std::string base = generator.next().to_json();
    fuzz_corpus(base, seed,
                [](const std::string& text) { chaos::scenario_from_json(text); });
  }
}

TEST(FuzzScenario, MutatedElasticScenarioJsonNeverCrashes) {
  // Elastic documents carry two extra arrays (membership, stream) with
  // their own cross-field invariants (alternation, sort order, live-set
  // non-emptiness, family gating) — every one must degrade to a
  // PreconditionError under mutation, never a crash or a misparse that
  // validate() would then trip over as a logic error.
  const auto parse_and_validate = [](const std::string& text) {
    chaos::scenario_from_json(text).validate();
  };
  fuzz_corpus(elastic::make_churn_scenario(elastic::ChurnProfile::kJoinHeavy, 31).to_json(), 909,
              parse_and_validate);
  fuzz_corpus(elastic::make_churn_scenario(elastic::ChurnProfile::kLeaveHeavy, 32).to_json(), 919,
              parse_and_validate);
  fuzz_corpus(elastic::make_streaming_churn_scenario(elastic::ChurnProfile::kJoinHeavy, 33).to_json(),
              929, parse_and_validate);
  fuzz_corpus(elastic::make_redundancy_dip_scenario(34).to_json(), 939, parse_and_validate);

  chaos::GeneratorSpec spec;
  spec.elastic_probability = 1.0;
  chaos::Generator generator(spec, 88);
  for (int k = 0; k < 4; ++k) {
    fuzz_corpus(generator.next().to_json(), 949 + static_cast<std::uint64_t>(k),
                parse_and_validate);
  }
}

TEST(FuzzScenario, RejectsHostileElasticDocuments) {
  const std::string base =
      elastic::make_streaming_churn_scenario(elastic::ChurnProfile::kLeaveHeavy, 35).to_json();
  const chaos::Scenario parsed = chaos::scenario_from_json(base);
  EXPECT_NO_THROW(parsed.validate());

  // Pinned malformed documents the random corpus might miss: each takes
  // the valid base and breaks exactly one elastic invariant.
  auto broken = [&base](const std::string& from, const std::string& to) {
    std::string doc = base;
    const std::size_t at = doc.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    doc.replace(at, from.size(), to);
    EXPECT_THROW(chaos::scenario_from_json(doc).validate(), PreconditionError) << to;
  };
  // An event round at/after the horizon.
  broken("\"round\":15", "\"round\":999999");
  // An out-of-range agent id.
  broken("\"agent\":7", "\"agent\":70");
  // A zero-row stream arrival.
  {
    std::string doc = base;
    const std::size_t at = doc.find("\"rows\":");
    ASSERT_NE(at, std::string::npos);
    const std::size_t end = doc.find_first_of(",}", at + 7);
    doc.replace(at, end - at, "\"rows\":0");
    EXPECT_THROW(chaos::scenario_from_json(doc).validate(), PreconditionError);
  }
  // Unknown members are rejected outright (strict schema).
  {
    std::string doc = base;
    doc.insert(doc.find("\"membership\""), "\"membership2\":[],");
    EXPECT_THROW(chaos::scenario_from_json(doc), PreconditionError);
  }
  // A row count that overflows the total-stream-rows cap.
  {
    std::string doc = base;
    const std::size_t at = doc.find("\"rows\":");
    ASSERT_NE(at, std::string::npos);
    const std::size_t end = doc.find_first_of(",}", at + 7);
    doc.replace(at, end - at, "\"rows\":281474976710656");
    EXPECT_THROW(chaos::scenario_from_json(doc).validate(), PreconditionError);
  }
}

namespace {

std::string valid_frame_bytes() {
  util::Frame frame;
  frame.type = util::FrameType::kGradient;
  frame.agent = 3;
  frame.round = 12;
  frame.emitted = 11;
  frame.hops = 2;
  frame.payload = {0.5, -1.25, 3e7, -0.0};
  return util::encode_frame(frame);
}

}  // namespace

TEST(FuzzFrame, MutatedWireBytesNeverCrash) {
  // The transport wire codec is a *binary* input surface: every byte a
  // peer process sends reaches decode_frame before anything trusts it.
  // Same contract as the text parsers — success or PreconditionError —
  // and the checksum means almost every mutant must be rejected.
  const std::string base = valid_frame_bytes();
  fuzz_corpus(base, 909, [](const std::string& bytes) { util::decode_frame(bytes); });
  fuzz_corpus(base, 910, [](const std::string& bytes) { util::decode_frame(bytes); });
}

TEST(FuzzFrame, MutatedBodiesNeverCrash) {
  // decode_frame_body is the path the socket reader actually takes after
  // consuming the length prefix itself; fuzz it separately so prefix
  // validation cannot mask body bugs.
  const std::string base = valid_frame_bytes().substr(4);
  fuzz_corpus(base, 911, [](const std::string& body) {
    util::decode_frame_body(reinterpret_cast<const unsigned char*>(body.data()), body.size());
  });
}

TEST(FuzzFrame, RejectsHostileLengthAndCount) {
  const std::string base = valid_frame_bytes();
  // A length prefix promising more body than exists must not over-read.
  std::string long_prefix = base;
  long_prefix[0] = static_cast<char>(0xff);
  long_prefix[1] = static_cast<char>(0xff);
  EXPECT_THROW(util::decode_frame(long_prefix), PreconditionError);
  // A huge payload count must be rejected before any allocation sized by
  // it (count * 8 would wrap or OOM).
  util::Frame frame;
  frame.payload = {1.0};
  std::string bytes = util::encode_frame(frame);
  const std::size_t count_offset = bytes.size() - 8 - 4 - 4;  // before payload + crc
  for (std::size_t k = 0; k < 4; ++k) bytes[count_offset + k] = static_cast<char>(0xff);
  EXPECT_THROW(util::decode_frame(bytes), PreconditionError);
  EXPECT_THROW(util::decode_frame(std::string()), PreconditionError);
}

namespace {

/// A real agent island holding every record shape the island reader
/// handles: a counter, a gauge, a kUnstable counter (value under "nd"),
/// a histogram with min and max, nested spans with typed attributes,
/// instants with and without "unstable":true, and a string attribute
/// that needs escapes.
std::string valid_island_blob() {
  telemetry::AgentTelemetry island;
  island.registry.counter("replica.rounds").inc(12);
  island.registry.gauge("replica.step").set(0.125);
  island.registry.counter("replica.retries", telemetry::Determinism::kUnstable).inc(3);
  const auto norm = island.registry.histogram("replica.gradient_norm",
                                              telemetry::BucketLayout::exponential(1e-3, 4.0, 6));
  norm.observe(0.5);
  norm.observe(7.25);
  {
    telemetry::ScopedSpan round(island.spans, "replica.round");
    round.attr("round", telemetry::Value(std::uint64_t{3}))
        .attr("offset", telemetry::Value(std::int64_t{-2}))
        .attr("scale", telemetry::Value(0.1))
        .attr("faulty", telemetry::Value(true))
        .attr("note", telemetry::Value(std::string("say \"hi\"\n\t\\ \x01")));
    telemetry::ScopedSpan send(island.spans, "replica.send");
    send.attr("bytes", telemetry::Value(std::uint64_t{544}));
    island.spans.instant("replica.dropped", {{"t", telemetry::Value(std::int64_t{3})}});
    island.spans.instant("replica.retry", {{"link", telemetry::Value(std::string("3->1"))}},
                         telemetry::Determinism::kUnstable);
  }
  return telemetry::serialize_agent_telemetry(5, island);
}

/// @p text with its first @p from replaced by @p to; fails the test when
/// @p from is absent, so a stale pattern cannot pass vacuously.
std::string with_replaced(const std::string& text, const std::string& from,
                          const std::string& to) {
  const std::size_t at = text.find(from);
  if (at == std::string::npos) {
    ADD_FAILURE() << "pattern not in the island: " << from;
    return text;
  }
  return text.substr(0, at) + to + text.substr(at + from.size());
}

}  // namespace

TEST(FuzzIsland, ValidIslandRoundTrips) {
  const std::string base = valid_island_blob();
  const telemetry::AgentSnapshot parsed = telemetry::parse_agent_snapshot(base);
  EXPECT_EQ(parsed.agent, 5u);
  ASSERT_EQ(parsed.metrics.size(), 4u);
  ASSERT_EQ(parsed.spans.size(), 2u);
  ASSERT_EQ(parsed.instants.size(), 2u);
  EXPECT_EQ(parsed.instants[1].determinism, telemetry::Determinism::kUnstable);
  EXPECT_EQ(telemetry::serialize_agent_snapshot(parsed), base);
}

TEST(FuzzIsland, MutatedIslandsParseOrRejectAndReserializeStably) {
  // The socket backend hands the reader bytes from another process.  A
  // mutant either raises PreconditionError or parses; one that parses
  // must re-serialize to a blob that is a fixed point of parse → serialize.
  const std::string base = valid_island_blob();
  std::size_t parsed = 0;
  const auto round_trip = [&parsed](const std::string& text) {
    const std::string once =
        telemetry::serialize_agent_snapshot(telemetry::parse_agent_snapshot(text));
    ++parsed;
    try {
      EXPECT_EQ(telemetry::serialize_agent_snapshot(telemetry::parse_agent_snapshot(once)), once);
    } catch (const PreconditionError& e) {
      ADD_FAILURE() << "a re-serialized island was rejected: " << e.what();
    }
  };
  fuzz_corpus(base, 1201, round_trip);
  fuzz_corpus(base, 1202, round_trip);
  EXPECT_GT(parsed, 0u);  // the round-trip property was exercised
}

TEST(FuzzIsland, RejectsDocumentsTheSerializerDoesNotWrite) {
  const std::string base = valid_island_blob();
  ASSERT_EQ(base.rfind("{\"v\":1,\"agent\":5,\"spans_dropped\":0,", 0), 0u);
  const std::vector<std::string> hostile = {
      // Reordered, missing and duplicated members.
      with_replaced(base, "{\"v\":1,\"agent\":5,", "{\"agent\":5,\"v\":1,"),
      with_replaced(base, "\"id\":1,\"parent\":0,", "\"parent\":0,\"id\":1,"),
      with_replaced(base, ",\"spans_dropped\":0", ""),
      with_replaced(base, ",\"closed\":true", ""),
      with_replaced(base, "{\"v\":1,", "{\"v\":1,\"v\":1,"),
      with_replaced(base, "\"closed\":true", "\"closed\":true,\"closed\":true"),
      with_replaced(base, "\"id\":1,", "\"id\":1,\"extra\":0,"),
      // Trailing bytes.
      base + "x",
      base + "{}",
      // Wrong value types.
      with_replaced(base, "\"agent\":5", "\"agent\":\"5\""),
      with_replaced(base, "\"closed\":true", "\"closed\":1"),
      with_replaced(base, "\"spans\":[", "\"spans\":{\"x\":["),
      with_replaced(base, "\"round\":3", "\"round\":[3]"),
      with_replaced(base, "\"kind\":\"gauge\"", "\"kind\":\"meter\""),
      with_replaced(base, "\"unstable\":true", "\"unstable\":false"),
      // Negative, fractional and out-of-range integers.
      with_replaced(base, "\"id\":1,", "\"id\":-1,"),
      with_replaced(base, "\"id\":1,", "\"id\":1.5,"),
      with_replaced(base, "\"agent\":5", "\"agent\":4294967296"),
      with_replaced(base, "\"spans_dropped\":0", "\"spans_dropped\":9223372036854775808"),
      // A bucket count that differs from the bound count.
      with_replaced(base, "\"buckets\":[0,", "\"buckets\":["),
  };
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_THROW(telemetry::parse_agent_snapshot(hostile[i]), PreconditionError)
        << "case " << i << ": " << hostile[i];
  }
  // The largest 32-bit agent is still in range; whitespace between
  // tokens is not a different document.
  const std::string last_agent = with_replaced(base, "\"agent\":5", "\"agent\":4294967295");
  EXPECT_EQ(telemetry::parse_agent_snapshot(last_agent).agent, 4294967295u);
  const std::string spaced = " " + with_replaced(base, ":[", ": [ ") + "\n";
  EXPECT_EQ(telemetry::serialize_agent_snapshot(telemetry::parse_agent_snapshot(spaced)), base);
}

namespace {

std::string valid_telemetry_frame_bytes() {
  util::Frame frame;
  frame.type = util::FrameType::kTelemetry;
  frame.agent = 3;
  frame.round = 12;
  frame.emitted = 12;
  frame.hops = 1;
  frame.payload = util::pack_blob(
      R"({"agent":3,"metrics":[{"name":"replica.rounds","value":12}],"spans":[]})");
  return util::encode_frame(frame);
}

}  // namespace

TEST(FuzzFrame, MutatedTelemetryFramesNeverCrash) {
  // kTelemetry frames add a second validation layer on top of the frame
  // codec: the blob packing's declared byte count must agree with the
  // payload size.  The corpus must only ever see success or the typed
  // error out of either layer.
  const std::string base = valid_telemetry_frame_bytes();
  fuzz_corpus(base, 912, [](const std::string& bytes) { util::decode_frame(bytes); });
  fuzz_corpus(base, 913, [](const std::string& bytes) {
    const util::Frame frame = util::decode_frame(bytes);
    if (frame.type == util::FrameType::kTelemetry) util::unpack_blob(frame.payload);
  });
}

TEST(FuzzFrame, RejectsTelemetryLengthDisagreement) {
  // A declared blob length that disagrees with the decoded payload size
  // is rejected at the codec boundary, before anything trusts the bytes.
  util::Frame frame;
  frame.type = util::FrameType::kTelemetry;
  frame.agent = 1;
  frame.payload = util::pack_blob("snapshot bytes");

  util::Frame overdeclared = frame;
  overdeclared.payload[0] = static_cast<double>(8 * frame.payload.size());
  EXPECT_THROW(util::decode_frame(util::encode_frame(overdeclared)), PreconditionError);

  util::Frame negative = frame;
  negative.payload[0] = -1.0;
  EXPECT_THROW(util::decode_frame(util::encode_frame(negative)), PreconditionError);

  util::Frame fractional = frame;
  fractional.payload[0] += 0.5;
  EXPECT_THROW(util::decode_frame(util::encode_frame(fractional)), PreconditionError);

  util::Frame sloppy = frame;  // > 7 bytes of padding: packing not minimal
  sloppy.payload.push_back(0.0);
  EXPECT_THROW(util::decode_frame(util::encode_frame(sloppy)), PreconditionError);

  util::Frame empty = frame;  // no count entry at all
  empty.payload.clear();
  EXPECT_THROW(util::unpack_blob(empty.payload), PreconditionError);

  // The same payloads on a kGradient frame are plain doubles — no blob
  // contract applies, so the codec accepts them unchanged.
  util::Frame gradient = overdeclared;
  gradient.type = util::FrameType::kGradient;
  EXPECT_EQ(util::decode_frame(util::encode_frame(gradient)).payload, gradient.payload);
}

TEST(FuzzFrame, ValidTelemetryFrameRoundTrips) {
  const std::string base = valid_telemetry_frame_bytes();
  const util::Frame frame = util::decode_frame(base);
  EXPECT_EQ(frame.type, util::FrameType::kTelemetry);
  EXPECT_EQ(util::unpack_blob(frame.payload),
            R"({"agent":3,"metrics":[{"name":"replica.rounds","value":12}],"spans":[]})");
  EXPECT_EQ(util::encode_frame(frame), base);
}

TEST(FuzzFrame, ValidFrameSurvivesItsOwnCorpus) {
  // Sanity anchor: the unmutated base parses, so corpus rejections are
  // the checksum doing its job rather than a broken encoder.
  const std::string base = valid_frame_bytes();
  const util::Frame frame = util::decode_frame(base);
  EXPECT_EQ(frame.agent, 3u);
  EXPECT_EQ(frame.payload.size(), 4u);
  EXPECT_EQ(util::encode_frame(frame), base);
}

namespace {

/// A mid-flight serving checkpoint with every section populated: faulty
/// scenario, straggler history window, in-flight delayed replies, and
/// non-zero counters — the richest JSON document the daemon reads back
/// from disk after a crash.
std::string valid_checkpoint_json() {
  chaos::Scenario s;
  s.name = "fuzz-ckpt";
  s.seed = 77;
  s.problem = "regression";
  s.filter = "cge";
  s.n = 8;
  s.f = 2;
  s.d = 2;
  s.rounds = 30;
  chaos::FaultSpec byz;
  byz.kind = chaos::FaultSpec::Kind::kByzantine;
  byz.agent = 1;
  byz.from = 2;
  byz.attack = "random";
  byz.attack_param = 40.0;
  chaos::FaultSpec straggler;
  straggler.kind = chaos::FaultSpec::Kind::kStraggler;
  straggler.agent = 5;
  straggler.from = 1;
  straggler.staleness = 2;
  s.faults = {byz, straggler};
  s.channel.drop_probability = 0.1;
  s.channel.duplicate_probability = 0.1;
  s.channel.max_delay = 2;
  s.validate();

  serving::JobSpec spec;
  spec.job_id = "fuzz";
  spec.scenario = s;
  const chaos::MaterializedScenario built = chaos::materialize_scenario(s);
  serving::JobCheckpoint ck = serving::make_initial_checkpoint(spec, built);
  chaos::RoundKernel kernel(spec.scenario, built);
  serving::run_job_slice(ck, 13, kernel);
  return ck.to_json();
}

}  // namespace

TEST(FuzzCheckpoint, MutatedCheckpointBlobsNeverCrash) {
  // The daemon feeds checkpoint_from_json bytes read back from disk
  // after a crash — torn writes and corruption are exactly what the
  // mutation corpus simulates.  Contract: success or PreconditionError.
  const std::string base = valid_checkpoint_json();
  fuzz_corpus(base, 1101,
              [](const std::string& text) { serving::checkpoint_from_json(text); });
  fuzz_corpus(base, 1102,
              [](const std::string& text) { serving::checkpoint_from_json(text); });
}

TEST(FuzzCheckpoint, RejectsHostileStructuredDocuments) {
  // Structure-preserving corruptions the byte corpus is unlikely to hit:
  // each document stays valid JSON but breaks a cross-field invariant
  // the runner relies on to resume safely.
  const std::string base = valid_checkpoint_json();
  const auto tamper = [&base](const std::string& needle, const std::string& replacement) {
    const auto at = base.find(needle);
    EXPECT_NE(at, std::string::npos) << needle;
    return base.substr(0, at) + replacement + base.substr(at + needle.size());
  };
  // An agent index pushed outside the population (the first match sits
  // in the embedded spec's fault list; spec validation catches it).
  EXPECT_THROW(serving::checkpoint_from_json(tamper("\"agent\":1,", "\"agent\":99,")),
               PreconditionError);
  // Counters with an unknown member.
  EXPECT_THROW(
      serving::checkpoint_from_json(tamper("\"filter_rebuilds\"", "\"made_up_counter\"")),
      PreconditionError);
  // A null distance (the original value lands under an unknown member —
  // either defect alone is fatal).
  EXPECT_THROW(serving::checkpoint_from_json(tamper(
                   "\"initial_distance\":", "\"initial_distance\":null,\"blank_distance\":")),
               PreconditionError);
  // The unmutated base round-trips bit-exactly (corpus sanity anchor).
  EXPECT_EQ(serving::checkpoint_from_json(base).to_json(), base);
}
