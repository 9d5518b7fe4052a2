// Dataset subsystem coverage: text parsers (event list, snapshot+diff),
// the compiler's interval normalization, the versioned binary cache with
// its torn-tail detection, and TraceAdversary replay semantics.
//
// The load-bearing invariants:
//
//   * malformed input fails LOUDLY with the file name and line (or byte
//     offset) in the message — a dataset typo must never silently become
//     a different topology;
//   * a compiled .dtc cache replays byte-identically to the text parse it
//     came from, including through campaign checkpoint/resume;
//   * TraceAdversary's two engine paths (full rebuild vs positional
//     deltas) emit value-identical edge sequences under every end policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/trace_adversary.h"
#include "campaign/scheduler.h"
#include "campaign/shard_exec.h"
#include "campaign/spec.h"
#include "dataset/compiled_format.h"
#include "dataset/text_format.h"
#include "dataset/trace.h"
#include "net/graph.h"
#include "obs/json.h"
#include "protocols/flood.h"
#include "sim/engine.h"
#include "test_support.h"
#include "util/check.h"
#include "util/rng.h"

namespace dynet::dataset {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const std::string path = testsupport::testDir() + name;
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

void writeFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << path;
  out << contents;
}

TraceEvents parseText(const std::string& text, double bucket = 1.0) {
  std::istringstream in(text);
  ParseOptions options;
  options.bucket = bucket;
  return parseEventList(in, "test.events", options);
}

/// Expects `fn` to throw a CheckError whose message contains `needle`.
template <typename Fn>
void expectLoudFailure(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected a CheckError mentioning '" << needle << "'";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error message was: " << e.what();
  }
}

// ------------------------------------------------------- event-list parser

TEST(EventList, ParsesLabelsBucketsAndComments) {
  const TraceEvents events = parseText(
      "# comment line\n"
      "0 3 alice bob\n"
      "\n"
      "1.5 4.2 bob carol\n"
      "0 0 carol alice\n");
  EXPECT_EQ(events.num_nodes, 3);
  ASSERT_EQ(events.labels.size(), 3u);
  // First-appearance interning.
  EXPECT_EQ(events.labels[0], "alice");
  EXPECT_EQ(events.labels[1], "bob");
  EXPECT_EQ(events.labels[2], "carol");
  ASSERT_EQ(events.intervals.size(), 3u);
  // t_min = 0, bucket 1: [0,3] -> rounds [1,4]; [1.5,4.2] -> [2,5].
  EXPECT_EQ(events.intervals[0].first, 1);
  EXPECT_EQ(events.intervals[0].last, 4);
  EXPECT_EQ(events.intervals[1].first, 2);
  EXPECT_EQ(events.intervals[1].last, 5);
  EXPECT_EQ(events.rounds, 5);
}

TEST(EventList, WiderBucketCoarsensRounds) {
  const TraceEvents events = parseText("0 9 a b\n5 9 b c\n", /*bucket=*/5.0);
  EXPECT_EQ(events.intervals[0].first, 1);
  EXPECT_EQ(events.intervals[0].last, 2);
  EXPECT_EQ(events.intervals[1].first, 2);
  EXPECT_EQ(events.rounds, 2);
}

TEST(EventList, MalformedInputsFailWithLineNumbers) {
  // Truncated record (3 fields): diagnostic carries file:line.
  expectLoudFailure([] { parseText("0 3 a b\n1 4 c\n"); }, "test.events:2");
  expectLoudFailure([] { parseText("0 3 a b\n1 4 c\n"); }, "field(s)");
  // Non-numeric timestamp.
  expectLoudFailure([] { parseText("zero 3 a b\n"); }, "test.events:1");
  // Interval that ends before it starts (out-of-order timestamps).
  expectLoudFailure([] { parseText("5 2 a b\n"); }, "before it starts");
  // Self-loop.
  expectLoudFailure([] { parseText("0 3 a a\n"); }, "self-loop");
  // A round past INT32_MAX, from a wide span or a tiny bucket: it is
  // range-checked before it narrows to int, where it could wrap below the
  // round cap.
  expectLoudFailure([] { parseText("0 1e15 a b\n"); },
                    "test.events:1: event maps to round 1e+15 > 5000000");
  expectLoudFailure([] { parseText("0 1 a b\n5 6 b c\n", 1e-300); },
                    "test.events:1: event maps to round 1e+300");
  // Empty dataset.
  expectLoudFailure([] { parseText("# nothing\n"); }, "test.events");
}

// ---------------------------------------------------- snapshot+diff parser

void writeSnapshotFixture(const std::string& dir) {
  fs::create_directories(dir + "/sn");
  writeFile(dir + "/sn/1.edges", "a b\nb c\nc d\n");
  writeFile(dir + "/sn/2.edges", "a b\nb c\nb d\n");
  writeFile(dir + "/sn/3.edges", "a b\nb d\n");
}

TEST(SnapshotDir, ParsesConsecutiveSnapshots) {
  const std::string dir = freshDir("snapdir_ok");
  writeSnapshotFixture(dir);
  const TraceEvents events = parseSnapshotDir(dir);
  EXPECT_EQ(events.num_nodes, 4);
  EXPECT_EQ(events.rounds, 3);
  const CompiledTrace trace = compile(events);
  ASSERT_EQ(trace.initial.size(), 3u);
  ASSERT_EQ(trace.deltas.size(), 2u);
  // Round 1 -> 2: c-d out, b-d in.
  EXPECT_EQ(trace.deltas[0].removed.size(), 1u);
  EXPECT_EQ(trace.deltas[0].added.size(), 1u);
  // Round 2 -> 3: b-c out.
  EXPECT_EQ(trace.deltas[1].removed.size(), 1u);
  EXPECT_TRUE(trace.deltas[1].added.empty());
}

TEST(SnapshotDir, ValidDiffsAreAcceptedAndBadOnesRejected) {
  const std::string ok = freshDir("snapdir_diff_ok");
  writeSnapshotFixture(ok);
  fs::create_directories(ok + "/diff");
  writeFile(ok + "/diff/2.diff", "- c d\n+ b d\n");
  writeFile(ok + "/diff/3.diff", "- b c\n");
  EXPECT_EQ(compile(parseSnapshotDir(ok)).rounds, 3);

  // A diff that patches to something other than the next snapshot.
  const std::string bad = freshDir("snapdir_diff_bad");
  writeSnapshotFixture(bad);
  fs::create_directories(bad + "/diff");
  writeFile(bad + "/diff/2.diff", "- c d\n");  // misses "+ b d"
  expectLoudFailure([&] { parseSnapshotDir(bad); }, "internally inconsistent");
}

TEST(SnapshotDir, MalformedLayoutsFailLoudly) {
  // Missing snapshot index (1 and 3 but no 2).
  const std::string gap = freshDir("snapdir_gap");
  fs::create_directories(gap + "/sn");
  writeFile(gap + "/sn/1.edges", "a b\n");
  writeFile(gap + "/sn/3.edges", "a b\n");
  expectLoudFailure([&] { parseSnapshotDir(gap); }, "2.edges");

  // Duplicate edge within one snapshot.
  const std::string dup = freshDir("snapdir_dup");
  fs::create_directories(dup + "/sn");
  writeFile(dup + "/sn/1.edges", "a b\nb a\n");
  expectLoudFailure([&] { parseSnapshotDir(dup); }, "duplicate");

  // Diff adding an edge that is already present.
  const std::string plus = freshDir("snapdir_plus");
  writeSnapshotFixture(plus);
  fs::create_directories(plus + "/diff");
  writeFile(plus + "/diff/2.diff", "+ a b\n- c d\n+ b d\n");
  expectLoudFailure([&] { parseSnapshotDir(plus); }, "already present");
}

// ----------------------------------------------------------------- compile

TEST(Compile, MergesTouchingAndDuplicateIntervals) {
  // a-b active [1,3] and [4,6] (back-to-back) plus an exact duplicate:
  // one continuous presence, no delta churn in between.
  const CompiledTrace trace =
      compile(parseText("0 2 a b\n3 5 a b\n0 2 a b\n0 6 b c\n"));
  EXPECT_EQ(trace.rounds, 7);
  ASSERT_EQ(trace.initial.size(), 2u);
  for (sim::Round r = 0; r < 5; ++r) {
    EXPECT_TRUE(trace.deltas[static_cast<std::size_t>(r)].removed.empty())
        << "round " << r + 2;
  }
  // Final round: a-b expires (b-c holds through round 7).
  EXPECT_EQ(trace.deltas[5].removed.size(), 1u);
}

/// Relabel-invariant rendering of a trace: the per-round active edge set
/// under node *labels* (ids stringified when unlabeled).  Re-parsing
/// event-list text interns tokens in first-appearance order, so ids may
/// permute across a write/parse round trip while the labeled topology
/// timeline must not.
std::vector<std::set<std::pair<std::string, std::string>>> labeledTimeline(
    const CompiledTrace& t) {
  const auto name = [&](net::NodeId v) {
    return t.labels.empty() ? std::to_string(v)
                            : t.labels[static_cast<std::size_t>(v)];
  };
  const auto norm = [&](const net::Edge& e) {
    std::pair<std::string, std::string> p{name(e.a), name(e.b)};
    if (p.second < p.first) {
      std::swap(p.first, p.second);
    }
    return p;
  };
  std::set<std::pair<std::string, std::string>> active;
  std::vector<std::set<std::pair<std::string, std::string>>> rounds;
  for (const net::Edge& e : t.initial) {
    active.insert(norm(e));
  }
  rounds.push_back(active);
  for (const RoundDelta& d : t.deltas) {
    for (const net::Edge& e : d.removed) {
      active.erase(norm(e));
    }
    for (const net::Edge& e : d.added) {
      active.insert(norm(e));
    }
    rounds.push_back(active);
  }
  return rounds;
}

TEST(Compile, RoundTripsThroughWriteEventList) {
  const CompiledTrace original = randomTrace(24, 60, 3, 0xDA7A);
  std::ostringstream text;
  writeEventList(text, original);
  std::istringstream in(text.str());
  const CompiledTrace reparsed =
      compile(parseEventList(in, "roundtrip.events"));
  // source_hash differs by construction, and ids may permute (the parser
  // interns tokens in first-appearance order); the labeled topology
  // timeline must survive exactly.
  EXPECT_EQ(original.num_nodes, reparsed.num_nodes);
  EXPECT_EQ(original.rounds, reparsed.rounds);
  EXPECT_EQ(labeledTimeline(original), labeledTimeline(reparsed));
}

TEST(Compile, PositionalPatchMatchesGraphApplyDelta) {
  // Both sides run net::patchEdges, so each is held to the first-match
  // reference scan as well as to the other.
  const CompiledTrace trace = randomTrace(16, 40, 4, 7);
  std::vector<net::Edge> want = trace.initial;
  std::vector<net::Edge> edges = trace.initial;
  net::GraphPtr graph = std::make_shared<net::Graph>(trace.num_nodes, edges);
  for (std::size_t i = 0; i < trace.deltas.size(); ++i) {
    const RoundDelta& d = trace.deltas[i];
    ASSERT_EQ(testsupport::referencePositionalPatch(want, d.removed, d.added),
              d.removed.size());
    applyPositionalPatch(edges, d.removed, d.added, "trace",
                         static_cast<sim::Round>(i + 2));
    ASSERT_EQ(edges, want) << "diverged at delta " << i;
    graph = net::applyDelta(graph, d.removed, d.added);
    const std::span<const net::Edge> got = graph->edges();
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "diverged at delta " << i;
  }
}

// ------------------------------------------------------------ binary cache

TEST(CompiledCache, SerializeParseRoundTrip) {
  const CompiledTrace trace = randomTrace(20, 50, 3, 99);
  const std::string dir = freshDir("dtc_roundtrip");
  const std::string path = dir + "/t.dtc";
  writeCompiledFile(path, trace);
  EXPECT_TRUE(isCompiledFile(path));
  const CompiledTrace back = readCompiledFile(path);
  EXPECT_TRUE(trace == back);
  EXPECT_EQ(contentHash(trace), contentHash(back));
}

TEST(CompiledCache, TornTailAndCorruptionFailLoudly) {
  const CompiledTrace trace = randomTrace(12, 30, 2, 5);
  const std::string dir = freshDir("dtc_torn");
  const std::string path = dir + "/t.dtc";
  writeCompiledFile(path, trace);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();

  // Torn tail: a writer killed mid-dump leaves a truncated file.
  writeFile(path, bytes.substr(0, bytes.size() - 11));
  expectLoudFailure([&] { readCompiledFile(path); }, "byte");

  // Bit flip inside the payload: trailing hash catches it.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  writeFile(path, flipped);
  expectLoudFailure([&] { readCompiledFile(path); }, "hash mismatch");

  // Wrong magic: not a compiled trace at all.
  expectLoudFailure([&] { readCompiledFile(path + ".nope"); }, "");
  writeFile(path, "DEFINITELYNOTATRACE");
  expectLoudFailure([&] { readCompiledFile(path); }, "magic");
}

/// A .dtc file around `payload`: magic, payload, valid FNV-1a trailer.
std::string sealedCache(const std::string& payload) {
  std::string bytes(kCompiledMagic, sizeof(kCompiledMagic));
  bytes += payload;
  const std::uint64_t hash = fnv1a64(payload);
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<char>((hash >> (8 * i)) & 0xff));
  }
  return bytes;
}

/// Payload header: version, bucket 1.0, source hash 0, n, rounds, labels.
std::string cacheHeader(std::uint32_t n, std::uint32_t rounds,
                        std::uint32_t labels) {
  std::string out;
  const auto u32 = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  const auto u64 = [&u32](std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  };
  u32(kCompiledVersion);
  u64(std::bit_cast<std::uint64_t>(1.0));
  u64(0);
  u32(n);
  u32(rounds);
  u32(labels);
  return out;
}

TEST(CompiledCache, HostileCountsFailBeforeAllocating) {
  // Each file is well-formed up to one count that claims far more records
  // than the bytes left could hold; the loader must refuse it with a
  // located error instead of reserving gigabytes.
  const std::string dir = freshDir("dtc_hostile");
  const std::string path = dir + "/t.dtc";
  const std::string kNoEdges("\0\0\0\0", 4);
  const std::string kAllOnes("\xff\xff\xff\xff", 4);

  writeFile(path, sealedCache(cacheHeader(4, 1, 0) + kAllOnes));
  expectLoudFailure([&] { readCompiledFile(path); },
                    "initial edges count 4294967295 at byte 32");

  writeFile(path, sealedCache(cacheHeader(4, 0x7fffffff, 0) + kNoEdges));
  expectLoudFailure([&] { readCompiledFile(path); },
                    "round count 2147483647 needs at least");

  writeFile(path, sealedCache(cacheHeader(0x7fffffff, 1, 0x7fffffff)));
  expectLoudFailure([&] { readCompiledFile(path); },
                    "label count 2147483647 needs at least");
}

TEST(CompiledCache, SidecarHitsSkipTextAndStaleSidecarsReparse) {
  const std::string dir = freshDir("dtc_sidecar");
  const std::string path = dir + "/t.events";
  const CompiledTrace generated = randomTrace(18, 40, 3, 13);
  {
    std::ofstream out(path);
    writeEventList(out, generated);
  }
  const LoadedTrace first = loadTrace(path);
  EXPECT_FALSE(first.from_cache);
  ASSERT_FALSE(first.cache_path.empty());
  EXPECT_TRUE(fs::exists(first.cache_path));

  const LoadedTrace second = loadTrace(path);
  EXPECT_TRUE(second.from_cache);
  EXPECT_TRUE(*first.trace == *second.trace);

  // A different bucket is a different compilation: the sidecar must miss.
  LoadOptions other_bucket;
  other_bucket.bucket = 2.0;
  other_bucket.write_cache = false;
  EXPECT_FALSE(loadTrace(path, other_bucket).from_cache);

  // Source edit invalidates the sidecar (source_hash mismatch).
  {
    std::ofstream out(path, std::ios::app);
    out << "1 5 x y\n";
  }
  const LoadedTrace after_edit = loadTrace(path);
  EXPECT_FALSE(after_edit.from_cache);
  EXPECT_FALSE(*after_edit.trace == *first.trace);
  EXPECT_TRUE(loadTrace(path).from_cache);  // rewritten and fresh again
}

// ----------------------------------------------------------- TraceAdversary

adv::TraceReplayOptions replayOptions(adv::TraceReplayOptions::EndPolicy p) {
  adv::TraceReplayOptions options;
  options.policy = p;
  return options;
}

TEST(TraceAdversary, EndPoliciesMapPositionsCorrectly) {
  const auto trace = std::make_shared<const CompiledTrace>(
      randomTrace(10, 4, 2, 3));  // rounds 1..4
  using EndPolicy = adv::TraceReplayOptions::EndPolicy;
  adv::TraceAdversary wrap(trace, replayOptions(EndPolicy::kWrap));
  adv::TraceAdversary clamp(trace, replayOptions(EndPolicy::kClamp));
  adv::TraceAdversary mirror(trace, replayOptions(EndPolicy::kMirror));
  const std::vector<sim::Round> wrap_expect = {1, 2, 3, 4, 1, 2, 3, 4, 1};
  const std::vector<sim::Round> clamp_expect = {1, 2, 3, 4, 4, 4, 4, 4, 4};
  // Mirror period 2*4-2 = 6: 1 2 3 4 3 2 | 1 2 3 ...
  const std::vector<sim::Round> mirror_expect = {1, 2, 3, 4, 3, 2, 1, 2, 3};
  for (sim::Round r = 1; r <= 9; ++r) {
    EXPECT_EQ(wrap.tracePosition(r), wrap_expect[static_cast<std::size_t>(r - 1)]);
    EXPECT_EQ(clamp.tracePosition(r),
              clamp_expect[static_cast<std::size_t>(r - 1)]);
    EXPECT_EQ(mirror.tracePosition(r),
              mirror_expect[static_cast<std::size_t>(r - 1)]);
  }
}

TEST(TraceAdversary, ParseEndPolicyIsLoudOnGarbage) {
  EXPECT_EQ(adv::parseEndPolicy("wrap"),
            adv::TraceReplayOptions::EndPolicy::kWrap);
  EXPECT_EQ(adv::parseEndPolicy("mirror"),
            adv::TraceReplayOptions::EndPolicy::kMirror);
  expectLoudFailure([] { adv::parseEndPolicy("bounce"); }, "bounce");
}

struct ReplayArtifacts {
  sim::RunResult result;
  std::vector<std::uint64_t> digests;
};

ReplayArtifacts replayRun(std::shared_ptr<const CompiledTrace> trace,
                          adv::TraceReplayOptions options, sim::Round rounds,
                          std::uint64_t seed, bool deltas) {
  const proto::FloodFactory factory(0, 0x2a, 8,
                                    proto::FloodMode::kDeterministic, 0);
  std::unique_ptr<sim::Adversary> adversary =
      std::make_unique<adv::TraceAdversary>(trace, options);
  if (!deltas) {
    adversary = std::make_unique<sim::RebuildEveryRound>(std::move(adversary));
  }
  sim::EngineConfig config;
  config.max_rounds = rounds;
  config.stop_when_all_done = false;
  sim::Engine engine(factory, std::move(adversary), config, seed);
  ReplayArtifacts artifacts;
  artifacts.result = engine.run();
  for (sim::NodeId v = 0; v < trace->num_nodes; ++v) {
    artifacts.digests.push_back(engine.stateDigest(v));
  }
  return artifacts;
}

TEST(TraceAdversary, DeltaAndRebuildPathsAgreeUnderEveryPolicy) {
  const auto trace =
      std::make_shared<const CompiledTrace>(randomTrace(20, 12, 3, 0xBEEF));
  using EndPolicy = adv::TraceReplayOptions::EndPolicy;
  for (const EndPolicy policy :
       {EndPolicy::kWrap, EndPolicy::kClamp, EndPolicy::kMirror}) {
    for (const bool seeded : {false, true}) {
      adv::TraceReplayOptions options = replayOptions(policy);
      options.seeded_offset = seeded;
      options.seed = 0x5EED;
      // Run well past the trace end so every policy actually triggers.
      const ReplayArtifacts fast =
          replayRun(trace, options, /*rounds=*/40, 0x5EED, /*deltas=*/true);
      const ReplayArtifacts legacy =
          replayRun(trace, options, /*rounds=*/40, 0x5EED, /*deltas=*/false);
      EXPECT_EQ(fast.result.messages_sent, legacy.result.messages_sent)
          << adv::endPolicyName(policy) << " seeded=" << seeded;
      EXPECT_EQ(fast.result.bits_sent, legacy.result.bits_sent);
      EXPECT_EQ(fast.digests, legacy.digests)
          << adv::endPolicyName(policy) << " seeded=" << seeded;
    }
  }
}

TEST(TraceAdversary, MixedEntryPointsServeTheSameTopologies) {
  // One adversary alternates topologyUpdate() and topology(), so each
  // entry point patches the graph the other one returned last round.  A
  // topology()-only twin is the reference, round by round, through mirror
  // descents and wraps.
  const auto trace =
      std::make_shared<const CompiledTrace>(randomTrace(14, 6, 3, 0xD1));
  using EndPolicy = adv::TraceReplayOptions::EndPolicy;
  for (const EndPolicy policy : {EndPolicy::kWrap, EndPolicy::kMirror}) {
    adv::TraceAdversary mixed(trace, replayOptions(policy));
    adv::TraceAdversary reference(trace, replayOptions(policy));
    net::GraphPtr prev;
    for (sim::Round r = 1; r <= 20; ++r) {
      net::GraphPtr got;
      if (r % 3 == 0) {
        got = mixed.topology(r, {});
      } else {
        sim::TopologyUpdate update;
        ASSERT_TRUE(mixed.topologyUpdate(r, {}, prev, update));
        got = update.graph;
      }
      prev = got;
      const net::GraphPtr want = reference.topology(r, {});
      const std::span<const net::Edge> a = got->edges();
      const std::span<const net::Edge> b = want->edges();
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << adv::endPolicyName(policy) << " round " << r;
    }
  }
}

TEST(TraceAdversary, MissingRemovedEdgeNamesTraceAndRoundOnBothPaths) {
  // Round 3's delta removes (0,3), which round 2 never had: a corrupt
  // timeline (a .dtc with a valid hash can carry one).  Both entry points
  // must fail with the same located message.
  CompiledTrace bad;
  bad.num_nodes = 4;
  bad.rounds = 3;
  bad.source = "bad.dtc";
  bad.initial = {{0, 2}};
  bad.deltas = {{{}, {{1, 3}}}, {{{0, 3}}, {}}};
  const auto trace = std::make_shared<const CompiledTrace>(bad);
  const std::string want = "trace bad.dtc round 3: removed edge (0,3) not present";

  adv::TraceAdversary full(trace, {});
  full.topology(1, {});
  full.topology(2, {});
  expectLoudFailure([&] { full.topology(3, {}); }, want);

  adv::TraceAdversary delta(trace, {});
  sim::TopologyUpdate update;
  ASSERT_TRUE(delta.topologyUpdate(1, {}, nullptr, update));
  net::GraphPtr prev = update.graph;
  ASSERT_TRUE(delta.topologyUpdate(2, {}, prev, update));
  prev = update.graph;
  expectLoudFailure([&] { delta.topologyUpdate(3, {}, prev, update); }, want);
}

TEST(TraceAdversary, SpineKeepsEveryRoundConnected) {
  // randomTrace graphs are not guaranteed connected once churned; the
  // spine overlay must carry the connectivity check on its own.
  const auto trace =
      std::make_shared<const CompiledTrace>(randomTrace(16, 20, 5, 0xC0));
  const proto::FloodFactory factory(0, 0x2a, 8,
                                    proto::FloodMode::kDeterministic, 0);
  sim::EngineConfig config;
  config.max_rounds = 30;  // connectivity check on by default
  sim::Engine engine(
      factory,
      std::make_unique<adv::TraceAdversary>(
          trace, replayOptions(adv::TraceReplayOptions::EndPolicy::kWrap)),
      config, 1);
  // The engine's per-round connectivity guard (on by default) throws on
  // the first disconnected topology, so completing the run IS the spine
  // working; the token reaching every node confirms it end to end.
  const sim::RunResult r = engine.run();
  EXPECT_EQ(r.rounds_executed, 30);
  for (sim::NodeId v = 0; v < trace->num_nodes; ++v) {
    EXPECT_EQ(engine.nodeOutput(v), 0x2au) << "node " << v;
  }
}

// ------------------------------------------------- campaign checkpoint/resume

TEST(TraceCampaign, ReplayIsByteIdenticalAcrossCheckpointResume) {
  const std::string data_dir = freshDir("trace_campaign_data");
  const std::string events_path = data_dir + "/t.events";
  {
    std::ofstream out(events_path);
    writeEventList(out, randomTrace(16, 24, 3, 0xCA4));
  }

  campaign::CampaignSpec spec;
  spec.protocols = {"flood", "anon_count"};
  spec.adversaries = {"trace"};
  spec.nodes = {16};
  spec.knobs.trace = events_path;
  spec.knobs.trace_policy = "mirror";
  spec.seed_count = 4;
  spec.seeds_per_shard = 2;
  spec.knobs.max_rounds = 4'000;

  const auto report = [&](const std::string& dir,
                          bool expect_resume_noop) -> std::string {
    campaign::CampaignOptions options;
    options.checkpoint_dir = dir;
    const campaign::CampaignOutcome outcome =
        campaign::runCampaign(spec, options);
    EXPECT_TRUE(outcome.fullCoverage());
    if (expect_resume_noop) {
      EXPECT_EQ(outcome.completed_new, 0);
    }
    campaign::CheckpointStore store(dir);
    std::ostringstream out;
    campaign::writeReport(spec, store, out);
    return out.str();
  };

  const std::string dir1 = freshDir("trace_campaign_a");
  const std::string fresh = report(dir1, false);
  const std::string resumed = report(dir1, true);  // all shards checkpointed
  const std::string other = report(freshDir("trace_campaign_b"), false);
  EXPECT_EQ(fresh, resumed);
  EXPECT_EQ(fresh, other);
  // The report merges the per-trial series across both protocols' shards.
  EXPECT_NE(fresh.find("trial/all_done"), std::string::npos) << fresh;
  EXPECT_NE(fresh.find("\"campaign/trials\": 8"), std::string::npos) << fresh;
}

TEST(TraceCampaign, SpecValidationIsLoud) {
  expectLoudFailure(
      [] {
        campaign::CampaignSpec::parse(
            R"({"protocols":["flood"],"adversaries":["trace"],)"
            R"("nodes":[8],"seeds":{"count":1}})");
      },
      "needs a 'trace'");
  expectLoudFailure(
      [] {
        campaign::CampaignSpec::parse(
            R"({"protocols":["flood"],"adversaries":["static_path"],)"
            R"("nodes":[8],"seeds":{"count":1},"trace":"x.events"})");
      },
      "only the 'trace' adversary");
  expectLoudFailure(
      [] {
        campaign::CampaignSpec::parse(
            R"({"protocols":["flood"],"adversaries":["trace"],)"
            R"("nodes":[8],"seeds":{"count":1},"trace":"x.events",)"
            R"("trace_policy":"bounce"})");
      },
      "trace_policy");
}

TEST(TraceCampaign, ShardHashesWithoutTraceKeysAreUnchanged) {
  // The canonical JSON of a non-trace shard must not mention the new keys
  // at all — existing checkpoint directories address shards by this hash.
  campaign::ShardConfig shard;
  const std::string json = shard.canonicalJson();
  EXPECT_EQ(json.find("trace"), std::string::npos) << json;
  EXPECT_EQ(json.find("anonymous"), std::string::npos) << json;
  // Round-trip: parse of the canonical form reproduces the hash.
  campaign::ShardConfig back =
      campaign::parseShardConfig(obs::Json::parse(json));
  EXPECT_EQ(back.hash(), shard.hash());

  shard.adversary = "trace";
  shard.trace = "data.events";
  shard.anonymous = true;
  const std::string with = shard.canonicalJson();
  EXPECT_NE(with.find("\"trace\":\"data.events\""), std::string::npos) << with;
  EXPECT_NE(with.find("\"anonymous\":true"), std::string::npos) << with;
  campaign::ShardConfig back2 =
      campaign::parseShardConfig(obs::Json::parse(with));
  EXPECT_EQ(back2.hash(), shard.hash());
}

}  // namespace
}  // namespace dynet::dataset
