// Observability layer: metrics registry semantics, JSON round trips,
// trace-event output, DYNET_PROF, and — most importantly — the engine
// integration contracts: a null sink is byte-identical to no sink, sink
// metrics agree with RunResult, metrics.json is deterministic for
// identical seeds, and every metric an engine registers is documented in
// the docs/OBSERVABILITY.md catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "adversary/churn_adversaries.h"
#include "adversary/dynamic_adversaries.h"
#include "campaign/shard_exec.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/sink.h"
#include "obs/trace_events.h"
#include "protocols/flood.h"
#include "protocols/resilient_flood.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "test_support.h"
#include "util/check.h"

namespace dynet {
namespace {

using sim::NodeId;
using sim::Round;

// ---------------------------------------------------------------- registry

TEST(Metrics, HandlesAreStableAndSharedByName) {
  obs::MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());
  obs::Counter* c = registry.counter("a");
  c->inc();
  for (int i = 0; i < 100; ++i) {
    registry.counter("filler/" + std::to_string(i));
  }
  EXPECT_EQ(registry.counter("a"), c);  // same handle after 100 inserts
  registry.counter("a")->inc(2);
  EXPECT_EQ(c->value, 3u);
  EXPECT_FALSE(registry.empty());
}

TEST(Metrics, HistogramBucketsAndStats) {
  obs::Histogram h({1, 10, 100});
  h.observe(1);    // first bucket (x <= bound)
  h.observe(5);
  h.observe(50);
  h.observe(500);  // overflow
  ASSERT_EQ(h.bucketCounts().size(), 4u);
  EXPECT_EQ(h.bucketCounts()[0], 1u);
  EXPECT_EQ(h.bucketCounts()[1], 1u);
  EXPECT_EQ(h.bucketCounts()[2], 1u);
  EXPECT_EQ(h.bucketCounts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 556);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 500);
  // Percentile estimates stay clamped to [min, max] and are monotone.
  EXPECT_DOUBLE_EQ(h.percentileEstimate(0), 1);
  EXPECT_DOUBLE_EQ(h.percentileEstimate(1), 500);
  EXPECT_LE(h.percentileEstimate(0.25), h.percentileEstimate(0.75));
}

TEST(Metrics, SeriesSetAtZeroFills) {
  obs::Series s;
  s.setAt(3, 7);
  ASSERT_EQ(s.values().size(), 4u);
  EXPECT_DOUBLE_EQ(s.values()[0], 0);
  EXPECT_DOUBLE_EQ(s.values()[3], 7);
  s.setAt(0, 1);  // overwrite without resizing
  EXPECT_DOUBLE_EQ(s.values()[0], 1);
  EXPECT_EQ(s.values().size(), 4u);
}

// ------------------------------------------------------------------- JSON

TEST(Json, MetricsRoundTrip) {
  obs::MetricsRegistry registry;
  registry.counter("engine/messages_sent")->inc(12345);
  registry.gauge("engine/rounds")->set(17.5);
  obs::Histogram* h = registry.histogram("lat", {1, 2, 4});
  h->observe(3);
  registry.series("round/bits")->append(8);
  registry.series("round/bits")->append(16);

  const obs::Json root = obs::Json::parse(registry.toJson());
  EXPECT_DOUBLE_EQ(root.at("dynet_metrics").number(), 1);
  EXPECT_DOUBLE_EQ(root.at("counters").at("engine/messages_sent").number(),
                   12345);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("engine/rounds").number(), 17.5);
  const obs::Json& hist = root.at("histograms").at("lat");
  EXPECT_DOUBLE_EQ(hist.at("count").number(), 1);
  EXPECT_DOUBLE_EQ(hist.at("sum").number(), 3);
  ASSERT_EQ(hist.at("bounds").items().size(), 3u);
  ASSERT_EQ(hist.at("counts").items().size(), 4u);
  EXPECT_DOUBLE_EQ(hist.at("counts").items()[2].number(), 1);
  const auto& series = root.at("series").at("round/bits").items();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[1].number(), 16);
}

TEST(Json, ParsesEscapesAndNesting) {
  const obs::Json v = obs::Json::parse(
      R"({"a": [1, -2.5e2, true, false, null], "b\n": {"c": "x\"y"}})");
  EXPECT_DOUBLE_EQ(v.at("a").items()[1].number(), -250);
  EXPECT_TRUE(v.at("a").items()[2].boolean());
  EXPECT_EQ(v.at("b\n").at("c").str(), "x\"y");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(obs::Json::parse(""), util::CheckError);
  EXPECT_THROW(obs::Json::parse("{"), util::CheckError);
  EXPECT_THROW(obs::Json::parse("{\"a\": 1,}"), util::CheckError);
  EXPECT_THROW(obs::Json::parse("[1 2]"), util::CheckError);
  EXPECT_THROW(obs::Json::parse("nul"), util::CheckError);
  EXPECT_THROW(obs::Json::parse("{} trailing"), util::CheckError);
  // Nesting is capped at 256 levels, so a hostile file cannot exhaust the
  // parser's recursion: 100,000 '[' throw a located error, and a value
  // nested exactly 256 deep parses.
  try {
    obs::Json::parse(std::string(100'000, '['));
    ADD_FAILURE() << "100,000 nested arrays parsed";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "nested deeper than 256 levels at offset 256"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(obs::Json::parse(std::string(257, '[') + std::string(257, ']')),
               util::CheckError);
  std::string at_limit = std::string(255, '[') + "{\"k\": 1}";
  at_limit += std::string(255, ']');
  const obs::Json deep = obs::Json::parse(at_limit);
  const obs::Json* node = &deep;
  for (int level = 0; level < 255; ++level) {
    ASSERT_EQ(node->items().size(), 1u) << "level " << level;
    node = &node->items()[0];
  }
  EXPECT_DOUBLE_EQ(node->at("k").number(), 1);
}

TEST(Json, LargeCountersRoundTripExactly) {
  obs::MetricsRegistry registry;
  const std::uint64_t big = (std::uint64_t{1} << 53) - 1;  // exact in double
  registry.counter("big")->inc(big);
  const obs::Json root = obs::Json::parse(registry.toJson());
  EXPECT_EQ(static_cast<std::uint64_t>(root.at("counters").at("big").number()),
            big);
}

// ----------------------------------------------------------- trace events

TEST(TraceEvents, ChromeTraceAndJsonlAreWellFormed) {
  obs::TraceWriter writer;
  writer.span("phase", 1, 5, {{"round", 3}});
  writer.counter("bits", 5, 42);
  writer.instant("marker", 6);
  ASSERT_EQ(writer.events().size(), 3u);

  std::ostringstream chrome;
  writer.writeChromeTrace(chrome);
  const obs::Json root = obs::Json::parse(chrome.str());
  const auto& events = root.at("traceEvents").items();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at("name").str(), "phase");
  EXPECT_EQ(events[0].at("ph").str(), "X");
  EXPECT_DOUBLE_EQ(events[0].at("dur").number(), 4);
  EXPECT_DOUBLE_EQ(events[0].at("args").at("round").number(), 3);
  EXPECT_EQ(events[1].at("ph").str(), "C");
  EXPECT_EQ(events[2].at("ph").str(), "i");

  std::ostringstream jsonl;
  writer.writeJsonl(jsonl);
  std::istringstream lines(jsonl.str());
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    const obs::Json event = obs::Json::parse(line);
    EXPECT_TRUE(event.has("name"));
    ++parsed;
  }
  EXPECT_EQ(parsed, 3);
}

TEST(TraceEvents, BufferCapCountsDropped) {
  obs::TraceWriter writer(/*max_events=*/2);
  writer.instant("a", 0);
  writer.instant("b", 1);
  writer.instant("c", 2);
  EXPECT_EQ(writer.events().size(), 2u);
  EXPECT_EQ(writer.dropped(), 1u);
}

// -------------------------------------------------------------- profiling

TEST(Metrics, HistogramMergeAddsSamplesAndFoldsStats) {
  const std::vector<double> bounds = {1, 10, 100};
  obs::Histogram a(bounds);
  obs::Histogram b(bounds);
  a.observe(0.5);
  a.observe(50);
  b.observe(5);
  b.observe(500);  // overflow bucket
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.sum(), 555.5);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 500);
  EXPECT_EQ(a.bucketCounts(), (std::vector<std::uint64_t>{1, 1, 1, 1}));
  // Merging an empty histogram must not corrupt min/max.
  a.merge(obs::Histogram(bounds));
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_EQ(a.count(), 4u);
  obs::Histogram mismatched(std::vector<double>{1, 2});
  EXPECT_THROW(a.merge(mismatched), util::CheckError);
}

TEST(Metrics, MergeFromCombinesPerThreadRegistries) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("c")->inc(2);
  b.counter("c")->inc(3);
  b.counter("only_b")->inc(1);
  a.gauge("g")->set(1);
  b.gauge("g")->set(7);
  a.histogram("h", {10, 100})->observe(5);
  b.histogram("h", {10, 100})->observe(50);
  a.series("s")->append(1);
  b.series("s")->append(2);
  a.mergeFrom(b);
  EXPECT_EQ(a.counters().at("c").value, 5u);
  EXPECT_EQ(a.counters().at("only_b").value, 1u);
  EXPECT_DOUBLE_EQ(a.gauges().at("g").value, 7);  // last write wins
  EXPECT_EQ(a.histograms().at("h").count(), 2u);
  EXPECT_EQ(a.allSeries().at("s").values(),
            (std::vector<double>{1, 2}));
}

// ------------------------------------------------------------ event stream

TEST(Events, SerializeIsOrderedTypedJson) {
  obs::Event e("unit_test");
  e.str("name", "a \"b\"\n").num("count", 3).boolean("flag", true);
  const std::string line = e.serialize(7, 1234);
  EXPECT_EQ(line,
            "{\"dynet_event\":1,\"seq\":7,\"ts_ms\":1234,"
            "\"type\":\"unit_test\",\"name\":\"a \\\"b\\\"\\n\","
            "\"count\":3,\"flag\":true}");
  const obs::Json parsed = obs::Json::parse(line);
  EXPECT_EQ(parsed.at("seq").number(), 7);
  EXPECT_EQ(parsed.at("type").str(), "unit_test");
  EXPECT_TRUE(parsed.at("flag").boolean());
}

TEST(Events, WriterAppendsAndContinuesSeqAcrossReopen) {
  const std::string path = testsupport::testDir() + "events_reopen.jsonl";
  std::filesystem::remove(path);
  {
    obs::EventWriter writer(path);
    EXPECT_EQ(writer.emit(obs::Event("a")), 0u);
    EXPECT_EQ(writer.emit(obs::Event("b")), 1u);
  }
  {
    obs::EventWriter writer(path);
    EXPECT_EQ(writer.nextSeq(), 2u);  // continues from surviving lines
    EXPECT_EQ(writer.emit(obs::Event("c")), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::uint64_t expect_seq = 0;
  while (std::getline(in, line)) {
    const obs::Json parsed = obs::Json::parse(line);
    EXPECT_EQ(parsed.at("dynet_event").number(), 1);
    EXPECT_EQ(parsed.at("seq").number(), static_cast<double>(expect_seq));
    ++expect_seq;
  }
  EXPECT_EQ(expect_seq, 3u);
  std::filesystem::remove(path);
}

TEST(Events, WriterRepairsTornTailOnReopen) {
  const std::string path = testsupport::testDir() + "events_torn.jsonl";
  std::filesystem::remove(path);
  {
    obs::EventWriter writer(path);
    writer.emit(obs::Event("a"));
    writer.emit(obs::Event("b"));
  }
  {
    // A writer SIGKILLed mid-record leaves a line without its newline.
    std::ofstream out(path, std::ios::app);
    out << "{\"dynet_event\":1,\"seq\":2,\"ty";
  }
  {
    obs::EventWriter writer(path);
    EXPECT_EQ(writer.nextSeq(), 2u);  // torn record dropped, not counted
    writer.emit(obs::Event("c"));
  }
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> types;
  while (std::getline(in, line)) {
    types.push_back(obs::Json::parse(line).at("type").str());
  }
  EXPECT_EQ(types, (std::vector<std::string>{"a", "b", "c"}));
  std::filesystem::remove(path);
}

TEST(Events, WriterIsThreadSafeAndAssignsUniqueSeqs) {
  std::string sink;
  obs::EventWriter writer(&sink);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&writer] {
      for (int i = 0; i < 50; ++i) {
        writer.emit(obs::Event("tick"));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  std::istringstream lines(sink);
  std::string line;
  std::vector<double> seqs;
  while (std::getline(lines, line)) {
    seqs.push_back(obs::Json::parse(line).at("seq").number());
  }
  EXPECT_EQ(seqs.size(), 200u);
  std::sort(seqs.begin(), seqs.end());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], static_cast<double>(i));
  }
}

TEST(Prof, RecordProfSampleUsesTheTimerShape) {
  obs::MetricsRegistry registry;
  obs::recordProfSample(registry, "campaign//execute", 1500.0);
  obs::recordProfSample(registry, "campaign//execute", 500.0);
  EXPECT_EQ(registry.counters().at("campaign//execute/calls").value, 2u);
  EXPECT_EQ(registry.counters().at("campaign//execute/total_us").value,
            2000u);
  EXPECT_EQ(registry.histograms().at("campaign//execute/us").count(), 2u);
}

TEST(Prof, ScopedTimersAggregateIntoRegistry) {
  obs::MetricsRegistry registry;
  {
    obs::ProfScope scope(&registry);
    for (int i = 0; i < 3; ++i) {
      DYNET_PROF("test/op");
    }
  }
  EXPECT_EQ(registry.counters().at("prof/test/op/calls").value, 3u);
  EXPECT_EQ(registry.histograms().at("prof/test/op/us").count(), 3u);
  {
    // No scope installed: DYNET_PROF is a no-op, not a crash.
    DYNET_PROF("test/ignored");
  }
  EXPECT_EQ(registry.counters().count("prof/test/ignored/calls"), 0u);
}

// ------------------------------------------------------ engine integration

struct BuiltRun {
  std::unique_ptr<sim::Engine> engine;
  sim::RunResult result;
};

BuiltRun runFlood(NodeId n, std::uint64_t seed, obs::MetricsSink* sink,
                  const faults::FaultConfig* fc = nullptr) {
  proto::FloodFactory factory(0, 0x2a, 8, proto::FloodMode::kRandomized,
                              /*halt_round=*/60);
  std::vector<std::unique_ptr<sim::Process>> ps;
  for (NodeId v = 0; v < n; ++v) {
    ps.push_back(factory.create(v, n));
  }
  sim::EngineConfig config;
  config.max_rounds = 80;
  config.record_topologies = true;
  config.record_actions = true;
  config.stop_when_all_done = false;
  config.metrics = sink;
  auto engine = std::make_unique<sim::Engine>(
      std::move(ps),
      std::make_unique<adv::RandomGraphAdversary>(n, 0.5, /*seed=*/9), config,
      seed);
  if (fc != nullptr) {
    // Plan seed derived from the run seed: different seeds get different
    // fault schedules, identical seeds replay the same one.
    engine->setFaultInjector(std::make_shared<const faults::FaultInjector>(
        faults::FaultPlan(n, *fc, seed * 0x9E3779B97F4A7C15ULL + 0xFA),
        &factory));
  }
  BuiltRun run;
  run.result = engine->run();
  run.engine = std::move(engine);
  return run;
}

TEST(EngineObs, NullSinkRunIsByteIdenticalToSinkRun) {
  // The observability layer must be read-only: attaching a sink changes
  // nothing about the execution (results, per-process state, full trace).
  const NodeId n = 16;
  obs::MetricsSink sink;
  const BuiltRun with = runFlood(n, 123, &sink);
  const BuiltRun without = runFlood(n, 123, nullptr);
  EXPECT_EQ(with.result.rounds_executed, without.result.rounds_executed);
  EXPECT_EQ(with.result.done_round, without.result.done_round);
  EXPECT_EQ(with.result.messages_sent, without.result.messages_sent);
  EXPECT_EQ(with.result.bits_sent, without.result.bits_sent);
  EXPECT_EQ(with.result.bits_per_node, without.result.bits_per_node);
  EXPECT_EQ(with.result.bits_per_round, without.result.bits_per_round);
  EXPECT_EQ(with.result.max_bits_per_node, without.result.max_bits_per_node);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(with.engine->process(v).stateDigest(),
              without.engine->process(v).stateDigest());
  }
  std::ostringstream trace_with;
  std::ostringstream trace_without;
  sim::writeTrace(trace_with, with.engine->trace());
  sim::writeTrace(trace_without, without.engine->trace());
  EXPECT_EQ(trace_with.str(), trace_without.str());
}

TEST(EngineObs, SinkMetricsAgreeWithRunResult) {
  obs::MetricsSink sink;
  const BuiltRun run = runFlood(16, 5, &sink);
  const auto& reg = sink.registry;
  EXPECT_EQ(reg.counters().at("engine/messages_sent").value,
            run.result.messages_sent);
  EXPECT_EQ(reg.counters().at("engine/bits_sent").value,
            run.result.bits_sent);
  EXPECT_DOUBLE_EQ(reg.gauges().at("engine/rounds").value,
                   static_cast<double>(run.result.rounds_executed));
  EXPECT_DOUBLE_EQ(reg.gauges().at("engine/max_bits_per_node").value,
                   static_cast<double>(run.result.max_bits_per_node));
  const auto& round_bits = reg.allSeries().at("round/bits_sent").values();
  ASSERT_EQ(round_bits.size(),
            static_cast<std::size_t>(run.result.rounds_executed));
  double total = 0;
  for (const double b : round_bits) {
    total += b;
  }
  EXPECT_DOUBLE_EQ(total, static_cast<double>(run.result.bits_sent));
  const auto& node_bits = reg.allSeries().at("node/bits_sent").values();
  ASSERT_EQ(node_bits.size(), run.result.bits_per_node.size());
  std::uint64_t max_node = 0;
  for (std::size_t v = 0; v < node_bits.size(); ++v) {
    EXPECT_DOUBLE_EQ(node_bits[v],
                     static_cast<double>(run.result.bits_per_node[v]));
    max_node = std::max(max_node, run.result.bits_per_node[v]);
  }
  EXPECT_EQ(run.result.max_bits_per_node, max_node);
  EXPECT_EQ(reg.histograms().at("engine/bits_per_send").count(),
            run.result.messages_sent);
  // Protocol exportMetrics hook: flood/has_token per node.
  EXPECT_EQ(reg.allSeries().at("node/flood/has_token").values().size(),
            static_cast<std::size_t>(16));
}

TEST(EngineObs, FaultCountersAgreeWithRunResult) {
  faults::FaultConfig fc;
  fc.drop_prob = 0.2;
  fc.corrupt_prob = 0.1;
  // Detect-and-drop corruption: the plain FloodProcess rejects mangled
  // tokens loudly, so mangled payloads must not reach it.
  fc.deliver_corrupted = false;
  fc.crash_fraction = 0.25;
  fc.crash_window = 20;
  fc.restart = true;
  fc.restart_downtime = 10;
  obs::MetricsSink sink;
  const BuiltRun run = runFlood(16, 7, &sink, &fc);
  EXPECT_GT(run.result.messages_dropped, 0u);
  EXPECT_GT(run.result.crashes, 0u);
  const auto& reg = sink.registry;
  EXPECT_EQ(reg.counters().at("faults/messages_dropped").value,
            run.result.messages_dropped);
  EXPECT_EQ(reg.counters().at("faults/messages_corrupted").value,
            run.result.messages_corrupted);
  EXPECT_EQ(reg.counters().at("faults/crashes").value, run.result.crashes);
  EXPECT_EQ(reg.counters().at("faults/restarts").value, run.result.restarts);
}

TEST(EngineObs, MetricsJsonDeterministicForIdenticalSeeds) {
  // The determinism contract of docs/OBSERVABILITY.md: same seed, same
  // metrics.json, byte for byte (no prof timers installed here — wall-clock
  // prof/ metrics are the documented exception).
  faults::FaultConfig fc;
  fc.drop_prob = 0.1;
  fc.crash_fraction = 0.2;
  fc.crash_window = 16;
  obs::MetricsSink a;
  obs::MetricsSink b;
  runFlood(16, 42, &a, &fc);
  runFlood(16, 42, &b, &fc);
  EXPECT_FALSE(a.registry.empty());
  EXPECT_EQ(a.registry.toJson(), b.registry.toJson());
  obs::MetricsSink c;
  runFlood(16, 43, &c, &fc);
  EXPECT_NE(a.registry.toJson(), c.registry.toJson());  // seed matters
}

TEST(EngineObs, RoundPhaseSpansCoverEveryRound) {
  obs::TraceWriter writer;
  obs::MetricsSink sink;
  sink.trace = &writer;
  faults::FaultConfig fc;
  fc.crash_fraction = 0.2;
  fc.crash_window = 20;
  const BuiltRun run = runFlood(16, 11, &sink, &fc);
  std::map<std::string, int> spans;
  for (const obs::TraceEvent& event : writer.events()) {
    if (event.ph == 'X') {
      ++spans[event.name];
    }
  }
  const int rounds = static_cast<int>(run.result.rounds_executed);
  EXPECT_EQ(spans["adversary_pick"], rounds);
  EXPECT_EQ(spans["process_step"], rounds);
  EXPECT_EQ(spans["delivery"], rounds);
  EXPECT_EQ(spans["fault_hook"], rounds);  // injector attached
}

TEST(EngineObs, SequentialEnginesAggregateIntoSharedSink) {
  obs::MetricsSink sink;
  const BuiltRun first = runFlood(8, 1, &sink);
  const BuiltRun second = runFlood(8, 2, &sink);
  EXPECT_EQ(sink.registry.counters().at("engine/messages_sent").value,
            first.result.messages_sent + second.result.messages_sent);
}

TEST(EngineObs, ResilientFloodExportsRetransmissions) {
  const NodeId n = 12;
  proto::ResilientFloodFactory factory{proto::ResilientFloodConfig{}};
  std::vector<std::unique_ptr<sim::Process>> ps;
  for (NodeId v = 0; v < n; ++v) {
    ps.push_back(factory.create(v, n));
  }
  obs::MetricsSink sink;
  sim::EngineConfig config;
  config.max_rounds = 500;
  config.metrics = &sink;
  sim::Engine engine(std::move(ps),
                     std::make_unique<adv::RandomGraphAdversary>(n, 0.3, 3),
                     config, /*seed=*/21);
  faults::FaultConfig fc;
  fc.drop_prob = 0.3;
  engine.setFaultInjector(std::make_shared<const faults::FaultInjector>(
      faults::FaultPlan(n, fc, 0xFA), &factory));
  engine.run();
  const auto& series = sink.registry.allSeries();
  ASSERT_EQ(series.count("node/resilient_flood/retransmissions"), 1u);
  double total_retx = 0;
  for (const double r : series.at("node/resilient_flood/retransmissions").values()) {
    total_retx += r;
  }
  EXPECT_GT(total_retx, 0) << "30% loss must force re-sends";
}

// ---------------------------------------------------------- metric catalog

/// Every `backticked` span of docs/OBSERVABILITY.md.
std::set<std::string> catalogNames() {
  const std::string path = std::string(DYNET_DOCS_DIR) + "/OBSERVABILITY.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  const std::string doc = text.str();
  std::set<std::string> names;
  std::size_t open = doc.find('`');
  while (open != std::string::npos) {
    const std::size_t close = doc.find('`', open + 1);
    if (close == std::string::npos) {
      break;
    }
    names.insert(doc.substr(open + 1, close - open - 1));
    open = doc.find('`', close + 1);
  }
  return names;
}

/// Adds every registered counter, gauge, histogram and series name of
/// `reg`, except the wall-clock prof/ timers, to `names`.
void collectNames(const obs::MetricsRegistry& reg,
                  std::set<std::string>& names) {
  const auto add = [&names](const std::string& name) {
    if (name.rfind("prof/", 0) != 0) {
      names.insert(name);
    }
  };
  for (const auto& entry : reg.counters()) {
    add(entry.first);
  }
  for (const auto& entry : reg.gauges()) {
    add(entry.first);
  }
  for (const auto& entry : reg.histograms()) {
    add(entry.first);
  }
  for (const auto& entry : reg.allSeries()) {
    add(entry.first);
  }
}

// The catalog cannot drift: one sink-attached engine per protocol of the
// CLI/campaign zoo, built the way a campaign shard builds it, plus a
// fault-injected ResilientFlood run, and every name they register must
// appear spelled in full, in backticks, in docs/OBSERVABILITY.md.
TEST(EngineObs, EveryRegisteredMetricIsInTheCatalog) {
  const std::set<std::string> documented = catalogNames();
  ASSERT_FALSE(documented.empty());
  std::set<std::string> registered;
  for (const std::string& protocol : campaign::protocolNames()) {
    campaign::ShardConfig shard;
    shard.protocol = protocol;
    shard.adversary = "random_tree";
    shard.n = 12;
    shard.max_rounds = 48;
    const std::uint64_t seed = 5;
    const auto factory = campaign::makeProtocolFactory(shard, seed);
    obs::MetricsSink sink;
    sim::EngineConfig config = campaign::makeEngineConfig(shard);
    config.metrics = &sink;
    sim::Engine engine(*factory, campaign::makeAdversary(shard, seed), config,
                       seed);
    engine.run();
    collectNames(sink.registry, registered);
  }
  {
    const NodeId n = 12;
    proto::ResilientFloodFactory factory{proto::ResilientFloodConfig{}};
    obs::MetricsSink sink;
    sim::EngineConfig config;
    config.max_rounds = 200;
    config.metrics = &sink;
    sim::Engine engine(factory,
                       std::make_unique<adv::RandomGraphAdversary>(n, 0.3, 3),
                       config, /*seed=*/21);
    faults::FaultConfig fc;
    fc.drop_prob = 0.2;
    fc.corrupt_prob = 0.1;
    fc.crash_fraction = 0.25;
    fc.crash_window = 20;
    fc.restart = true;
    fc.restart_downtime = 10;
    engine.setFaultInjector(std::make_shared<const faults::FaultInjector>(
        faults::FaultPlan(n, fc, 0xFA), &factory));
    engine.run();
    collectNames(sink.registry, registered);
  }
  std::string missing;
  for (const std::string& name : registered) {
    if (documented.count(name) == 0) {
      missing += " " + name;
    }
  }
  EXPECT_TRUE(missing.empty())
      << "registered but not in docs/OBSERVABILITY.md:" << missing;
}

}  // namespace
}  // namespace dynet
