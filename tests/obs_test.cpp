// Tests for parowl::obs — the metrics registry, the span tracer, the stats
// protocol, and the guarantee that instrumentation never changes results.
//
// The tracer and registry are process-global, so every test that enables
// them restores the disabled/empty state on exit (ObsTraceTest fixture).

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <thread>
#include <vector>

#include "parowl/obs/obs.hpp"
#include "parowl/parallel/pipeline.hpp"
#include "parowl/rdf/chunked_reader.hpp"
#include "parowl/rdf/snapshot.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/util/table.hpp"

// Defined in obs_disabled_tu.cpp, compiled with PAROWL_OBS_DISABLED: runs a
// block whose PAROWL_SPAN / PAROWL_COUNT must compile away to nothing.
namespace parowl::obs_disabled_probe {
int run_instrumented_block(int iterations);
}

namespace parowl::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal strict JSON parser (objects/arrays/strings/numbers/bools/null).
// Used to prove the trace and metrics emitters produce well-formed JSON
// without depending on an external library.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  /// True iff `text` is exactly one valid JSON value (plus whitespace).
  bool valid() {
    skip_ws();
    if (!value()) {
      return false;
    }
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) {
        return false;
      }
      skip_ws();
      if (peek() != ':') {
        return false;
      }
      ++pos_;
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    while (std::isdigit(static_cast<unsigned char>(peek()))) {
      ++pos_;
    }
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') {
        ++pos_;
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    return pos_ > start &&
           std::isdigit(static_cast<unsigned char>(text_[pos_ - 1]));
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics registry

TEST(ObsRegistryTest, CounterConcurrentTotalIsExact) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("test.hits");
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.add(1);
      }
    });
  }
  for (auto& t : pool) {
    t.join();
  }
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(ObsRegistryTest, LookupReturnsStableInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("same");
  registry.counter("other").add(7);
  Counter& b = registry.counter("same");
  EXPECT_EQ(&a, &b);
  a.add(2);
  EXPECT_EQ(b.value(), 2u);
}

TEST(ObsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("depth");
  g.set(4.0);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.5);
}

TEST(ObsRegistryTest, HistogramPercentilesAreOrderedAndCounted) {
  Histogram h;
  for (int i = 0; i < 90; ++i) {
    h.record_seconds(1e-4);  // 100 us
  }
  for (int i = 0; i < 10; ++i) {
    h.record_seconds(1e-1);  // 100 ms
  }
  EXPECT_EQ(h.count(), 100u);
  const double p50 = h.percentile_seconds(0.50);
  const double p95 = h.percentile_seconds(0.95);
  const double p99 = h.percentile_seconds(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // p50 must land in the 100 us bucket region, p99 in the 100 ms region;
  // bucket upper edges bound the error to 2x.
  EXPECT_LT(p50, 1e-3);
  EXPECT_GT(p99, 1e-2);

  Histogram copy(h);  // copy merges
  EXPECT_EQ(copy.count(), 100u);
  copy.merge(h);
  EXPECT_EQ(copy.count(), 200u);
}

TEST(ObsRegistryTest, SnapshotAndJsonAreWellFormed) {
  MetricsRegistry registry;
  registry.counter("b.count").add(3);
  registry.counter("a.count").add(1);
  registry.gauge("a.gauge").set(2.5);
  registry.histogram("lat").record_seconds(0.001);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.count");  // sorted by name
  EXPECT_EQ(snap.counters[1].second, 3u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);

  std::ostringstream os;
  registry.to_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"a.count\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer / spans

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().clear();
    Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    Tracer::global().set_enabled(false);
    Tracer::global().clear();
    Tracer::global().set_max_events(1u << 20);
  }
};

TEST_F(ObsTraceTest, SpanRecordsNameArgsAndCategory) {
  {
    Span span("reason.round", {{"round", 3}, {"rate", 0.5}, {"tag", "x"}});
    span.arg({"derived", 17});
  }
  EXPECT_EQ(Tracer::global().event_count(), 1u);
  std::ostringstream os;
  Tracer::global().write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"name\":\"reason.round\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"reason\""), std::string::npos);
  EXPECT_NE(json.find("\"round\":3"), std::string::npos);
  EXPECT_NE(json.find("\"derived\":17"), std::string::npos);
  EXPECT_NE(json.find("\"tag\":\"x\""), std::string::npos);
}

TEST_F(ObsTraceTest, NestedSpansShareTheThreadTrack) {
  {
    Span outer("parallel.round", {});
    {
      Span inner("parallel.compute", {});
    }
  }
  EXPECT_EQ(Tracer::global().event_count(), 2u);
  // Same thread -> same track id, so Perfetto renders the inner span nested
  // inside the outer one on the same row.
  std::ostringstream os;
  Tracer::global().write_json(os);
  const std::string json = os.str();
  ASSERT_NE(json.find("parallel.round"), std::string::npos);
  ASSERT_NE(json.find("parallel.compute"), std::string::npos);
  const std::string tid_key = "\"tid\":";
  const auto first_tid = json.find(tid_key);
  const auto second_tid = json.find(tid_key, first_tid + tid_key.size());
  ASSERT_NE(second_tid, std::string::npos);
  const auto tid_of = [&](std::size_t at) {
    return std::stoul(json.substr(at + tid_key.size()));
  };
  EXPECT_EQ(tid_of(first_tid), tid_of(second_tid));
}

TEST_F(ObsTraceTest, SpansFromDifferentThreadsGetDifferentTracks) {
  std::uint32_t main_track = 0;
  std::uint32_t other_track = 0;
  {
    Span span("a.main", {});
    main_track = Tracer::this_thread_track();
  }
  std::thread other([&other_track] {
    Span span("a.other", {});
    other_track = Tracer::this_thread_track();
  });
  other.join();
  EXPECT_NE(main_track, other_track);
  EXPECT_EQ(Tracer::global().event_count(), 2u);
}

TEST_F(ObsTraceTest, TidOverridePinsVirtualTrack) {
  Tracer::global().name_track(107, "worker 7");
  {
    Span span("parallel.round", {{"round", 1}}, 107);
  }
  std::ostringstream os;
  Tracer::global().write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"tid\":107"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 7\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
}

TEST_F(ObsTraceTest, CloseEndsTheSpanOnce) {
  Span span("a.early", {});
  span.close();
  EXPECT_FALSE(span.live());
  span.close();  // second close is a no-op
  EXPECT_EQ(Tracer::global().event_count(), 1u);
}

TEST_F(ObsTraceTest, EventCapDropsInsteadOfGrowing) {
  Tracer::global().set_max_events(10);
  for (int i = 0; i < 25; ++i) {
    Span span("a.b", {});
  }
  EXPECT_LE(Tracer::global().event_count(), 10u);
  EXPECT_GE(Tracer::global().dropped_count(), 15u);
}

TEST_F(ObsTraceTest, DisabledSpansAreNotLiveAndRecordNothing) {
  Tracer::global().set_enabled(false);
  {
    Span span("a.b", {{"k", 1}});
    EXPECT_FALSE(span.live());
    span.arg({"ignored", 2});
  }
  EXPECT_EQ(Tracer::global().event_count(), 0u);
}

TEST_F(ObsTraceTest, WriteJsonIsAlwaysParseable) {
  // Escaping-hostile content: quotes, backslashes, control chars.
  {
    Span span("weird.\"name\\", {{"k\n", "v\t\"x\\"}});
  }
  std::ostringstream os;
  Tracer::global().write_json(os);
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

TEST_F(ObsTraceTest, ConcurrentSpansAllArrive) {
  constexpr unsigned kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        Span span("load.spin", {{"i", i}});
      }
    });
  }
  for (auto& t : pool) {
    t.join();
  }
  EXPECT_EQ(Tracer::global().event_count(), kThreads * kPerThread);
  std::ostringstream os;
  Tracer::global().write_json(os);
  EXPECT_TRUE(JsonChecker(os.str()).valid());
}

// ---------------------------------------------------------------------------
// PAROWL_OBS_DISABLED compile-out guard (obs_disabled_tu.cpp)

TEST(ObsDisabledTest, MacrosCompileToNothing) {
  Tracer::global().clear();
  Tracer::global().set_enabled(true);
  const std::uint64_t before =
      MetricsRegistry::global().counter("obs_disabled_probe.calls").value();
  const int result = obs_disabled_probe::run_instrumented_block(50);
  EXPECT_EQ(result, 50);
  EXPECT_EQ(
      MetricsRegistry::global().counter("obs_disabled_probe.calls").value(),
      before);  // PAROWL_COUNT compiled out
  EXPECT_EQ(Tracer::global().event_count(), 0u);  // PAROWL_SPAN compiled out
  Tracer::global().set_enabled(false);
  Tracer::global().clear();
}

// ---------------------------------------------------------------------------
// Stats protocol (fields / to_json / print / publish)

TEST(ObsReportTest, FieldsDriveJsonTableAndRegistry) {
  rdf::ParseStats stats;
  stats.triples = 12;
  stats.duplicates = 3;
  stats.bad_lines = 1;
  stats.first_error = "line 9: bad \"term\"";

  const std::string json = to_json(stats);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"triples\":12"), std::string::npos);
  EXPECT_NE(json.find("\\\"term\\\""), std::string::npos);

  util::Table table({"metric", "value"});
  print(stats, table);
  EXPECT_EQ(table.row_count(), fields(stats).size());

  MetricsRegistry registry;
  publish(stats, "rdf.test", registry);
  EXPECT_DOUBLE_EQ(registry.gauge("rdf.test.triples").value(), 12.0);
  EXPECT_DOUBLE_EQ(registry.gauge("rdf.test.duplicates").value(), 3.0);
  // Publishing is idempotent (gauges use set semantics).
  publish(stats, "rdf.test", registry);
  EXPECT_DOUBLE_EQ(registry.gauge("rdf.test.triples").value(), 12.0);
}

TEST(ObsReportTest, EveryLayerStatsTypeIsReportable) {
  static_assert(Reportable<rdf::ParseStats>);
  static_assert(Reportable<rdf::IngestStats>);
  static_assert(Reportable<rdf::SnapshotStats>);
  static_assert(Reportable<reason::ForwardStats>);
  static_assert(Reportable<reason::MaterializeResult>);
  static_assert(Reportable<parallel::CommStats>);
  static_assert(Reportable<parallel::RunReport>);
  SUCCEED();
}

// ---------------------------------------------------------------------------
// ObsOptions / configure / sampling

TEST(ObsConfigTest, SampleStrideFollowsConfigureAndIsMonotonic) {
  ObsOptions o;
  EXPECT_EQ(sample_stride(), 1u);  // default
  o.sample_every = 4;
  configure(o);
  EXPECT_EQ(sample_stride(), 4u);
  // A nested driver configuring with default-constructed options must not
  // lower the requested stride (the monotonic rule).
  configure(ObsOptions{});
  EXPECT_EQ(sample_stride(), 4u);
  o.sample_every = 8;
  configure(o);
  EXPECT_EQ(sample_stride(), 8u);
  EXPECT_FALSE(o.tracing_requested());
  o.trace_out = "/tmp/x.json";
  EXPECT_TRUE(o.tracing_requested());
}

// ---------------------------------------------------------------------------
// Determinism: instrumentation must never change results.

class ObsDeterminismTest : public ::testing::Test {
 protected:
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};

  rdf::TermId iri(const std::string& s) { return dict.intern_iri(s); }

  void tiny_family_kb_into(rdf::TripleStore& target) {
    const auto anc = iri("ancestorOf");
    const auto parent = iri("parentOf");
    target.insert({anc, vocab.rdf_type, vocab.owl_transitive_property});
    target.insert({parent, vocab.rdfs_subproperty_of, anc});
    target.insert({iri("a"), parent, iri("b")});
    target.insert({iri("b"), parent, iri("c")});
    target.insert({iri("c"), parent, iri("d")});
  }
};

TEST_F(ObsDeterminismTest, ClosureIsBitIdenticalWithTracingOnAndOff) {
  rdf::TripleStore off_store;
  tiny_family_kb_into(off_store);
  rdf::TripleStore on_store;
  tiny_family_kb_into(on_store);

  Tracer::global().clear();
  Tracer::global().set_enabled(false);
  const reason::MaterializeResult off =
      reason::materialize(off_store, dict, vocab, {});

  Tracer::global().set_enabled(true);
  const reason::MaterializeResult on =
      reason::materialize(on_store, dict, vocab, {});
  EXPECT_GT(Tracer::global().event_count(), 0u);
  Tracer::global().set_enabled(false);
  Tracer::global().clear();

  EXPECT_EQ(off.inferred, on.inferred);
  EXPECT_EQ(off.iterations, on.iterations);
  ASSERT_EQ(off_store.size(), on_store.size());
  // Bit-identical: same triples in the same derivation order.
  for (std::size_t i = 0; i < off_store.size(); ++i) {
    EXPECT_EQ(off_store.triples()[i], on_store.triples()[i]) << "at " << i;
  }
}

TEST_F(ObsDeterminismTest, TracedClusterRunEmitsPerWorkerSpans) {
  rdf::TripleStore store;
  tiny_family_kb_into(store);

  Tracer::global().clear();
  Tracer::global().set_enabled(true);

  parallel::ParallelOptions opts;
  opts.partitions = 2;
  const partition::HashOwnerPolicy policy;
  opts.policy = &policy;
  const parallel::ParallelResult r =
      parallel::parallel_materialize(store, dict, vocab, opts);
  EXPECT_GT(r.inferred, 0u);

  std::ostringstream os;
  Tracer::global().write_json(os);
  const std::string json = os.str();
  Tracer::global().set_enabled(false);
  Tracer::global().clear();

  EXPECT_TRUE(JsonChecker(json).valid());
  // Per-worker virtual tracks 100 and 101, named and carrying round spans.
  EXPECT_NE(json.find("\"name\":\"worker 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 1\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":100"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":101"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"parallel.round\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"parallel.send\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"parallel.recv\""), std::string::npos);
  // The master side: plan, base loads, executor finalize, merge, teardown.
  for (const char* name :
       {"reason.compile", "parallel.plan", "partition.metrics",
        "parallel.load", "parallel.finalize", "parallel.merge",
        "parallel.merge.insert", "parallel.teardown"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << name;
  }
}


TEST_F(ObsDeterminismTest, TracedParallelIngestNamesEveryMergeStep) {
  std::string text;
  for (int i = 0; i < 400; ++i) {
    text += "<http://x/s" + std::to_string(i % 90) + "> <http://x/p" +
            std::to_string(i % 3) + "> <http://x/o" + std::to_string(i) +
            "> .\n";
  }
  Tracer::global().clear();
  Tracer::global().set_enabled(true);
  rdf::TripleStore store;
  rdf::IngestOptions opts;
  opts.threads = 3;
  const rdf::IngestStats stats = rdf::ingest_ntriples(text, dict, store, opts);
  EXPECT_EQ(stats.parse.triples, 400u);

  std::ostringstream os;
  Tracer::global().write_json(os);
  const std::string json = os.str();
  Tracer::global().set_enabled(false);
  Tracer::global().clear();

  EXPECT_TRUE(JsonChecker(json).valid());
  // Scan, parse and each step of the merge, including freeing the chunk
  // tables, so no ingest time falls outside a named span.
  for (const char* name :
       {"rdf.ingest", "rdf.scan", "rdf.parse", "rdf.parse.chunk", "rdf.merge",
        "rdf.merge.dict", "rdf.merge.insert", "rdf.merge.sink",
        "rdf.merge.free"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << name;
  }
}

}  // namespace
}  // namespace parowl::obs
