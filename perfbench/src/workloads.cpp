#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "checks.hpp"
#include "parowl/dist/service.hpp"
#include "parowl/gen/lubm.hpp"
#include "parowl/gen/uobm.hpp"
#include "parowl/ontology/vocabulary.hpp"
#include "parowl/parallel/pipeline.hpp"
#include "parowl/parallel/transport.hpp"
#include "parowl/partition/partitioner.hpp"
#include "parowl/partition/rebalance.hpp"
#include "parowl/query/sparql_parser.hpp"
#include "parowl/rdf/chunked_reader.hpp"
#include "parowl/rdf/ntriples.hpp"
#include "parowl/rdf/snapshot.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/serve/service.hpp"
#include "requests.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace pq = parowl::query;
namespace fs = std::filesystem;

namespace {

/// Requests answered on the fresh closure after each pass of the
/// materialization workloads (and by the reference process).
constexpr std::size_t kCheckRequests = 180;
/// Minimum evaluation time of the check requests per pass.
constexpr double kMinCheckPhaseSeconds = 0.5;
/// Instantiations per template for the cold query::evaluate table.
constexpr std::size_t kEvalSamples = 3;
/// Setups measured per run (median reported).
constexpr int kSetups = 3;
constexpr std::size_t kMinPasses = 3;
/// Published pins for the generator's default seed (42).
constexpr std::uint64_t kPinSeed = 42;
constexpr std::size_t kLubmPinInferred = 804960;
constexpr std::size_t kUobmPinInferred = 1327880;

using Seconds = std::vector<double>;

std::string lubm_snapshot_path(const RunConfig& cfg) {
  return cfg.data_dir + "/lubm-" + std::to_string(cfg.seed) + ".snap";
}

std::string reference_path(const RunConfig& cfg, const std::string& kind) {
  return cfg.data_dir + "/" + kind + "-" + std::to_string(cfg.seed) + ".ref";
}

/// A work file of this process (runs sharing a work directory never
/// collide).
std::string work_file(const RunConfig& cfg, const std::string& suffix) {
  return cfg.work_dir + "/" + cfg.workload + "-" + std::to_string(getpid()) +
         suffix;
}

/// Write through a process-private temporary, then rename into place, so a
/// concurrent reader sees either nothing or the whole file.
std::string temp_name(const std::string& path) {
  return path + "." + std::to_string(getpid()) + ".tmp";
}

/// Generate the workload's base KB (ontology + instances) from the seed.
void generate(const std::string& kind, std::uint64_t seed,
              rdf::Dictionary& dict, rdf::TripleStore& store) {
  if (kind == "lubm") {
    parowl::gen::LubmOptions o;
    o.universities = kLubmUniversities;
    o.seed = seed;
    parowl::gen::generate_lubm(o, dict, store);
  } else {
    // The same mapping as `parowl gen uobm --scale N`.
    parowl::gen::UobmOptions o;
    o.base.universities = kUobmUniversities;
    o.base.seed = seed;
    o.hometowns = 10 * kUobmUniversities;
    parowl::gen::generate_uobm(o, dict, store);
  }
}

/// The base KB as N-Triples text, the only thing the timed pass receives.
std::string generate_text(const std::string& kind, std::uint64_t seed) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  generate(kind, seed, dict, store);
  std::ostringstream out;
  rdf::write_ntriples(out, store, dict);
  return std::move(out).str();
}

/// The single-store closure every cluster/closure pass is checked against.
struct Reference {
  std::size_t base = 0;
  std::size_t inferred = 0;
  ClosureDigest closure;
  std::vector<AnswerDigest> answers;  // of the first kCheckRequests reads
};

bool write_reference(const std::string& path, const Reference& ref) {
  const std::string tmp = temp_name(path);
  {
    std::ofstream out(tmp);
    out << "base " << ref.base << "\ninferred " << ref.inferred
        << "\ntriples " << ref.closure.triples << "\ndigest "
        << ref.closure.digest << "\n";
    for (const AnswerDigest& a : ref.answers) {
      out << "answer " << a.rows << " " << a.digest << "\n";
    }
    if (!out.good()) {
      return false;
    }
  }
  fs::rename(tmp, path);
  return true;
}

Reference read_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("missing reference " + path +
                             " (run `perfbench prepare` first)");
  }
  Reference ref;
  std::string key;
  while (in >> key) {
    if (key == "base") {
      in >> ref.base;
    } else if (key == "inferred") {
      in >> ref.inferred;
    } else if (key == "triples") {
      in >> ref.closure.triples;
    } else if (key == "digest") {
      in >> ref.closure.digest;
    } else if (key == "answer") {
      AnswerDigest a;
      in >> a.rows >> a.digest;
      ref.answers.push_back(a);
    }
  }
  if (ref.answers.size() != kCheckRequests) {
    throw std::runtime_error("malformed reference " + path);
  }
  return ref;
}

/// Evaluation latency of the check requests across passes.  A request's
/// latency is the median of its evaluations over every round of every pass,
/// so an interference spike in one round does not move the tail;
/// throughput is requests over the median round time.
struct CheckTiming {
  std::vector<Seconds> per_request_ms = std::vector<Seconds>(kCheckRequests);
  Seconds phase_s;

  [[nodiscard]] Seconds request_ms() const {
    Seconds out;
    for (const Seconds& v : per_request_ms) {
      out.push_back(median(v));
    }
    return out;
  }

  void add_metrics(std::vector<Metric>& out) const {
    const Seconds ms = request_ms();
    out.push_back({"query_p50_ms", percentile(ms, 0.5), "ms"});
    out.push_back({"query_p99_ms", percentile(ms, 0.99), "ms"});
    out.push_back({"query_qps",
                   static_cast<double>(kCheckRequests) / median(phase_s),
                   "1/s"});
  }
};

/// Answer the first kCheckRequests reads on `store` with query::evaluate on
/// kThreads threads.  Returns per-request digests and, when `timing` is
/// given, records each evaluation's time and the phase's wall time.
std::vector<AnswerDigest> answer_checks(const rdf::TripleStore& store,
                                        rdf::Dictionary& dict,
                                        std::uint64_t seed,
                                        CheckTiming* timing = nullptr) {
  const RequestGenerator reads(seed);
  pq::SparqlParser parser(dict);
  std::vector<std::optional<pq::SelectQuery>> queries;
  for (std::size_t i = 0; i < kCheckRequests; ++i) {
    queries.push_back(parser.parse(reads.request(i).text));
  }
  const std::vector<std::uint64_t> hashes = term_hashes(dict);
  std::vector<AnswerDigest> out(kCheckRequests);
  std::vector<double> ms(kCheckRequests, 0.0);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < kCheckRequests; i = next++) {
      if (!queries[i]) {
        out[i] = AnswerDigest{~std::size_t{0}, 0};  // never matches
        continue;
      }
      const auto t0 = Clock::now();
      const pq::ResultSet rows = pq::evaluate(store, *queries[i]);
      ms[i] = 1e3 * seconds_between(t0, Clock::now());
      out[i] = answer_digest(rows, hashes);
    }
  };
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 1; t < kThreads; ++t) {
      pool.emplace_back(work);
    }
    work();
  }
  if (timing != nullptr) {
    timing->phase_s.push_back(seconds_between(t0, Clock::now()));
    for (std::size_t i = 0; i < kCheckRequests; ++i) {
      timing->per_request_ms[i].push_back(ms[i]);
    }
  }
  return out;
}

/// Cold query::evaluate time per template (median of kEvalSamples
/// instantiations from the seeded stream), for the traced run.
void eval_table(const rdf::TripleStore& store, rdf::Dictionary& dict,
                std::uint64_t seed, std::vector<Metric>& out) {
  const RequestGenerator reads(seed);
  pq::SparqlParser parser(dict);
  for (const std::string_view name : kTemplates) {
    Seconds ms;
    for (std::size_t i = 0; ms.size() < kEvalSamples && i < 100000; ++i) {
      const Request r = reads.request(i);
      if (r.name != name) {
        continue;
      }
      const auto q = parser.parse(r.text);
      if (!q) {
        break;
      }
      const auto t0 = Clock::now();
      const pq::ResultSet rows = pq::evaluate(store, *q);
      ms.push_back(1e3 * seconds_between(t0, Clock::now()));
    }
    out.push_back({"query.eval_ms." + std::string(name), median(ms), "ms"});
  }
}

bool save_snapshot_file(const std::string& path, const rdf::Dictionary& dict,
                        const rdf::TripleStore& store,
                        rdf::SnapshotStats* stats) {
  std::ofstream out(path, std::ios::binary);
  const rdf::SnapshotStats s = rdf::save_snapshot(out, dict, store);
  out.close();
  if (stats != nullptr) {
    *stats = s;
  }
  return out.good();
}

bool load_snapshot_file(const std::string& path, rdf::Dictionary& dict,
                        rdf::TripleStore& store) {
  std::ifstream in(path, std::ios::binary);
  std::string error;
  if (!in || !rdf::load_snapshot(in, dict, store, &error)) {
    std::cerr << "cannot load snapshot " << path << ": " << error << "\n";
    return false;
  }
  return true;
}

/// Per-layer metric accumulator: medians over passes by name, in first-use
/// order, so every workload prints the same table layout.
class LayerSamples {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    auto it = std::find_if(rows_.begin(), rows_.end(),
                           [&](const auto& r) { return r.name == name; });
    if (it == rows_.end()) {
      rows_.push_back({name, unit, {}});
      it = rows_.end() - 1;
    }
    it->values.push_back(value);
  }

  [[nodiscard]] double get(const std::string& name) const {
    for (const auto& r : rows_) {
      if (r.name == name) {
        return median(r.values);
      }
    }
    return 0.0;
  }

  void emit(std::vector<Metric>& out) const {
    for (const auto& r : rows_) {
      out.push_back({r.name, median(r.values), r.unit});
    }
  }

 private:
  struct Row {
    std::string name;
    std::string unit;
    Seconds values;
  };
  std::vector<Row> rows_;
};

/// Fill every per-layer metric name, so each workload prints all of them;
/// layers a workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"rdf.ingest_s", "s"},
      {"rdf.parse_s", "s"},
      {"rdf.merge_s", "s"},
      {"rdf.snapshot_save_s", "s"},
      {"rdf.snapshot_load_s", "s"},
      {"partition.ingest_s", "s"},
      {"partition.finalize_s", "s"},
      {"partition.replication_factor", "ratio"},
      {"partition.input_replication", "ratio"},
      {"parallel.materialize_s", "s"},
      {"parallel.partition_s", "s"},
      {"parallel.executor_s", "s"},
      {"parallel.merge_s", "s"},
      {"parallel.unattributed_s", "s"},
      {"parallel.bytes_sent", "B"},
      {"parallel.steals", "count"},
      {"parallel.idle_s", "s"},
      {"parallel.sync_s", "s"},
      {"parallel.steal_yield", "ratio"},
      {"parallel.simulated_s", "s"},
      {"reason.closure_s", "s"},
      {"reason.compile_s", "s"},
      {"reason.inferred", "count"},
      {"reason.iterations", "count"},
      {"reason.maintain_s", "s"},
      {"serve.cache_hit_frac", "ratio"},
      {"serve.hit_p50_us", "us"},
      {"serve.miss_p50_ms", "ms"},
      {"serve.miss_p99_ms", "ms"},
      {"serve.update_p50_ms", "ms"},
      {"serve.update_copy_s", "s"},
      {"serve.invalidated_per_update", "count"},
      {"serve.single_line_wrong_frac", "ratio"},
      {"dist.scans_per_request", "count"},
      {"dist.cache_hit_frac", "ratio"},
      {"dist.gathered_per_row", "ratio"},
      {"dist.shard_bytes_shipped", "B"},
      {"dist.single_line_wrong_frac", "ratio"},
      {"trace.uncovered_s", "s"},
      {"trace.self_s.rdf", "s"},
      {"trace.self_s.partition", "s"},
      {"trace.self_s.parallel", "s"},
      {"trace.self_s.reason", "s"},
      {"trace.self_s.serve", "s"},
      {"trace.self_s.dist", "s"},
      {"trace.overhead_frac", "ratio"},
      {"trace.spans", "count"},
  };
  return names;
}

/// Span-derived per-layer figures of the traced passes, plus the tracing
/// overhead (traced over untraced median pass time, minus one).
void add_trace_metrics(const Tracer& tracer, const Seconds& traced,
                       const Seconds& untraced, LayerSamples& layers,
                       const std::string& trace_path) {
  const std::vector<SpanRecord> spans = tracer.spans();
  const SelfTimes st = self_times(spans);
  const double passes =
      std::max<double>(1.0, static_cast<double>(traced.size()));
  std::cout << "self time per traced pass (s):\n";
  for (const auto& [layer, self] : st.self_seconds) {
    std::cout << "  " << layer << "  self " << self / passes << "  total "
              << st.total_seconds.at(layer) / passes << "  spans "
              << st.spans.at(layer) << "\n";
    if (layer != "bench") {
      layers.add("trace.self_s." + layer, self / passes, "s");
    }
  }
  std::cout << "  uncovered by any layer span: "
            << st.uncovered_seconds / passes << " s of "
            << st.root_seconds / passes << " s\n";
  layers.add("trace.uncovered_s", st.uncovered_seconds / passes, "s");
  layers.add("trace.spans", static_cast<double>(spans.size()), "count");
  if (!traced.empty() && !untraced.empty()) {
    layers.add("trace.overhead_frac", median(traced) / median(untraced) - 1.0,
               "ratio");
  }
  if (!tracer.write_json(trace_path)) {
    std::cerr << "warning: cannot write " << trace_path << "\n";
  }
}

void emit_layers(const LayerSamples& layers, RunResult& result) {
  for (const auto& [name, unit] : layer_catalog()) {
    result.per_layer.push_back({name, layers.get(name), unit});
  }
}

/// Split passes: under --trace 1 every second pass is traced, so the same
/// run yields both the layer spans and the untraced baseline for overhead.
/// Traced and untraced passes both count toward --seconds.
bool traced_pass(const RunConfig& cfg, std::size_t pass) {
  return cfg.trace && pass % 2 == 1;
}

/// At least kMinPasses passes (so the median drops a slow first pass),
/// then more until --seconds of them are measured.
bool keep_going(const RunConfig& cfg, double measured, std::size_t done) {
  return done < kMinPasses || measured < cfg.seconds;
}

void print_samples(const char* what, const Seconds& v, const char* unit) {
  std::cout << what << ": n=" << v.size() << " p50=" << percentile(v, 0.5)
            << " p99=" << percentile(v, 0.99) << " " << unit << "\n";
}

// ---------------------------------------------------------------------------
// The two closure workloads share their bookkeeping: setup (the N-Triples
// text), which passes are traced, pass times, the check requests against
// the reference, and the result metrics.

class ClosureRun {
 public:
  ClosureRun(const RunConfig& cfg, const std::string& kind)
      : cfg_(cfg), ref_(read_reference(reference_path(cfg, kind))) {
    Seconds setups;
    for (int i = 0; i < kSetups; ++i) {
      std::string().swap(text_);  // one text alive at a time
      const auto s0 = Clock::now();
      text_ = generate_text(kind, cfg.seed);
      setups.push_back(seconds_between(s0, Clock::now()));
    }
    setup_s_ = median(setups);
    std::cout << "setup: " << setups.size() << " runs, median " << setup_s_
              << " s\n";
  }

  [[nodiscard]] bool more() const {
    return keep_going(cfg_, measured_, pass_);
  }
  [[nodiscard]] std::size_t pass() const { return pass_; }
  [[nodiscard]] const std::string& text() const { return text_; }
  [[nodiscard]] const Reference& ref() const { return ref_; }
  [[nodiscard]] Tracer& tracer() {
    return traced_pass(cfg_, pass_) ? tracer_ : off_;
  }
  [[nodiscard]] bool traced() const { return traced_pass(cfg_, pass_); }
  LayerSamples& layers() { return layers_; }

  /// The closure's pins: the reference's inferred count and digest, and
  /// the published count for the generator's default seed.
  bool check_pins(std::size_t inferred, const ClosureDigest& digest,
                  std::size_t published) {
    const bool ok = inferred == ref_.inferred && digest == ref_.closure &&
                    (cfg_.seed != kPinSeed || inferred == published);
    if (!ok) {
      std::cout << "CHECK FAILED: inferred " << inferred << ", "
                << digest.triples << " triples (reference " << ref_.inferred
                << ", " << ref_.closure.triples << "), digest "
                << (digest == ref_.closure ? "equal" : "differs") << "\n";
    }
    return ok;
  }

  /// Answer the check requests on `store`, in rounds until
  /// kMinCheckPhaseSeconds of evaluation have passed, so a short round does
  /// not rest on one burst of interference.  Every answer must equal the
  /// reference's.
  void check_answers(const rdf::TripleStore& store, rdf::Dictionary& dict) {
    double spent = 0.0;
    do {
      const auto answers = answer_checks(store, dict, cfg_.seed, &checks_);
      spent += checks_.phase_s.back();
      for (std::size_t i = 0; i < answers.size(); ++i) {
        ++result_.attempted;
        if (answers[i] != ref_.answers[i]) {
          ++result_.failed;
          std::cout << "CHECK FAILED: answer " << i << " differs\n";
        }
      }
    } while (spent < kMinCheckPhaseSeconds);
    if (cfg_.trace && pass_ == 1) {
      eval_table(store, dict, cfg_.seed, result_.per_layer);
    }
  }

  void end_pass(double wall, bool ok, const rdf::SnapshotStats& snap) {
    ++result_.attempted;
    if (!ok) {
      ++result_.failed;
    }
    walls_.push_back(wall);
    (traced() ? traced_walls_ : untraced_walls_).push_back(wall);
    measured_ += wall;
    bytes_per_triple_.push_back(
        static_cast<double>(snap.bytes) /
        static_cast<double>(std::max<std::size_t>(1, snap.triples)));
    ++pass_;
  }

  RunResult finish() {
    print_samples("pass wall", walls_, "s");
    print_samples("check-request evaluate", checks_.request_ms(), "ms");
    result_.end_to_end = {{"wall_s", median(untraced_walls_), "s"}};
    checks_.add_metrics(result_.end_to_end);
    result_.end_to_end.push_back({"snapshot_bytes_per_triple",
                                  median(bytes_per_triple_), "B/triple"});
    result_.end_to_end.push_back({"setup_s", setup_s_, "s"});
    result_.end_to_end.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    if (cfg_.trace) {
      add_trace_metrics(tracer_, traced_walls_, untraced_walls_, layers_,
                        cfg_.work_dir + "/trace-" + cfg_.workload + ".json");
    }
    emit_layers(layers_, result_);
    return std::move(result_);
  }

 private:
  const RunConfig& cfg_;
  Reference ref_;
  std::string text_;
  double setup_s_ = 0.0;
  Tracer tracer_{cfg_.trace};
  Tracer off_{false};
  LayerSamples layers_;
  CheckTiming checks_;
  Seconds walls_, traced_walls_, untraced_walls_, bytes_per_triple_;
  double measured_ = 0.0;
  std::size_t pass_ = 0;
  RunResult result_;
};

// ---------------------------------------------------------------------------
// lubm-cluster: N-Triples text -> 4-thread ingest streaming into HDRF k=4
// -> parallel_materialize (threaded, merged) -> save_snapshot.

RunResult run_lubm_cluster(const RunConfig& cfg) {
  ClosureRun run(cfg, "lubm");
  LayerSamples& layers = run.layers();
  const std::string snap_path = work_file(cfg, ".snap");
  while (run.more()) {
    Tracer& tr = run.tracer();
    const std::size_t pass = run.pass();
    bool ok = true;
    ClosureDigest merged_digest;
    rdf::SnapshotStats snap{};
    double wall = 0.0;
    {
      rdf::Dictionary dict;
      rdf::TripleStore store;
      parowl::parallel::ParallelResult r;
      parowl::parallel::MemoryTransport transport(kThreads);
      double sink_s = 0.0;
      double finalize_s = 0.0;
      double ingest_s = 0.0;
      double materialize_s = 0.0;
      double save_s = 0.0;
      rdf::IngestStats ingest;
      parowl::partition::PartitionMetrics plan_metrics;
      const auto t0 = Clock::now();
      {
        Span root(tr, "bench.pass");
        // Intern the vocabulary first so rdf:type triples route
        // subject-only (class IRIs would otherwise become hubs).
        const parowl::ontology::Vocabulary pre(dict);
        parowl::partition::PartitionerOptions popts;
        popts.kind = parowl::partition::PartitionerKind::kHdrf;
        popts.type_predicate = pre.rdf_type;
        auto partitioner =
            parowl::partition::make_partitioner(popts, dict, kThreads);
        std::uint64_t ingest_span = 0;
        rdf::IngestOptions iopts;
        iopts.threads = kThreads;
        iopts.chunk_sink = [&](std::span<const rdf::Triple> chunk) {
          const auto c0 = Clock::now();
          Span s(tr, "partition.ingest", ingest_span);
          partitioner->ingest(chunk);
          sink_s += seconds_between(c0, Clock::now());
        };
        {
          Span s(tr, "rdf.ingest", root.id());
          ingest_span = s.id();
          const auto i0 = Clock::now();
          ingest = rdf::ingest_ntriples(run.text(), dict, store, iopts);
          ingest_s = seconds_between(i0, Clock::now());
        }
        parowl::partition::PartitionPlan plan;
        {
          Span s(tr, "partition.finalize", root.id());
          const auto f0 = Clock::now();
          plan = partitioner->finalize();
          finalize_s = seconds_between(f0, Clock::now());
        }
        plan_metrics = plan.metrics;
        const parowl::partition::FixedOwnerPolicy policy(
            std::move(plan.owners), plan.algorithm);
        const parowl::ontology::Vocabulary vocab(dict);
        parowl::parallel::ParallelOptions popt;
        popt.partitions = kThreads;
        popt.policy = &policy;
        // Round-synchronous threads: the async threaded executor aborts
        // LUBM-500 runs of some seeds as "stalled" (README, defect 3).
        popt.mode = parowl::parallel::ExecutionMode::kThreaded;
        popt.transport = &transport;
        popt.build_merged = true;
        {
          Span s(tr, "parallel.materialize", root.id());
          const auto m0 = Clock::now();
          r = parowl::parallel::parallel_materialize(store, dict, vocab, popt);
          materialize_s = seconds_between(m0, Clock::now());
        }
        {
          Span s(tr, "rdf.snapshot_save", root.id());
          const auto w0 = Clock::now();
          ok = r.merged.has_value() &&
               save_snapshot_file(snap_path, dict, *r.merged, &snap);
          save_s = seconds_between(w0, Clock::now());
        }
      }
      wall = seconds_between(t0, Clock::now());

      // --- outside the timed pass: stats, then the closure checks.
      layers.add("rdf.ingest_s", ingest_s, "s");
      layers.add("rdf.parse_s", ingest.parse_seconds, "s");
      layers.add("rdf.merge_s", ingest.merge_seconds, "s");
      layers.add("rdf.snapshot_save_s", save_s, "s");
      layers.add("partition.ingest_s", sink_s, "s");
      layers.add("partition.finalize_s", finalize_s, "s");
      layers.add("partition.replication_factor",
                 plan_metrics.replication_factor, "ratio");
      layers.add("partition.input_replication",
                 r.metrics ? r.metrics->input_replication : 0.0, "ratio");
      const auto& c = r.cluster;
      layers.add("parallel.materialize_s", materialize_s, "s");
      layers.add("parallel.partition_s", r.partition_seconds, "s");
      layers.add("parallel.executor_s", c.wall_seconds, "s");
      layers.add("parallel.merge_s", r.merge_seconds, "s");
      layers.add("parallel.unattributed_s",
                 materialize_s - r.partition_seconds - c.wall_seconds -
                     r.merge_seconds,
                 "s");
      std::uint64_t bytes = 0;
      for (std::uint32_t p = 0; p < kThreads; ++p) {
        bytes += transport.stats(p).bytes_sent;
      }
      layers.add("parallel.bytes_sent", static_cast<double>(bytes), "B");
      layers.add("parallel.steals",
                 static_cast<double>(c.async_stats.steals), "count");
      layers.add("parallel.idle_s", c.async_stats.idle_seconds, "s");
      layers.add("parallel.sync_s", c.sync_seconds, "s");
      layers.add("parallel.steal_yield",
                 c.async_stats.stolen_tuples == 0
                     ? 0.0
                     : static_cast<double>(c.async_stats.steal_derivations) /
                           static_cast<double>(c.async_stats.stolen_tuples),
                 "ratio");
      layers.add("parallel.simulated_s", c.simulated_seconds, "s");
      layers.add("reason.closure_s", c.reason_seconds, "s");
      layers.add("reason.inferred", static_cast<double>(r.inferred), "count");
      layers.add("reason.iterations", static_cast<double>(c.rounds), "count");
      std::cout << "pass " << pass << (run.traced() ? " (traced)" : "")
                << ": wall " << wall << " s = ingest " << ingest_s
                << " + finalize " << finalize_s << " + materialize "
                << materialize_s << " (partition " << r.partition_seconds
                << ", executor " << c.wall_seconds << ", merge "
                << r.merge_seconds << ") + save " << save_s << "\n";

      if (r.merged) {
        merged_digest = closure_digest(*r.merged, dict);
      }
      ok = run.check_pins(r.inferred, merged_digest, kLubmPinInferred) && ok;
    }
    // The saved snapshot must load back to the merged closure, and answer
    // the check requests as the single-store reference does.
    {
      rdf::Dictionary dict;
      rdf::TripleStore store;
      const auto l0 = Clock::now();
      const bool loaded = load_snapshot_file(snap_path, dict, store);
      layers.add("rdf.snapshot_load_s", seconds_between(l0, Clock::now()), "s");
      const bool same = loaded && closure_digest(store, dict) == merged_digest;
      if (!same) {
        std::cout << "CHECK FAILED: snapshot does not load back to the "
                     "merged closure\n";
      }
      ok = ok && same;
      if (loaded) {
        run.check_answers(store, dict);
      }
    }
    run.end_pass(wall, ok, snap);
  }
  fs::remove(snap_path);
  std::cout << "parallel.materialize_s " << layers.get("parallel.materialize_s")
            << " = partition " << layers.get("parallel.partition_s")
            << " + executor " << layers.get("parallel.executor_s")
            << " + merge " << layers.get("parallel.merge_s")
            << " + unattributed " << layers.get("parallel.unattributed_s")
            << " (medians over passes)\n";
  return run.finish();
}

// ---------------------------------------------------------------------------
// uobm-closure: N-Triples text -> 4-thread ingest -> single-store
// reason::materialize(threads = 4).

RunResult run_uobm_closure(const RunConfig& cfg) {
  ClosureRun run(cfg, "uobm");
  LayerSamples& layers = run.layers();
  const std::string snap_path = work_file(cfg, ".snap");
  while (run.more()) {
    Tracer& tr = run.tracer();
    rdf::Dictionary dict;
    rdf::TripleStore store;
    rdf::IngestStats ingest;
    parowl::reason::MaterializeResult m;
    double ingest_s = 0.0;
    double materialize_s = 0.0;
    const auto t0 = Clock::now();
    {
      Span root(tr, "bench.pass");
      {
        Span s(tr, "rdf.ingest", root.id());
        rdf::IngestOptions iopts;
        iopts.threads = kThreads;
        const auto i0 = Clock::now();
        ingest = rdf::ingest_ntriples(run.text(), dict, store, iopts);
        ingest_s = seconds_between(i0, Clock::now());
      }
      const parowl::ontology::Vocabulary vocab(dict);
      parowl::reason::MaterializeOptions mopts;
      mopts.threads = kThreads;
      {
        Span s(tr, "reason.materialize", root.id());
        const auto m0 = Clock::now();
        m = parowl::reason::materialize(store, dict, vocab, mopts);
        materialize_s = seconds_between(m0, Clock::now());
      }
    }
    const double wall = seconds_between(t0, Clock::now());

    layers.add("rdf.ingest_s", ingest_s, "s");
    layers.add("rdf.parse_s", ingest.parse_seconds, "s");
    layers.add("rdf.merge_s", ingest.merge_seconds, "s");
    layers.add("reason.closure_s", m.reason_seconds, "s");
    layers.add("reason.compile_s", m.compile_seconds, "s");
    layers.add("reason.inferred", static_cast<double>(m.inferred), "count");
    layers.add("reason.iterations", static_cast<double>(m.iterations), "count");
    std::cout << "pass " << run.pass() << (run.traced() ? " (traced)" : "")
              << ": wall " << wall << " s = ingest " << ingest_s
              << " + materialize " << materialize_s << " (compile "
              << m.compile_seconds << ", closure " << m.reason_seconds
              << "; " << m.inferred << " inferred in " << m.iterations
              << " iterations)\n";

    bool ok = run.check_pins(m.inferred, closure_digest(store, dict),
                             kUobmPinInferred);
    rdf::SnapshotStats snap{};
    const auto w0 = Clock::now();
    ok = save_snapshot_file(snap_path, dict, store, &snap) && ok;
    layers.add("rdf.snapshot_save_s", seconds_between(w0, Clock::now()), "s");
    run.check_answers(store, dict);
    run.end_pass(wall, ok, snap);
  }
  fs::remove(snap_path);
  return run.finish();
}

// ---------------------------------------------------------------------------
// Served workloads: 4 closed-loop clients over the LUBM-500 closure that
// never pause between requests.  lubm-serve adds one writer that starts a
// mixed batch through QueryService::apply_update each time the
// completed-read count passes a multiple of kReadsPerWrite (and its previous
// batch has ended); lubm-serve-dist is read-only through DistService (k = 4,
// R = 1, in-memory transport).  Completed reads are counted in blocks:
// block 0 warms the result cache and holds the writer's first batch, so
// measured batches retract earlier additions; it is checked but not
// measured.  Under --trace 1 every second block is traced.

/// Completed reads per block of lubm-serve-dist, which answers about half
/// as fast as lubm-serve: shorter blocks give it about as many blocks.
constexpr std::size_t kDistReadsPerBlock = 100;
/// A served run measures a fixed number of blocks, the same requests on
/// every run with the same seed and --seconds: --seconds at these block
/// times (measured on a shared 4-CPU x86-64 VM), at least kMinPasses.  A
/// stretch bounded by time instead would hold more reads, and so more cache
/// hits, on a faster run, and its median would fall on other blocks.
constexpr double kServeBlockSeconds = 2.3;
constexpr double kDistBlockSeconds = 2.0;

std::size_t measured_blocks(const RunConfig& cfg, bool dist) {
  const double pace = dist ? kDistBlockSeconds : kServeBlockSeconds;
  return std::max<std::size_t>(
      kMinPasses, static_cast<std::size_t>(std::lround(cfg.seconds / pace)));
}

/// What a client keeps of one response.
struct Slot {
  std::size_t index = 0;  // in the request stream
  Clock::time_point submitted;
  Clock::time_point done;
  parowl::serve::RequestStatus status = parowl::serve::RequestStatus::kOk;
  bool cache_hit = false;
  ServedAnswer answer;
};

/// One batch of lubm-serve's writer.
struct Write {
  std::size_t block = 0;  // the block it started in
  double ms = 0.0;
  bool ok = false;
  parowl::serve::UpdateOutcome outcome;
};

/// Everything the served workloads need from a loaded closure.
struct Served {
  rdf::Dictionary dict;
  std::unique_ptr<parowl::ontology::Vocabulary> vocab;
  rdf::TripleStore closure;  // dist only: the store the shards came from
  std::unique_ptr<parowl::serve::QueryService> service;
  std::unique_ptr<parowl::parallel::MemoryTransport> transport;
  std::unique_ptr<parowl::dist::DistService> dist;
  double load_s = 0.0;
  double partition_ingest_s = 0.0;
  double partition_finalize_s = 0.0;
  double replication_factor = 0.0;
  std::size_t snapshot_bytes = 0;
  std::size_t snapshot_triples = 0;

  bool submit(std::string text,
              std::function<void(const parowl::serve::Response&)> done) {
    return dist ? dist->submit(std::move(text), std::move(done))
                : service->submit(std::move(text), std::move(done));
  }
};

std::uint64_t max_shard_version(const parowl::dist::DistService& dist) {
  const std::vector<std::uint64_t> v = dist.shard_versions();
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

std::size_t read_base_count(const RunConfig& cfg) {
  return read_reference(reference_path(cfg, "lubm")).base;
}

std::vector<std::pair<std::string, std::string>> served_prefixes() {
  return {{"ub", std::string(parowl::gen::kUnivBenchNs)}};
}

/// Start lubm-serve's QueryService on `s.dict` over `closure`, whose
/// asserted base is the prefix of its log (materialize appends).
void start_service(Served& s, rdf::TripleStore closure,
                   std::size_t base_count) {
  const auto& log = closure.triples();
  const auto base_end =
      log.begin() +
      static_cast<std::ptrdiff_t>(std::min(base_count, log.size()));
  std::vector<rdf::Triple> base(log.begin(), base_end);
  parowl::serve::ServiceOptions o;
  o.threads = kThreads;
  o.prefixes = served_prefixes();
  s.service = std::make_unique<parowl::serve::QueryService>(
      s.dict, *s.vocab, std::move(closure), o, std::move(base));
}

/// One setup of a served workload: load the snapshot and start the service.
std::unique_ptr<Served> set_up(const RunConfig& cfg, bool dist,
                               std::size_t base_count) {
  auto s = std::make_unique<Served>();
  const std::string path = lubm_snapshot_path(cfg);
  rdf::TripleStore store;
  const auto l0 = Clock::now();
  if (!load_snapshot_file(path, s->dict, store)) {
    throw std::runtime_error("cannot load the prepared closure");
  }
  s->load_s = seconds_between(l0, Clock::now());
  s->snapshot_bytes = fs::file_size(path);
  s->snapshot_triples = store.size();
  s->vocab = std::make_unique<parowl::ontology::Vocabulary>(s->dict);
  if (!dist) {
    start_service(*s, std::move(store), base_count);
    return s;
  }
  s->closure = std::move(store);
  parowl::partition::PartitionerOptions popts;
  popts.kind = parowl::partition::PartitionerKind::kHdrf;
  popts.type_predicate = s->vocab->rdf_type;
  auto partitioner =
      parowl::partition::make_partitioner(popts, s->dict, kThreads);
  const auto p0 = Clock::now();
  const std::span<const rdf::Triple> all(s->closure.triples());
  constexpr std::size_t kChunk = 1 << 16;
  for (std::size_t i = 0; i < all.size(); i += kChunk) {
    partitioner->ingest(all.subspan(i, std::min(kChunk, all.size() - i)));
  }
  const auto p1 = Clock::now();
  parowl::partition::PartitionPlan plan = partitioner->finalize();
  s->partition_ingest_s = seconds_between(p0, p1);
  s->partition_finalize_s = seconds_between(p1, Clock::now());
  s->replication_factor = plan.metrics.replication_factor;
  const parowl::dist::NodeLayout layout{kThreads, 1};
  s->transport =
      std::make_unique<parowl::parallel::MemoryTransport>(layout.num_nodes());
  parowl::dist::DistOptions o;
  o.threads = kThreads;
  o.prefixes = served_prefixes();
  o.replicas = 1;
  s->dist = std::make_unique<parowl::dist::DistService>(
      s->dict, s->closure, std::move(plan.owners), kThreads, *s->transport, o);
  return s;
}

/// What the clients, the writer and the main thread of a served run share.
struct Stream {
  explicit Stream(std::size_t reads_per_block) : block(reads_per_block) {}

  const std::size_t block;  // completed reads per block
  std::atomic<std::size_t> next{0};  // next read index to claim
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> stop{false};
  std::mutex m;
  std::condition_variable cv;  // a block ended, or stop
  /// When the completed count reached (b + 1) * block; guarded by m.
  std::vector<Clock::time_point> block_end;
  /// Root span id of each traced block; guarded by m.
  std::map<std::size_t, std::uint64_t> block_span;

  void read_done() {
    if ((completed.fetch_add(1) + 1) % block != 0) {
      return;
    }
    const auto now = Clock::now();
    {
      const std::scoped_lock lock(m);
      block_end.push_back(now);
    }
    cv.notify_all();
  }

  std::uint64_t span_of(Tracer& tr, std::size_t b) {
    if (!tr.enabled()) {
      return 0;
    }
    const std::scoped_lock lock(m);
    auto [it, fresh] = block_span.try_emplace(b, 0);
    if (fresh) {
      it->second = tr.next_id();
    }
    return it->second;
  }
};

/// One closed-loop client: claim the next read, submit it, wait for its
/// answer, repeat until the run stops.
void client_loop(Served& served, const RequestGenerator& reads, Stream& st,
                 const RunConfig& cfg, Tracer& tracer, const char* span_name,
                 std::vector<Slot>& slots) {
  Tracer off(false);
  while (!st.stop) {
    const std::size_t i = st.next++;
    const std::size_t b = i / st.block;
    Tracer& tr = traced_pass(cfg, b) ? tracer : off;
    const std::uint64_t parent = st.span_of(tr, b);
    Request req = reads.request(i);
    Slot& slot = slots.emplace_back();
    slot.index = i;
    slot.answer.text = req.text;
    std::promise<void> done;
    const std::uint64_t span = tr.next_id();
    slot.submitted = Clock::now();
    served.submit(std::move(req.text), [&](const parowl::serve::Response& r) {
      slot.done = Clock::now();
      slot.status = r.status;
      slot.cache_hit = r.cache_hit;
      slot.answer.version = r.snapshot_version;
      slot.answer.rows = r.results;
      tr.record(span, parent, i + 1, span_name, slot.submitted, slot.done);
      done.set_value();
    });
    done.get_future().wait();
    st.read_done();
  }
}

std::vector<rdf::Triple> intern_triples(rdf::Dictionary& dict,
                                        const std::vector<IriTriple>& in) {
  std::vector<rdf::Triple> out;
  for (const IriTriple& t : in) {
    out.push_back({dict.intern_iri(t.s), dict.intern_iri(t.p),
                   dict.intern_iri(t.o)});
  }
  return out;
}

parowl::serve::UpdateOutcome apply_batch(parowl::serve::QueryService& svc,
                                         const WriteBatch& batch) {
  const auto adds = svc.with_dict_exclusive(
      [&](rdf::Dictionary& d) { return intern_triples(d, batch.additions); });
  const auto dels = svc.with_dict_exclusive(
      [&](rdf::Dictionary& d) { return intern_triples(d, batch.deletions); });
  return svc.apply_update(adds, dels);
}

/// lubm-serve's writer: batch k starts once k * kReadsPerWrite reads have
/// completed and batch k - 1 has ended.
void writer_loop(parowl::serve::QueryService& svc, std::uint64_t seed,
                 Stream& st, const RunConfig& cfg, Tracer& tracer,
                 std::vector<WriteBatch>& batches, std::vector<Write>& log) {
  Tracer off(false);
  WriteGenerator gen(seed);
  std::uint64_t version = svc.snapshot()->version;
  for (std::size_t k = 0;; ++k) {
    {
      std::unique_lock lock(st.m);
      st.cv.wait(lock, [&] {
        return st.stop || st.completed >= k * kReadsPerWrite;
      });
    }
    if (st.stop) {
      return;
    }
    const std::size_t b = st.completed / st.block;
    Tracer& tr = traced_pass(cfg, b) ? tracer : off;
    const std::uint64_t parent = st.span_of(tr, b);
    const WriteBatch& batch = batches.emplace_back(gen.next());
    Write& w = log.emplace_back();
    w.block = b;
    Span s(tr, "serve.apply_update", parent);
    const auto w0 = Clock::now();
    try {
      w.outcome = apply_batch(svc, batch);
      w.ok = w.outcome.version > version && !w.outcome.result.schema_changed;
      version = w.outcome.version;
    } catch (const std::exception& e) {
      std::cout << "write failed: " << e.what() << "\n";
    }
    w.ms = 1e3 * seconds_between(w0, Clock::now());
  }
}

/// Check lubm-serve's answers, sorted by version, against query::evaluate
/// on each version's store.  The measured service is gone by now (one
/// service alive at a time); its versions are rebuilt by starting a new
/// service on the same dictionary, so recorded TermIds stay valid, and
/// replaying the writer's batches in order.  A replayed batch must publish
/// the version the measured one did; returns how many did not.
std::size_t replay_check(const RunConfig& cfg, Served& served,
                         std::size_t base_count,
                         const std::vector<WriteBatch>& batches,
                         const std::vector<Write>& log,
                         std::span<const ServedAnswer> answers,
                         std::vector<bool>& ok) {
  served.service.reset();
  rdf::TripleStore store;
  {
    // The snapshot loads with the TermIds the measured dictionary has.
    rdf::Dictionary fresh;
    if (!load_snapshot_file(lubm_snapshot_path(cfg), fresh, store)) {
      throw std::runtime_error("cannot load the prepared closure");
    }
  }
  start_service(served, std::move(store), base_count);
  parowl::serve::QueryService& svc = *served.service;
  pq::SparqlParser parser(served.dict);
  const ParseFn parse = [&](const std::string& text) {
    return svc.with_dict_exclusive(
        [&](rdf::Dictionary&) { return parser.parse(text); });
  };
  ok.assign(answers.size(), false);
  std::size_t pos = 0;
  const auto check_current = [&] {
    const parowl::serve::SnapshotPtr now = svc.snapshot();
    while (pos < answers.size() && answers[pos].version < now->version) {
      ++pos;  // a version the replay never reaches: wrong
    }
    std::size_t end = pos;
    while (end < answers.size() && answers[end].version == now->version) {
      ++end;
    }
    const std::vector<bool> verdicts = check_answers(
        answers.subspan(pos, end - pos), parse,
        [&](std::uint64_t) { return &now->store; }, kThreads);
    std::copy(verdicts.begin(), verdicts.end(),
              ok.begin() + static_cast<std::ptrdiff_t>(pos));
    pos = end;
  };
  check_current();
  std::size_t mismatched = 0;
  for (std::size_t k = 0; k < batches.size(); ++k) {
    if (apply_batch(svc, batches[k]).version != log[k].outcome.version) {
      ++mismatched;
    }
    check_current();
  }
  return mismatched;
}

/// Send every template twice on a single line (outside the timed phase)
/// and report the share answered with rows that are not its own.  The
/// result cache keys requests by normalized text, so this measures whether
/// single-line requests sharing a PREFIX collide on one key.
double single_line_probe(Served& served, const RequestGenerator& reads,
                         const ParseFn& parse, const StoreFn& store_for) {
  std::vector<ServedAnswer> answers;
  std::vector<std::string> seen;
  for (std::size_t i = 0; answers.size() < 2 * kTemplates.size() && i < 100000;
       ++i) {
    const Request r = reads.single_line(i);
    if (std::count(seen.begin(), seen.end(), r.name) >= 2) {
      continue;
    }
    seen.push_back(r.name);
    std::promise<parowl::serve::Response> done;
    served.submit(r.text, [&](const parowl::serve::Response& resp) {
      done.set_value(resp);
    });
    const parowl::serve::Response resp = done.get_future().get();
    answers.push_back({r.text, resp.snapshot_version, resp.results});
  }
  const std::vector<bool> ok =
      check_answers(answers, parse, store_for, kThreads);
  const auto wrong =
      static_cast<double>(std::count(ok.begin(), ok.end(), false));
  std::cout << "single-line probe: " << wrong << " of " << answers.size()
            << " single-line requests answered with another query's rows\n";
  return wrong / static_cast<double>(answers.size());
}

RunResult run_served(const RunConfig& cfg, bool dist) {
  RunResult result;
  const std::size_t base_count = read_base_count(cfg);
  Seconds setups;
  std::unique_ptr<Served> served;
  for (int i = 0; i < kSetups; ++i) {
    served.reset();  // one instance alive at a time
    const auto t0 = Clock::now();
    served = set_up(cfg, dist, base_count);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  std::cout << "setup: " << setups.size() << " runs, median "
            << median(setups) << " s\n";
  const RequestGenerator reads(cfg.seed);
  Stream st(dist ? kDistReadsPerBlock : kReadsPerWrite);
  Tracer tracer(cfg.trace);
  const char* span_name = dist ? "dist.request" : "serve.request";
  std::vector<std::vector<Slot>> slots(kThreads);
  std::vector<WriteBatch> batches;
  std::vector<Write> write_log;
  Clock::time_point t_start;
  Clock::time_point t_stop;
  {
    std::vector<std::jthread> crew;
    for (unsigned c = 0; c < kThreads; ++c) {
      crew.emplace_back([&, c] {
        client_loop(*served, reads, st, cfg, tracer, span_name, slots[c]);
      });
    }
    if (!dist) {
      crew.emplace_back([&] {
        writer_loop(*served->service, cfg.seed, st, cfg, tracer, batches,
                    write_log);
      });
    }
    // Measure whole blocks from the end of block 0.  Ending on a block
    // boundary keeps the stretch from cutting a write (or the reads after
    // it) in two.
    const std::size_t measured = measured_blocks(cfg, dist);
    std::unique_lock lock(st.m);
    st.cv.wait(lock, [&] { return st.block_end.size() > measured; });
    t_start = *std::min_element(st.block_end.begin(), st.block_end.end());
    t_stop = *std::max_element(st.block_end.begin(), st.block_end.end());
    st.stop = true;
    lock.unlock();
    st.cv.notify_all();
  }
  // The checks below replay the writer on a second service; they must not
  // add to the peak.
  const double peak_mb = peak_rss_mb();
  std::sort(st.block_end.begin(), st.block_end.end());

  // --- outside the timed stretch: the figures of [t_start, t_stop).
  std::vector<Slot> all;
  for (std::vector<Slot>& v : slots) {
    std::move(v.begin(), v.end(), std::back_inserter(all));
    std::vector<Slot>().swap(v);
  }
  Seconds latency_ms, hit_us, miss_ms;
  std::uint64_t hits = 0;
  std::uint64_t reads_measured = 0;
  std::uint64_t miss_rows = 0;
  Clock::time_point last_done = t_stop;
  for (const Slot& s : all) {
    last_done = std::max(last_done, s.done);
    if (s.submitted < t_start || s.submitted >= t_stop) {
      continue;
    }
    const double ms = 1e3 * seconds_between(s.submitted, s.done);
    latency_ms.push_back(ms);
    ++reads_measured;
    if (s.cache_hit) {
      ++hits;
      hit_us.push_back(1e3 * ms);
    } else {
      miss_ms.push_back(ms);
      miss_rows += s.answer.rows.size();
    }
  }
  const double window_s = seconds_between(t_start, t_stop);
  Seconds blocks, traced_blocks, untraced_blocks;
  for (std::size_t b = 1;
       b < st.block_end.size() && st.block_end[b] <= t_stop; ++b) {
    const double d = seconds_between(st.block_end[b - 1], st.block_end[b]);
    blocks.push_back(d);
    (traced_pass(cfg, b) ? traced_blocks : untraced_blocks).push_back(d);
  }
  for (const auto& [b, id] : st.block_span) {
    const auto edge = [&](std::size_t k) {
      return k < st.block_end.size() ? st.block_end[k] : last_done;
    };
    tracer.record(id, 0, 0, "bench.block", edge(b - 1), edge(b));
  }
  LayerSamples layers;
  Seconds update_ms;
  for (const Write& w : write_log) {
    std::cout << "write at block " << w.block << ": " << w.ms
              << " ms (version " << w.outcome.version << ", invalidated "
              << w.outcome.invalidated << ")\n";
    if (w.block == 0 || w.block > blocks.size()) {
      continue;  // started in block 0 or after the measured stretch
    }
    update_ms.push_back(w.ms);
    layers.add("serve.update_copy_s", w.outcome.copy_seconds, "s");
    layers.add("reason.maintain_s", w.outcome.maintain.total_seconds, "s");
    layers.add("serve.invalidated_per_update",
               static_cast<double>(w.outcome.invalidated), "count");
  }
  const std::size_t reads_in_window = blocks.size() * st.block;
  std::cout << "measured " << window_s << " s: " << reads_in_window
            << " reads completed in " << blocks.size() << " whole blocks, "
            << update_ms.size() << " writes\n";
  print_samples("block time", blocks, "s");
  std::cout << "block times (s):";
  for (const double d : blocks) {
    std::cout << " " << d;
  }
  std::cout << "\n";
  print_samples("read latency", latency_ms, "ms");
  print_samples("cache hit latency", hit_us, "us");
  print_samples("cache miss latency", miss_ms, "ms");
  if (!dist) {
    print_samples("write batch latency", update_ms, "ms");
  }

  // Defect probe and per-layer figures, on the service as the run left it.
  pq::SparqlParser parser(served->dict);
  {
    const parowl::serve::SnapshotPtr now =
        dist ? nullptr : served->service->snapshot();
    const std::uint64_t probe_version =
        dist ? max_shard_version(*served->dist) : now->version;
    const rdf::TripleStore& current = dist ? served->closure : now->store;
    const ParseFn parse = [&](const std::string& text) {
      return dist ? parser.parse(text)
                  : served->service->with_dict_exclusive(
                        [&](rdf::Dictionary&) { return parser.parse(text); });
    };
    const StoreFn probe_store =
        [&](std::uint64_t v) -> const rdf::TripleStore* {
      return v == probe_version ? &current : nullptr;
    };
    const double wrong_frac =
        single_line_probe(*served, reads, parse, probe_store);
    layers.add(dist ? "dist.single_line_wrong_frac"
                    : "serve.single_line_wrong_frac",
               wrong_frac, "ratio");
    if (cfg.trace) {
      eval_table(current, served->dict, cfg.seed, result.per_layer);
    }
  }
  const double hit_frac =
      static_cast<double>(hits) / static_cast<double>(reads_measured);
  layers.add("rdf.snapshot_load_s", served->load_s, "s");
  if (dist) {
    const parowl::dist::DistStats ds = served->dist->stats();
    layers.add("partition.ingest_s", served->partition_ingest_s, "s");
    layers.add("partition.finalize_s", served->partition_finalize_s, "s");
    layers.add("partition.replication_factor", served->replication_factor,
               "ratio");
    layers.add("dist.scans_per_request",
               static_cast<double>(ds.scans_sent) /
                   static_cast<double>(
                       std::max<std::uint64_t>(1, ds.completed)),
               "count");
    layers.add("dist.cache_hit_frac", hit_frac, "ratio");
    layers.add("dist.gathered_per_row",
               static_cast<double>(ds.gathered_triples) /
                   static_cast<double>(std::max<std::uint64_t>(1, miss_rows)),
               "ratio");
    layers.add("dist.shard_bytes_shipped",
               static_cast<double>(ds.shard_bytes_shipped), "B");
  } else {
    layers.add("serve.update_p50_ms", median(update_ms), "ms");
  }
  layers.add("serve.cache_hit_frac", hit_frac, "ratio");
  layers.add("serve.hit_p50_us", percentile(hit_us, 0.5), "us");
  layers.add("serve.miss_p50_ms", percentile(miss_ms, 0.5), "ms");
  layers.add("serve.miss_p99_ms", percentile(miss_ms, 0.99), "ms");

  // Check every answer, warm-up included, on the version it reports.
  std::stable_sort(all.begin(), all.end(), [](const Slot& a, const Slot& b) {
    return a.answer.version < b.answer.version;
  });
  std::vector<ServedAnswer> answers;
  for (Slot& s : all) {
    answers.push_back(std::move(s.answer));
  }
  std::vector<bool> ok;
  std::size_t mismatched = 0;
  if (dist) {
    const std::uint64_t version = max_shard_version(*served->dist);
    ok = check_answers(
        answers,
        [&](const std::string& text) { return parser.parse(text); },
        [&](std::uint64_t v) {
          return v == version ? &served->closure : nullptr;
        },
        kThreads);
  } else {
    mismatched = replay_check(cfg, *served, base_count, batches, write_log,
                              answers, ok);
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    ++result.attempted;
    if (ok[i] && all[i].status == parowl::serve::RequestStatus::kOk) {
      continue;
    }
    if (++result.failed <= 5) {
      std::cout << "CHECK FAILED: request " << all[i].index << " status "
                << parowl::serve::to_string(all[i].status) << " version "
                << answers[i].version << " rows " << answers[i].rows.size()
                << "\n";
    }
  }
  for (const Write& w : write_log) {
    ++result.attempted;
    result.failed += w.ok ? 0 : 1;
  }
  if (mismatched != 0) {
    std::cout << "CHECK FAILED: " << mismatched
              << " replayed batches published another version\n";
    result.failed += mismatched;
  }

  const double bytes_per_triple =
      static_cast<double>(served->snapshot_bytes) /
      static_cast<double>(std::max<std::size_t>(1, served->snapshot_triples));
  result.end_to_end = {
      // The mean, not the median: blocks of one stretch hold different
      // requests (later ones hit a warmer cache), so the median would pick
      // one block's content.
      {"wall_s",
       std::accumulate(untraced_blocks.begin(), untraced_blocks.end(), 0.0) /
           static_cast<double>(std::max<std::size_t>(1, untraced_blocks.size())),
       "s"},
      {"query_p50_ms", percentile(latency_ms, 0.5), "ms"},
      {"query_p99_ms", percentile(latency_ms, 0.99), "ms"},
      {"query_qps", static_cast<double>(reads_in_window) / window_s, "1/s"},
      {"snapshot_bytes_per_triple", bytes_per_triple, "B/triple"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_mb, "MB"},
  };
  if (cfg.trace) {
    add_trace_metrics(tracer, traced_blocks, untraced_blocks, layers,
                      cfg.work_dir + "/trace-" + cfg.workload + ".json");
  }
  emit_layers(layers, result);
  return result;
}

}  // namespace

RunResult run_workload(const RunConfig& cfg) {
  RunResult r;
  if (cfg.workload == "lubm-cluster") {
    r = run_lubm_cluster(cfg);
  } else if (cfg.workload == "uobm-closure") {
    r = run_uobm_closure(cfg);
  } else if (cfg.workload == "lubm-serve") {
    r = run_served(cfg, false);
  } else if (cfg.workload == "lubm-serve-dist") {
    r = run_served(cfg, true);
  } else {
    throw std::invalid_argument("unknown workload " + cfg.workload);
  }
  r.correct = r.failed == 0;
  return r;
}

bool prepare(const std::string& what, const RunConfig& cfg) {
  if (what != "lubm" && what != "uobm") {
    std::cerr << "unknown input " << what << "\n";
    return false;
  }
  fs::create_directories(cfg.data_dir);
  rdf::Dictionary dict;
  rdf::TripleStore store;
  generate(what, cfg.seed, dict, store);
  Reference ref;
  ref.base = store.size();
  const parowl::ontology::Vocabulary vocab(dict);
  parowl::reason::MaterializeOptions mopts;
  if (what == "lubm") {
    mopts.threads = kThreads;
  } else {
    // UOBM runs single-store in the measured pass, with the ontology
    // compiled into instance rules; check it against the generic pD* rules
    // run directly over the data, without the predicate dispatch index and
    // devirtualized joins.
    mopts.threads = kThreads;
    mopts.compile = false;
    mopts.dispatch_index = false;
    mopts.devirtualize = false;
  }
  const parowl::reason::MaterializeResult m =
      parowl::reason::materialize(store, dict, vocab, mopts);
  ref.inferred = m.inferred;
  ref.closure = closure_digest(store, dict);
  ref.answers = answer_checks(store, dict, cfg.seed);
  if (what == "lubm") {
    const std::string path = lubm_snapshot_path(cfg);
    if (!save_snapshot_file(temp_name(path), dict, store, nullptr)) {
      std::cerr << "cannot write " << path << "\n";
      return false;
    }
    fs::rename(temp_name(path), path);
  }
  if (!write_reference(reference_path(cfg, what), ref)) {
    std::cerr << "cannot write the reference for " << what << "\n";
    return false;
  }
  std::cout << "prepared " << what << " seed " << cfg.seed << ": base "
            << ref.base << ", inferred " << ref.inferred << "\n";
  return true;
}

}  // namespace perfbench
