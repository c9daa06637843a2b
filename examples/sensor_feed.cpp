// Streaming-updates scenario: an oilfield KB is materialized once, then a
// feed of new sensor measurements arrives in small batches.  Each batch is
// absorbed with materialize_incremental (closing only over the delta), the
// KB is queried live, and the final state is checkpointed as a binary
// snapshot that reloads without re-reasoning — the materialized-KB
// lifecycle the paper's introduction motivates.
//
//   build/examples/sensor_feed [fields] [batches]

#include <filesystem>
#include <fstream>
#include <iostream>

#include "parowl/gen/mdc.hpp"
#include "parowl/query/sparql_parser.hpp"
#include "parowl/rdf/snapshot.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace parowl;

  const unsigned fields =
      argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 2;
  const unsigned batches =
      argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 5;

  rdf::Dictionary dict;
  ontology::Vocabulary vocab(dict);
  rdf::TripleStore kb;
  gen::MdcOptions gopts;
  gopts.fields = fields;
  gen::generate_mdc(gopts, dict, kb);

  util::Stopwatch load_watch;
  const auto initial = reason::materialize(kb, dict, vocab, {});
  std::cout << "initial materialization: " << initial.inferred
            << " inferred triples in "
            << util::format_seconds(load_watch.elapsed_seconds()) << "\n";

  // Vocabulary handles for the feed.
  const auto type =
      dict.find_iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  const auto c_meas = dict.find_iri(std::string(gen::kMdcNs) + "Measurement");
  const auto measured_by =
      dict.find_iri(std::string(gen::kMdcNs) + "measuredBy");
  const auto sensor = dict.find_iri(
      "http://cisoft.usc.edu/data/Field0/Sensor0_0_0");
  if (sensor == rdf::kAnyTerm) {
    std::cerr << "expected sensor not present\n";
    return 1;
  }

  const auto c_completion =
      dict.find_iri(std::string(gen::kMdcNs) + "Completion");
  const auto part_of = dict.find_iri(std::string(gen::kMdcNs) + "partOf");
  const auto well = dict.find_iri("http://cisoft.usc.edu/data/Field0/Well0_0");

  // The batches add instance triples only, so the schema — and the
  // rule-base compiled from it — is fixed for the whole feed.
  const rules::CompiledRules compiled = reason::compile_ontology(kb, vocab);

  // The feed: each batch adds new measurements on an existing sensor plus a
  // freshly drilled completion on an existing well — the completion's
  // transitive partOf chain (well -> reservoir -> field) and the hasPart
  // inverses are derived incrementally.
  for (unsigned b = 0; b < batches; ++b) {
    std::vector<rdf::Triple> batch;
    for (unsigned m = 0; m < 50; ++m) {
      const auto meas = dict.intern_iri(
          "http://cisoft.usc.edu/data/Field0/LiveMeasurement" +
          std::to_string(b) + "_" + std::to_string(m));
      batch.push_back({meas, type, c_meas});
      batch.push_back({meas, measured_by, sensor});
    }
    const auto completion = dict.intern_iri(
        "http://cisoft.usc.edu/data/Field0/LiveCompletion" +
        std::to_string(b));
    batch.push_back({completion, type, c_completion});
    batch.push_back({completion, part_of, well});
    util::Stopwatch batch_watch;
    const auto inc = reason::materialize_incremental(
        kb, dict, vocab, batch, {}, 1, reason::EqualityMode::kNaive, nullptr,
        &compiled);
    std::cout << "batch " << b << ": +" << inc.added << " facts, +"
              << inc.inferred << " inferences in "
              << util::format_seconds(batch_watch.elapsed_seconds()) << "\n";
  }

  // Live query against the maintained closure.
  query::SparqlParser parser(dict);
  parser.add_prefix("mdc", gen::kMdcNs);
  const auto q = parser.parse(
      "SELECT ?m WHERE { ?m mdc:measuredBy "
      "<http://cisoft.usc.edu/data/Field0/Sensor0_0_0> }");
  if (!q) {
    return 1;
  }
  const auto results = query::evaluate(kb, *q);
  std::cout << "sensor Sensor0_0_0 now carries " << results.size()
            << " measurements\n";

  // Checkpoint and prove the snapshot reloads bit-identical.
  const auto snap_path = std::filesystem::temp_directory_path() /
                         "parowl_sensor_feed.snap";
  {
    std::ofstream out(snap_path, std::ios::binary);
    rdf::save_snapshot(out, dict, kb);
  }
  rdf::Dictionary dict2;
  rdf::TripleStore kb2;
  {
    std::ifstream in(snap_path, std::ios::binary);
    std::string error;
    if (!rdf::load_snapshot(in, dict2, kb2, &error)) {
      std::cerr << "snapshot reload failed: " << error << "\n";
      return 1;
    }
  }
  std::cout << "snapshot " << snap_path.string() << " reloads "
            << kb2.size() << "/" << kb.size()
            << " triples with no re-reasoning\n";
  std::filesystem::remove(snap_path);
  return 0;
}
