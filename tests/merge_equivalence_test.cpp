// The master-side merge of parallel_materialize against a recount that
// shares none of its code: std::set over the same run's worker logs.
//
// For every approach x executor, the run's own workers (seen through
// ParallelOptions::on_workers_done) give the reference: the merged store is
// store, then the ground facts, then every worker's whole log, inserted in
// that order; `inferred` is |(ground ∪ worker results) \ store|; the OR
// inputs are the per-worker result counts and their union.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "parowl/gen/uobm.hpp"
#include "parowl/parallel/pipeline.hpp"
#include "parowl/partition/owner_policy.hpp"
#include "parowl/reason/materialize.hpp"

namespace parowl::parallel {
namespace {

using TripleKey = std::tuple<rdf::TermId, rdf::TermId, rdf::TermId>;

TripleKey key(const rdf::Triple& t) { return {t.s, t.p, t.o}; }

/// What the test records about one run's workers before the merge.
struct WorkerLogs {
  std::vector<std::vector<rdf::Triple>> logs;
  std::vector<std::size_t> base_sizes;
};

/// Small UOBM: dense cross links, so workers derive overlapping results.
struct UobmData {
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};
  rdf::TripleStore store;

  UobmData() {
    gen::UobmOptions opts;
    opts.base.universities = 3;
    opts.base.departments_per_university = 2;
    opts.base.faculty_per_department = 4;
    opts.base.students_per_faculty = 3;
    opts.hometowns = 4;
    gen::generate_uobm(opts, dict, store);
  }
};

const UobmData& data() {
  static const UobmData d;
  return d;
}

const char* approach_name(Approach a) {
  switch (a) {
    case Approach::kDataPartition:
      return "data";
    case Approach::kRulePartition:
      return "rule";
    default:
      return "hybrid";
  }
}

const char* mode_name(ExecutionMode m) {
  switch (m) {
    case ExecutionMode::kSequentialSimulated:
      return "sequential";
    case ExecutionMode::kThreaded:
      return "threaded";
    case ExecutionMode::kAsync:
      return "async";
    case ExecutionMode::kAsyncThreaded:
      return "async_threaded";
  }
  return "";
}

class MergeEquivalence
    : public ::testing::TestWithParam<std::tuple<Approach, ExecutionMode>> {
 protected:
  const partition::HashOwnerPolicy policy_;

  ParallelOptions options(bool build_merged, WorkerLogs* logs) const {
    ParallelOptions opts;
    opts.approach = std::get<0>(GetParam());
    opts.mode = std::get<1>(GetParam());
    opts.partitions = 3;
    opts.rule_partitions = 2;
    opts.policy = &policy_;
    opts.build_merged = build_merged;
    if (logs != nullptr) {
      opts.on_workers_done = [logs](std::span<const Worker* const> workers) {
        for (const Worker* w : workers) {
          logs->logs.push_back(w->store().triples());
          logs->base_sizes.push_back(w->base_size());
        }
      };
    }
    return opts;
  }
};

TEST_P(MergeEquivalence, MatchesTheOldMergeAndASetRecount) {
  const UobmData& d = data();
  WorkerLogs logs;
  const ParallelResult merged_run = parallel_materialize(
      d.store, d.dict, d.vocab, options(/*build_merged=*/true, &logs));
  const ParallelResult counted_run = parallel_materialize(
      d.store, d.dict, d.vocab, options(/*build_merged=*/false, nullptr));
  ASSERT_TRUE(merged_run.merged.has_value());
  EXPECT_FALSE(counted_run.merged.has_value());
  ASSERT_EQ(logs.logs.size(), merged_run.cluster.results_per_partition.size());

  const std::vector<rdf::Triple> ground =
      reason::compile_ontology(d.store, d.vocab).ground_facts;

  // The old construction: store, ground facts, every whole worker log.
  std::vector<rdf::Triple> old_order;
  std::unordered_set<rdf::Triple, rdf::TripleHash> in_old;
  const auto append = [&](const std::vector<rdf::Triple>& ts) {
    for (const rdf::Triple& t : ts) {
      if (in_old.insert(t).second) {
        old_order.push_back(t);
      }
    }
  };
  append(d.store.triples());
  append(ground);
  for (const auto& log : logs.logs) {
    append(log);
  }
  EXPECT_EQ(merged_run.merged->triples(), old_order);

  // inferred: (ground ∪ worker results) \ store, by std::set.
  std::set<TripleKey> input;
  for (const rdf::Triple& t : d.store.triples()) {
    input.insert(key(t));
  }
  std::set<TripleKey> fresh;
  std::set<TripleKey> results;
  std::vector<std::size_t> per_worker;
  for (const rdf::Triple& t : ground) {
    if (!input.contains(key(t))) {
      fresh.insert(key(t));
    }
  }
  for (std::size_t w = 0; w < logs.logs.size(); ++w) {
    const auto& log = logs.logs[w];
    per_worker.push_back(log.size() - logs.base_sizes[w]);
    for (std::size_t i = logs.base_sizes[w]; i < log.size(); ++i) {
      results.insert(key(log[i]));
      if (!input.contains(key(log[i]))) {
        fresh.insert(key(log[i]));
      }
    }
  }
  ASSERT_GT(fresh.size(), 0u);
  EXPECT_EQ(merged_run.inferred, fresh.size());
  EXPECT_EQ(counted_run.inferred, merged_run.inferred);
  EXPECT_EQ(merged_run.merged->size(), d.store.size() + fresh.size());

  // The OR inputs and OR itself.
  EXPECT_EQ(merged_run.cluster.results_per_partition, per_worker);
  EXPECT_EQ(merged_run.cluster.union_results, results.size());
  std::size_t sum = 0;
  for (const std::size_t n : per_worker) {
    sum += n;
  }
  const double expected_or =
      results.empty() ? 0.0
                      : static_cast<double>(sum) /
                                static_cast<double>(results.size()) -
                            1.0;
  EXPECT_DOUBLE_EQ(merged_run.output_replication, expected_or);
}

INSTANTIATE_TEST_SUITE_P(
    ApproachesByExecutors, MergeEquivalence,
    ::testing::Combine(
        ::testing::Values(Approach::kDataPartition, Approach::kRulePartition,
                          Approach::kHybrid),
        ::testing::Values(ExecutionMode::kSequentialSimulated,
                          ExecutionMode::kThreaded, ExecutionMode::kAsync,
                          ExecutionMode::kAsyncThreaded)),
    [](const ::testing::TestParamInfo<MergeEquivalence::ParamType>& p) {
      return std::string(approach_name(std::get<0>(p.param))) + "_" +
             mode_name(std::get<1>(p.param));
    });

// compute_partition_metrics against per-partition std::set node counts.
TEST(PartitionMetricsRecount, MatchesSetRecount) {
  const UobmData& d = data();
  const partition::HashOwnerPolicy hash;
  const partition::GraphOwnerPolicy graph;
  for (const partition::OwnerPolicy* policy :
       {static_cast<const partition::OwnerPolicy*>(&hash),
        static_cast<const partition::OwnerPolicy*>(&graph)}) {
    for (const std::uint32_t k : {1u, 3u, 5u}) {
      const partition::DataPartitioning dp =
          partition::partition_data(d.store, d.dict, d.vocab, *policy, k);
      const partition::PartitionMetrics m =
          partition::compute_partition_metrics(dp, d.dict);

      std::set<rdf::TermId> all;
      std::vector<std::size_t> per_part;
      std::size_t replicated = 0;
      for (const auto& part : dp.parts) {
        std::set<rdf::TermId> nodes;
        for (const rdf::Triple& t : part) {
          if (dp.owners.contains(t.s)) {
            nodes.insert(t.s);
          }
          if (d.dict.is_resource(t.o) && dp.owners.contains(t.o)) {
            nodes.insert(t.o);
          }
        }
        per_part.push_back(nodes.size());
        replicated += nodes.size();
        all.insert(nodes.begin(), nodes.end());
      }
      ASSERT_GT(all.size(), 0u);
      EXPECT_EQ(m.nodes_per_partition, per_part);
      EXPECT_EQ(m.total_nodes, all.size());
      EXPECT_DOUBLE_EQ(m.input_replication,
                       static_cast<double>(replicated) /
                               static_cast<double>(all.size()) -
                           1.0);
      double mean = 0.0;
      for (const std::size_t n : per_part) {
        mean += static_cast<double>(n);
      }
      mean /= static_cast<double>(per_part.size());
      double var = 0.0;
      for (const std::size_t n : per_part) {
        var += (static_cast<double>(n) - mean) * (static_cast<double>(n) - mean);
      }
      EXPECT_NEAR(m.bal, std::sqrt(var / static_cast<double>(per_part.size())),
                  1e-9);
    }
  }
}

}  // namespace
}  // namespace parowl::parallel
