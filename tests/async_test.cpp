#include <gtest/gtest.h>

#include "parowl/gen/lubm.hpp"
#include "parowl/gen/uobm.hpp"
#include "parowl/parallel/pipeline.hpp"
#include "parowl/reason/materialize.hpp"

namespace parowl::parallel {
namespace {

class AsyncTest : public ::testing::Test {
 protected:
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};
  rdf::TripleStore store;
  rdf::TripleStore serial;

  void SetUp() override {
    gen::LubmOptions opts;
    opts.universities = 2;
    opts.departments_per_university = 2;
    opts.faculty_per_department = 4;
    opts.students_per_faculty = 3;
    gen::generate_lubm(opts, dict, store);

    serial.insert_all(store.triples());
    reason::materialize(serial, dict, vocab, {});
  }

  void expect_equivalent(const ParallelResult& result) {
    ASSERT_TRUE(result.merged.has_value());
    EXPECT_EQ(result.merged->size(), serial.size());
    for (const rdf::Triple& t : serial.triples()) {
      ASSERT_TRUE(result.merged->contains(t));
    }
    for (const rdf::Triple& t : result.merged->triples()) {
      ASSERT_TRUE(serial.contains(t));
    }
  }
};

TEST_F(AsyncTest, RulePartitionAsyncMatchesSerial) {
  ParallelOptions opts;
  opts.approach = Approach::kRulePartition;
  opts.partitions = 3;
  opts.mode = ExecutionMode::kAsync;
  expect_equivalent(parallel_materialize(store, dict, vocab, opts));
}

TEST_F(AsyncTest, AsyncClusterMatchesSerial) {
  const partition::HashOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  opts.mode = ExecutionMode::kAsync;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  const AsyncStats& st = result.cluster.async_stats;
  EXPECT_GT(st.activations, 0u);
  EXPECT_GT(st.token_epochs, 0u);
  EXPECT_GT(st.token_passes, 0u);
  EXPECT_EQ(st.idle_seconds_per_worker.size(), 4u);
}

TEST_F(AsyncTest, AsyncClusterStealDisabledMatchesSerial) {
  const partition::HashOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  opts.mode = ExecutionMode::kAsync;
  opts.async_exec.steal = false;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  EXPECT_EQ(result.cluster.async_stats.steals, 0u);
}

TEST_F(AsyncTest, AsyncClusterSmallChunksSteal) {
  // Tiny activation grain + graph partitioning (skewed backlogs) make
  // idle workers steal; the closure must be unaffected.
  const partition::GraphOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  opts.mode = ExecutionMode::kAsync;
  opts.async_exec.chunk = 16;
  opts.async_exec.steal_batch = 16;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  const AsyncStats& st = result.cluster.async_stats;
  EXPECT_GT(st.steals, 0u);
  EXPECT_GT(st.stolen_tuples, 0u);
}

TEST_F(AsyncTest, AsyncClusterSinglePartitionTerminates) {
  const partition::GraphOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 1;
  opts.policy = &policy;
  opts.mode = ExecutionMode::kAsync;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  EXPECT_EQ(result.cluster.async_stats.steals, 0u);
}

TEST_F(AsyncTest, AsyncClusterQueryDrivenMatchesSerial) {
  const partition::DomainOwnerPolicy policy(&partition::lubm_university_key);
  ParallelOptions opts;
  opts.partitions = 2;
  opts.policy = &policy;
  opts.local_strategy = reason::Strategy::kQueryDriven;
  opts.mode = ExecutionMode::kAsync;
  expect_equivalent(parallel_materialize(store, dict, vocab, opts));
}

TEST_F(AsyncTest, AsyncThreadedClusterMatchesSerial) {
  const partition::HashOwnerPolicy policy;
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  opts.mode = ExecutionMode::kAsyncThreaded;
  const ParallelResult result =
      parallel_materialize(store, dict, vocab, opts);
  expect_equivalent(result);
  EXPECT_GT(result.cluster.async_stats.activations, 0u);
  EXPECT_GT(result.cluster.async_stats.token_epochs, 0u);
}

TEST_F(AsyncTest, AsyncThreadedWaitingOnABusyPeerIsNotAStall) {
  // A 2^30 chunk makes each async_step evaluate a worker's whole backlog in
  // one long activation, while the two workers that own no university poll
  // idle for all of it.  Waiting on a busy peer must not count towards the
  // livelock limit.
  rdf::Dictionary d2;
  ontology::Vocabulary v2(d2);
  rdf::TripleStore uobm;
  gen::UobmOptions gopts;
  gopts.base.universities = 2;
  gopts.base.departments_per_university = 1;
  gopts.hometowns = 2;
  gen::generate_uobm(gopts, d2, uobm);
  rdf::TripleStore uobm_serial;
  uobm_serial.insert_all(uobm.triples());
  reason::materialize(uobm_serial, d2, v2, {});

  const partition::DomainOwnerPolicy policy(&partition::lubm_university_key);
  ParallelOptions opts;
  opts.partitions = 4;
  opts.policy = &policy;
  opts.mode = ExecutionMode::kAsyncThreaded;
  opts.async_exec.chunk = std::size_t{1} << 30;
  const ParallelResult result = parallel_materialize(uobm, d2, v2, opts);
  ASSERT_TRUE(result.merged.has_value());
  EXPECT_EQ(result.merged->size(), uobm_serial.size());
}

TEST_F(AsyncTest, AsyncUobmMatchesSerial) {
  // Dense data-set: many in-flight batches and re-activations.
  rdf::Dictionary d2;
  ontology::Vocabulary v2(d2);
  rdf::TripleStore uobm;
  gen::UobmOptions opts;
  opts.base.universities = 2;
  opts.base.departments_per_university = 1;
  opts.hometowns = 8;
  gen::generate_uobm(opts, d2, uobm);

  rdf::TripleStore uobm_serial;
  uobm_serial.insert_all(uobm.triples());
  reason::materialize(uobm_serial, d2, v2, {});

  const partition::GraphOwnerPolicy policy;
  ParallelOptions popts;
  popts.partitions = 3;
  popts.policy = &policy;
  popts.mode = ExecutionMode::kAsync;
  const ParallelResult result = parallel_materialize(uobm, d2, v2, popts);
  ASSERT_TRUE(result.merged.has_value());
  EXPECT_EQ(result.merged->size(), uobm_serial.size());
  for (const rdf::Triple& t : uobm_serial.triples()) {
    ASSERT_TRUE(result.merged->contains(t));
  }
}

}  // namespace
}  // namespace parowl::parallel
