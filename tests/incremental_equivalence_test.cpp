// Differential maintenance-oracle suite (tier 2).
//
// The contract under test: after any seeded mixed add/delete stream, the
// incrementally maintained closure holds exactly the triples a from-scratch
// materialization of the final base would produce — for both strategies
// (DRed, FBF), for every rederivation thread count, with the result cache
// on or off, and through the distributed tier's shard refresh.  Equality is
// on sorted triple sequences (survivors keep their original log positions,
// so raw log order legitimately differs from a fresh run); across *thread
// counts* the maintained log itself must be byte-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "parowl/dist/service.hpp"
#include "parowl/gen/lubm.hpp"
#include "parowl/gen/lubm_queries.hpp"
#include "parowl/gen/mdc.hpp"
#include "parowl/partition/data_partition.hpp"
#include "parowl/rdf/flat_index.hpp"
#include "parowl/reason/maintain.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/serve/service.hpp"
#include "store_invariants.hpp"

namespace parowl::reason {
namespace {

std::vector<rdf::Triple> sorted_triples(const rdf::TripleStore& store) {
  std::vector<rdf::Triple> out = store.triples();
  std::sort(out.begin(), out.end());
  return out;
}

template <typename T>
std::vector<T> sorted_copy(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

constexpr MaintainStrategy kBothStrategies[] = {MaintainStrategy::kDRed,
                                                MaintainStrategy::kFbf};

const char* name_of(MaintainStrategy s) {
  return s == MaintainStrategy::kDRed ? "dred" : "fbf";
}

/// A seeded generator of mixed batches against an evolving asserted base.
/// Deletions sample the live instance pool; additions mix brand-new typed
/// individuals with re-adds of previously deleted triples (the
/// delete-then-readd path at stream scale).
class MixedStream {
 public:
  MixedStream(rdf::Dictionary& dict, const ontology::Vocabulary& vocab,
              std::span<const rdf::Triple> base, std::uint64_t seed)
      : dict_(dict), rng_(seed) {
    for (const rdf::Triple& t : base) {
      if (!vocab.is_schema_triple(t)) {
        live_.push_back(t);
        if (t.p == vocab.rdf_type) {
          classes_.push_back(t.o);
        }
      }
    }
    type_ = vocab.rdf_type;
  }

  struct Batch {
    std::vector<rdf::Triple> adds;
    std::vector<rdf::Triple> dels;
  };

  Batch next() {
    Batch batch;
    // Retract a random slice of the live instance pool.
    const std::size_t want = std::min<std::size_t>(20, live_.size() / 4);
    std::sample(live_.begin(), live_.end(), std::back_inserter(batch.dels),
                want, rng_);
    // Fresh individuals typed with classes the KB already uses...
    for (int i = 0; i < 8; ++i) {
      const auto subject = dict_.intern_iri(
          "http://inc.test/streamed" + std::to_string(next_id_++));
      const auto cls =
          classes_[std::uniform_int_distribution<std::size_t>(
              0, classes_.size() - 1)(rng_)];
      batch.adds.push_back({subject, type_, cls});
    }
    // ...plus resurrections of earlier deletions.
    const std::size_t back = std::min<std::size_t>(4, graveyard_.size());
    std::sample(graveyard_.begin(), graveyard_.end(),
                std::back_inserter(batch.adds), back, rng_);

    // Update the pools to the post-batch state.
    rdf::TripleSet del_set;
    for (const rdf::Triple& t : batch.dels) {
      del_set.insert(t);
    }
    rdf::TripleSet add_set;
    for (const rdf::Triple& t : batch.adds) {
      add_set.insert(t);
    }
    std::erase_if(live_, [&](const rdf::Triple& t) {
      return del_set.contains(t) && !add_set.contains(t);
    });
    std::erase_if(graveyard_,
                  [&](const rdf::Triple& t) { return add_set.contains(t); });
    for (const rdf::Triple& t : batch.adds) {
      if (!del_set.contains(t)) {
        live_.push_back(t);
      }
    }
    for (const rdf::Triple& t : batch.dels) {
      if (!add_set.contains(t)) {
        graveyard_.push_back(t);
      }
    }
    return batch;
  }

 private:
  rdf::Dictionary& dict_;
  std::mt19937_64 rng_;
  std::vector<rdf::Triple> live_;       // currently asserted instance triples
  std::vector<rdf::Triple> graveyard_;  // deleted, available for re-add
  std::vector<rdf::TermId> classes_;
  rdf::TermId type_;
  std::size_t next_id_ = 0;
};

struct Kb {
  rdf::Dictionary dict;
  ontology::Vocabulary vocab{dict};
  rdf::TripleStore store;  // materialized
  std::vector<rdf::Triple> base;

  void finish() {
    base = store.triples();
    materialize(store, dict, vocab, {});
  }
};

Kb lubm_kb() {
  Kb kb;
  gen::LubmOptions o;
  o.universities = 1;
  gen::generate_lubm(o, kb.dict, kb.store);
  kb.finish();
  return kb;
}

Kb mdc_kb() {
  Kb kb;
  gen::MdcOptions o;
  o.fields = 2;
  gen::generate_mdc(o, kb.dict, kb.store);
  kb.finish();
  return kb;
}

/// From-scratch closure of `base` — the oracle every variant is pinned to.
std::vector<rdf::Triple> oracle_closure(Kb& kb,
                                        const std::vector<rdf::Triple>& base) {
  rdf::TripleStore fresh;
  fresh.insert_all(base);
  materialize(fresh, kb.dict, kb.vocab, {});
  return sorted_triples(fresh);
}

// ---------------------------------------------------------------------------
// Maintainer core: random streams, both strategies, thread sweep.

class IncrementalEquivalence
    : public ::testing::TestWithParam<MaintainStrategy> {};

void run_stream_against_oracle(Kb kb, MaintainStrategy strategy,
                               std::uint64_t seed, int rounds,
                               EqualityMode mode = EqualityMode::kNaive) {
  constexpr unsigned kThreads[] = {1, 2, 4, 8};

  // Under rewrite the stream starts from the representative-space closure
  // and its class map; on sameAs-free data that closure equals the naive
  // one as a set, so the same oracle applies.
  EqualityManager eq;
  if (mode == EqualityMode::kRewrite) {
    kb.store = rdf::TripleStore();
    kb.store.insert_all(kb.base);
    MaterializeOptions mo;
    mo.equality_mode = mode;
    mo.equality = &eq;
    materialize(kb.store, kb.dict, kb.vocab, mo);
  }

  // One (store, base, base set, class map) replica per thread count,
  // maintained in lockstep.
  std::vector<rdf::TripleStore> stores;
  std::vector<std::vector<rdf::Triple>> bases;
  std::vector<rdf::TripleSet> base_sets;
  std::vector<EqualityManager> eqs;
  for (std::size_t i = 0; i < std::size(kThreads); ++i) {
    stores.push_back(kb.store);
    bases.push_back(kb.base);
    base_sets.emplace_back(kb.base);
    eqs.push_back(eq);
  }

  MixedStream stream(kb.dict, kb.vocab, kb.base, seed);
  for (int round = 0; round < rounds; ++round) {
    const MixedStream::Batch batch = stream.next();
    std::vector<rdf::Triple> removed;
    for (std::size_t i = 0; i < std::size(kThreads); ++i) {
      MaintainOptions opts;
      opts.strategy = strategy;
      opts.threads = kThreads[i];
      opts.equality_mode = mode;
      const Maintainer maintainer(kb.dict, kb.vocab, stores[i], opts);
      const MaintainResult r = maintainer.apply(
          stores[i], bases[i], base_sets[i], batch.adds, batch.dels,
          mode == EqualityMode::kRewrite ? &eqs[i] : nullptr);
      ASSERT_FALSE(r.schema_changed) << "round " << round;
      ASSERT_FALSE(r.equality_rejected) << "round " << round;
      removed = r.removed_triples;
    }

    // Thread counts must agree bit-for-bit, log order included.
    for (std::size_t i = 1; i < std::size(kThreads); ++i) {
      ASSERT_EQ(stores[0].triples(), stores[i].triples())
          << "round " << round << ": " << kThreads[i]
          << "-thread log diverged from single-thread";
      ASSERT_EQ(bases[0], bases[i]) << "round " << round;
    }

    // The in-place erase left every index as a fresh insert of the log
    // would build it (probing the removed and deleted keys too), and the
    // patched base set is still exactly the base.
    removed.insert(removed.end(), batch.dels.begin(), batch.dels.end());
    ASSERT_TRUE(test::indexes_match_log(stores[0], removed))
        << "round " << round;
    for (std::size_t i = 0; i < std::size(kThreads); ++i) {
      ASSERT_TRUE(test::set_matches(base_sets[i], bases[i]))
          << "round " << round;
    }

    // And the maintained closure must equal the from-scratch one.
    ASSERT_EQ(sorted_triples(stores[0]), oracle_closure(kb, bases[0]))
        << name_of(strategy) << " diverged from oracle at round " << round;
  }
}

TEST_P(IncrementalEquivalence, LubmRandomStreamMatchesOracle) {
  run_stream_against_oracle(lubm_kb(), GetParam(), /*seed=*/42, /*rounds=*/6);
}

TEST_P(IncrementalEquivalence, LubmSecondSeedMatchesOracle) {
  run_stream_against_oracle(lubm_kb(), GetParam(), /*seed=*/1337,
                            /*rounds=*/4);
}

TEST_P(IncrementalEquivalence, MdcRandomStreamMatchesOracle) {
  run_stream_against_oracle(mdc_kb(), GetParam(), /*seed=*/7, /*rounds=*/4);
}

TEST_P(IncrementalEquivalence, LubmRewriteStreamMatchesOracle) {
  run_stream_against_oracle(lubm_kb(), GetParam(), /*seed=*/42, /*rounds=*/4,
                            EqualityMode::kRewrite);
}

// DRed and FBF must agree with each other on identical streams (they both
// agree with the oracle above; this pins them against each other directly,
// including the statistics-independent store/base state).
TEST(IncrementalEquivalenceCross, StrategiesAgreeOnIdenticalStreams) {
  Kb kb = lubm_kb();
  rdf::TripleStore dred_store = kb.store;
  rdf::TripleStore fbf_store = kb.store;
  std::vector<rdf::Triple> dred_base = kb.base;
  std::vector<rdf::Triple> fbf_base = kb.base;
  rdf::TripleSet dred_set(kb.base);
  rdf::TripleSet fbf_set(kb.base);

  MixedStream stream(kb.dict, kb.vocab, kb.base, /*seed=*/99);
  MaintainOptions dred;
  dred.strategy = MaintainStrategy::kDRed;
  MaintainOptions fbf;
  fbf.strategy = MaintainStrategy::kFbf;
  const Maintainer dred_maintainer(kb.dict, kb.vocab, kb.store, dred);
  const Maintainer fbf_maintainer(kb.dict, kb.vocab, kb.store, fbf);
  for (int round = 0; round < 5; ++round) {
    const MixedStream::Batch batch = stream.next();
    dred_maintainer.apply(dred_store, dred_base, dred_set, batch.adds,
                          batch.dels);
    fbf_maintainer.apply(fbf_store, fbf_base, fbf_set, batch.adds,
                         batch.dels);
    ASSERT_EQ(dred_base, fbf_base) << "round " << round;
    ASSERT_EQ(sorted_triples(dred_store), sorted_triples(fbf_store))
        << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Serve tier: the same stream through QueryService, cache on and off.

TEST(IncrementalEquivalenceServe, CacheOnAndOffConvergeToOracle) {
  Kb kb = lubm_kb();

  serve::ServiceOptions cached;
  cached.threads = 2;
  cached.cache_enabled = true;
  serve::ServiceOptions uncached;
  uncached.threads = 2;
  uncached.cache_enabled = false;

  rdf::TripleStore s1 = kb.store;
  rdf::TripleStore s2 = kb.store;
  serve::QueryService with_cache(kb.dict, kb.vocab, std::move(s1), cached,
                                 kb.base);
  serve::QueryService without_cache(kb.dict, kb.vocab, std::move(s2),
                                    uncached, kb.base);

  std::vector<std::string> queries;
  for (const gen::LubmQuery& q : gen::lubm_queries()) {
    queries.push_back(q.sparql);
  }

  std::vector<rdf::Triple> shadow_base = kb.base;  // oracle bookkeeping
  MixedStream stream(kb.dict, kb.vocab, kb.base, /*seed=*/5);
  for (int round = 0; round < 4; ++round) {
    const MixedStream::Batch batch = stream.next();
    const serve::UpdateOutcome a = with_cache.apply_update(
        std::span<const rdf::Triple>(batch.adds),
        std::span<const rdf::Triple>(batch.dels));
    const serve::UpdateOutcome b = without_cache.apply_update(
        std::span<const rdf::Triple>(batch.adds),
        std::span<const rdf::Triple>(batch.dels));
    ASSERT_EQ(a.version, b.version) << "round " << round;

    // Same answers with and without the cache, every query, twice (the
    // second pass hits the cache on the cached service).
    for (const std::string& q : queries) {
      for (int pass = 0; pass < 2; ++pass) {
        const serve::Response ra = with_cache.execute(q);
        const serve::Response rb = without_cache.execute(q);
        ASSERT_EQ(ra.status, serve::RequestStatus::kOk);
        ASSERT_EQ(rb.status, serve::RequestStatus::kOk);
        ASSERT_EQ(sorted_copy(ra.results.rows).size(),
                  sorted_copy(rb.results.rows).size());
        ASSERT_EQ(sorted_copy(ra.results.rows), sorted_copy(rb.results.rows))
            << "round " << round << " query " << q;
      }
    }
  }

  // Both snapshots equal the from-scratch closure of the final base.
  const auto* final_base = with_cache.snapshot()->base.get();
  ASSERT_NE(final_base, nullptr);
  const std::vector<rdf::Triple> want = oracle_closure(kb, *final_base);
  EXPECT_EQ(sorted_triples(with_cache.snapshot()->store), want);
  EXPECT_EQ(sorted_triples(without_cache.snapshot()->store), want);
}

// ---------------------------------------------------------------------------
// Dist tier: shard refresh keeps the catalog equal to a from-scratch
// re-sharding of the maintained closure, and served answers match the
// single-store service.

TEST(IncrementalEquivalenceDist, ShardRefreshTracksMaintainedClosure) {
  Kb kb = lubm_kb();
  constexpr std::uint32_t k = 4;
  const partition::HashOwnerPolicy policy;
  partition::OwnerTable owners =
      partition::partition_data(kb.store, kb.dict, kb.vocab, policy, k)
          .owners;

  const dist::NodeLayout layout{k, /*replicas=*/1};
  parallel::MemoryTransport transport(layout.num_nodes());
  dist::DistOptions dopts;
  dopts.threads = 1;
  dopts.queue_capacity = 256;
  dist::DistService dist_service(kb.dict, kb.store, owners, k, transport,
                                 dopts);

  // The single-store reference maintained through the same stream.
  rdf::TripleStore ref_store = kb.store;
  serve::ServiceOptions sopts;
  sopts.threads = 1;
  serve::QueryService reference(kb.dict, kb.vocab, std::move(ref_store),
                                sopts, kb.base);

  std::vector<std::string> queries;
  for (const gen::LubmQuery& q : gen::lubm_queries()) {
    queries.push_back(q.sparql);
  }

  MixedStream stream(kb.dict, kb.vocab, kb.base, /*seed=*/11);
  for (int round = 0; round < 3; ++round) {
    const MixedStream::Batch batch = stream.next();
    const serve::UpdateOutcome outcome = reference.apply_update(
        std::span<const rdf::Triple>(batch.adds),
        std::span<const rdf::Triple>(batch.dels));
    if (outcome.version == 0) {
      continue;  // no-op round: nothing to ship
    }
    const serve::SnapshotPtr snap = reference.snapshot();
    const auto& log = snap->store.triples();
    const std::vector<rdf::Triple> tail(log.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                snap->delta_begin),
                                        log.end());
    const std::vector<std::uint64_t> before =
        dist_service.shard_versions();
    dist_service.refresh(tail, outcome.maintain.removed_triples);
    const std::vector<std::uint64_t> after = dist_service.shard_versions();
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t p = 0; p < after.size(); ++p) {
      ASSERT_GE(after[p], before[p]) << "shard version went backwards";
    }

    // The union of decoded shards equals the maintained closure, and each
    // shard holds exactly what a from-scratch re-sharding would place there.
    dist::ShardCatalog rebuilt(snap->store, owners, k);
    std::unordered_set<rdf::Triple, rdf::TripleHash> covered;
    for (std::uint32_t p = 0; p < k; ++p) {
      std::vector<rdf::Triple> incremental;
      std::vector<rdf::Triple> scratch;
      std::string error;
      ASSERT_TRUE(dist::ShardCatalog::decode(dist_service.catalog().shard(p),
                                             incremental, &error))
          << error;
      ASSERT_TRUE(
          dist::ShardCatalog::decode(rebuilt.shard(p), scratch, &error))
          << error;
      ASSERT_EQ(sorted_copy(incremental), sorted_copy(scratch))
          << "round " << round << " partition " << p;
      covered.insert(incremental.begin(), incremental.end());
    }
    EXPECT_EQ(covered.size(), snap->store.size()) << "round " << round;

    // Scatter/gather answers equal the single-store reference.
    for (const std::string& q : queries) {
      const serve::Response rd = dist_service.execute(q);
      const serve::Response rr = reference.execute(q);
      ASSERT_EQ(rd.status, serve::RequestStatus::kOk);
      ASSERT_EQ(rr.status, serve::RequestStatus::kOk);
      ASSERT_EQ(sorted_copy(rd.results.rows), sorted_copy(rr.results.rows))
          << "round " << round << " query " << q;
    }
  }
  dist_service.drain();
  reference.drain();
}

INSTANTIATE_TEST_SUITE_P(Strategies, IncrementalEquivalence,
                         ::testing::ValuesIn(kBothStrategies),
                         [](const auto& param_info) {
                           return std::string(name_of(param_info.param));
                         });

}  // namespace
}  // namespace parowl::reason
