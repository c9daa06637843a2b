#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <vector>

#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/flat_index.hpp"
#include "parowl/rdf/graph_stats.hpp"
#include "parowl/rdf/ntriples.hpp"
#include "parowl/rdf/triple_store.hpp"
#include "store_invariants.hpp"

namespace parowl::rdf {
namespace {

TEST(Dictionary, InternIsIdempotent) {
  Dictionary d;
  const TermId a = d.intern_iri("http://ex/a");
  const TermId b = d.intern_iri("http://ex/a");
  EXPECT_EQ(a, b);
  EXPECT_EQ(d.size(), 1u);
}

TEST(Dictionary, IdsStartAtOne) {
  Dictionary d;
  EXPECT_EQ(d.intern_iri("x"), 1u);
  EXPECT_EQ(d.intern_iri("y"), 2u);
}

TEST(Dictionary, KindDistinguishesSameLexical) {
  Dictionary d;
  const TermId iri = d.intern_iri("x");
  const TermId blank = d.intern_blank("x");
  const TermId lit = d.intern_literal("x");
  EXPECT_NE(iri, blank);
  EXPECT_NE(iri, lit);
  EXPECT_NE(blank, lit);
  EXPECT_EQ(d.kind(iri), TermKind::kIri);
  EXPECT_EQ(d.kind(blank), TermKind::kBlank);
  EXPECT_EQ(d.kind(lit), TermKind::kLiteral);
}

TEST(Dictionary, FindReturnsZeroForAbsent) {
  Dictionary d;
  EXPECT_EQ(d.find_iri("nope"), kAnyTerm);
  d.intern_iri("yes");
  EXPECT_NE(d.find_iri("yes"), kAnyTerm);
}

TEST(Dictionary, LexicalRoundTrips) {
  Dictionary d;
  const TermId a = d.intern_iri("http://ex/thing");
  EXPECT_EQ(d.lexical(a), "http://ex/thing");
}

TEST(Dictionary, IsResource) {
  Dictionary d;
  EXPECT_TRUE(d.is_resource(d.intern_iri("i")));
  EXPECT_TRUE(d.is_resource(d.intern_blank("b")));
  EXPECT_FALSE(d.is_resource(d.intern_literal("\"l\"")));
}

TEST(Dictionary, SurvivesManyInserts) {
  // deque storage must keep string_views stable across growth.
  Dictionary d;
  std::vector<TermId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(d.intern_iri("http://ex/n" + std::to_string(i)));
  }
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(d.find_iri("http://ex/n" + std::to_string(i)), ids[i]);
  }
}

TEST(TripleStore, InsertDeduplicates) {
  TripleStore s;
  EXPECT_TRUE(s.insert({1, 2, 3}));
  EXPECT_FALSE(s.insert({1, 2, 3}));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains({1, 2, 3}));
  EXPECT_FALSE(s.contains({3, 2, 1}));
}

TEST(TripleStore, InsertAllCountsNew) {
  TripleStore s;
  const std::vector<Triple> ts{{1, 2, 3}, {1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(s.insert_all(ts), 2u);
}

TEST(TripleStore, LogPreservesInsertionOrder) {
  TripleStore s;
  s.insert({1, 2, 3});
  s.insert({4, 5, 6});
  s.insert({7, 8, 9});
  ASSERT_EQ(s.triples().size(), 3u);
  EXPECT_EQ(s.triples()[0], (Triple{1, 2, 3}));
  EXPECT_EQ(s.triples()[2], (Triple{7, 8, 9}));
}

TEST(TripleStore, PredicateIndex) {
  TripleStore s;
  s.insert({1, 10, 2});
  s.insert({3, 10, 4});
  s.insert({1, 11, 2});
  EXPECT_EQ(s.with_predicate(10).size(), 2u);
  EXPECT_EQ(s.with_predicate(11).size(), 1u);
  EXPECT_EQ(s.with_predicate(12).size(), 0u);
  ASSERT_EQ(s.predicates().size(), 2u);
}

TEST(TripleStore, ObjectsAndSubjectsProbes) {
  TripleStore s;
  s.insert({1, 10, 2});
  s.insert({1, 10, 3});
  s.insert({4, 10, 2});
  const auto objs = s.objects(10, 1);
  EXPECT_EQ(objs.size(), 2u);
  const auto subs = s.subjects(10, 2);
  EXPECT_EQ(subs.size(), 2u);
  EXPECT_TRUE(s.objects(10, 99).empty());
  EXPECT_TRUE(s.subjects(99, 2).empty());
}

TEST(TripleStore, MatchAllBoundCombinations) {
  TripleStore s;
  s.insert({1, 10, 2});
  s.insert({1, 11, 3});
  s.insert({4, 10, 2});

  EXPECT_EQ(s.count({1, 10, 2}), 1u);
  EXPECT_EQ(s.count({1, kAnyTerm, kAnyTerm}), 2u);   // subject index
  EXPECT_EQ(s.count({kAnyTerm, 10, kAnyTerm}), 2u);  // predicate index
  EXPECT_EQ(s.count({kAnyTerm, kAnyTerm, 2}), 2u);   // object index
  EXPECT_EQ(s.count({1, 10, kAnyTerm}), 1u);
  EXPECT_EQ(s.count({kAnyTerm, 10, 2}), 2u);
  EXPECT_EQ(s.count({1, kAnyTerm, 2}), 1u);
  EXPECT_EQ(s.count({kAnyTerm, kAnyTerm, kAnyTerm}), 3u);
}

TEST(TripleStore, ForSubjectAndObject) {
  TripleStore s;
  s.insert({1, 10, 2});
  s.insert({1, 11, 3});
  std::size_t n = 0;
  s.for_subject_each(1, [&n](const Triple&) { ++n; });
  EXPECT_EQ(n, 2u);
  n = 0;
  s.for_object_each(3, [&n](const Triple&) { ++n; });
  EXPECT_EQ(n, 1u);
}

TEST(TripleStore, ClearEmptiesEverything) {
  TripleStore s;
  s.insert({1, 10, 2});
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains({1, 10, 2}));
  EXPECT_TRUE(s.with_predicate(10).empty());
  EXPECT_EQ(s.count({1, kAnyTerm, kAnyTerm}), 0u);
  // Reusable after clear.
  EXPECT_TRUE(s.insert({1, 10, 2}));
}

TEST(TriplePattern, WildcardsMatch) {
  const TriplePattern p{kAnyTerm, 10, kAnyTerm};
  EXPECT_TRUE(p.matches({1, 10, 2}));
  EXPECT_FALSE(p.matches({1, 11, 2}));
}

TEST(NTriples, ParsesIriTriple) {
  Dictionary d;
  const auto t = parse_ntriples_line(
      "<http://ex/s> <http://ex/p> <http://ex/o> .", d);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(d.lexical(t->s), "http://ex/s");
  EXPECT_EQ(d.kind(t->o), TermKind::kIri);
}

TEST(NTriples, ParsesLiteralAndBlank) {
  Dictionary d;
  const auto t1 = parse_ntriples_line(
      "_:b1 <http://ex/p> \"hello world\" .", d);
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(d.kind(t1->s), TermKind::kBlank);
  EXPECT_EQ(d.kind(t1->o), TermKind::kLiteral);

  const auto t2 = parse_ntriples_line(
      "<http://ex/s> <http://ex/p> \"5\"^^<http://www.w3.org/2001/XMLSchema#int> .",
      d);
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(d.lexical(t2->o),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#int>");
}

TEST(NTriples, SkipsCommentsAndBlank) {
  Dictionary d;
  EXPECT_FALSE(parse_ntriples_line("# comment", d).has_value());
  EXPECT_FALSE(parse_ntriples_line("   ", d).has_value());
}

TEST(NTriples, RejectsMalformed) {
  Dictionary d;
  std::string err;
  EXPECT_FALSE(parse_ntriples_line("<a <b> <c> .", d, &err).has_value());
  EXPECT_FALSE(parse_ntriples_line("<a> <b> <c>", d, &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(
      parse_ntriples_line("\"lit\" <b> <c> .", d, &err).has_value());
}

TEST(NTriples, StreamParseCountsStats) {
  Dictionary d;
  TripleStore s;
  std::istringstream in(
      "<http://ex/a> <http://ex/p> <http://ex/b> .\n"
      "# comment\n"
      "<http://ex/a> <http://ex/p> <http://ex/b> .\n"
      "bad line\n"
      "<http://ex/b> <http://ex/p> \"x\" .\n");
  const ParseStats stats = parse_ntriples(in, d, s);
  EXPECT_EQ(stats.triples, 3u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.bad_lines, 1u);
  EXPECT_NE(stats.first_error.find("line 4"), std::string::npos);
  EXPECT_EQ(s.size(), 2u);
}

TEST(NTriples, SerializationRoundTrips) {
  Dictionary d;
  TripleStore s;
  std::istringstream in(
      "<http://ex/a> <http://ex/p> <http://ex/b> .\n"
      "_:node1 <http://ex/p> \"v\"@en .\n");
  parse_ntriples(in, d, s);

  std::ostringstream out;
  write_ntriples(out, s, d);

  Dictionary d2;
  TripleStore s2;
  std::istringstream back(out.str());
  const ParseStats stats = parse_ntriples(back, d2, s2);
  EXPECT_EQ(stats.bad_lines, 0u);
  EXPECT_EQ(s2.size(), s.size());
}

TEST(GraphStats, CountsNodesAndDegrees) {
  Dictionary d;
  TripleStore s;
  const TermId a = d.intern_iri("a"), b = d.intern_iri("b"),
               c = d.intern_iri("c"), p = d.intern_iri("p");
  const TermId lit = d.intern_literal("\"x\"");
  s.insert({a, p, b});
  s.insert({b, p, c});
  s.insert({a, p, lit});

  const GraphStats gs = compute_graph_stats(s, d);
  EXPECT_EQ(gs.triples, 3u);
  EXPECT_EQ(gs.nodes, 3u);  // a, b, c — literal is not a node
  EXPECT_EQ(gs.literal_objects, 1u);
  EXPECT_EQ(gs.max_degree, 2u);  // b: one in, one out
  EXPECT_EQ(gs.predicates, 1u);

  const auto nodes = resource_nodes(s, d);
  EXPECT_EQ(nodes.size(), 3u);
  EXPECT_TRUE(nodes.contains(a));
  EXPECT_FALSE(nodes.contains(lit));
}

TEST(IdMap, FindAndInsertAcrossGrowth) {
  IdMap<std::uint32_t> m;
  EXPECT_EQ(m.find(1), nullptr);
  // Enough keys to force several rehashes past the initial 16 slots.
  for (TermId k = 1; k <= 1000; ++k) {
    m[k] = k * 7;
  }
  EXPECT_EQ(m.size(), 1000u);
  for (TermId k = 1; k <= 1000; ++k) {
    const std::uint32_t* v = m.find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k * 7);
  }
  EXPECT_EQ(m.find(1001), nullptr);
  m[5] = 99;  // overwrite does not grow
  EXPECT_EQ(m.size(), 1000u);
  EXPECT_EQ(*m.find(5), 99u);
}

TEST(TripleSet, InsertContainsReset) {
  TripleSet set;
  EXPECT_FALSE(set.contains({1, 2, 3}));
  EXPECT_TRUE(set.insert({1, 2, 3}));
  EXPECT_FALSE(set.insert({1, 2, 3}));  // duplicate
  for (TermId i = 1; i <= 500; ++i) {
    set.insert({i, i + 1, i + 2});
  }
  EXPECT_EQ(set.size(), 500u);  // {1,2,3} was part of the loop's range
  for (TermId i = 1; i <= 500; ++i) {
    EXPECT_TRUE(set.contains({i, i + 1, i + 2}));
  }
  EXPECT_FALSE(set.contains({500, 500, 500}));
  set.reset();  // keeps capacity, drops content
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains({1, 2, 3}));
  EXPECT_TRUE(set.insert({1, 2, 3}));
}

TEST(SmallIdList, SpillsPastInlineCapacity) {
  SmallIdList list;
  EXPECT_TRUE(list.view().empty());
  for (std::uint32_t i = 0; i < 10; ++i) {
    list.push_back(i * 3);
    // The view stays contiguous and in insertion order through the
    // inline-to-spill migration at kInline entries.
    const auto v = list.view();
    ASSERT_EQ(v.size(), i + 1);
    for (std::uint32_t j = 0; j <= i; ++j) {
      EXPECT_EQ(v[j], j * 3);
    }
  }
  EXPECT_EQ(list.size(), 10u);
}

TEST(TripleStore, EndpointIndexIsLazyButCoherent) {
  // for_subject_each / for_object_each are served by a lazily built index;
  // probing, inserting more, and probing again must reflect every insert.
  TripleStore s;
  s.insert({1, 2, 3});
  s.insert({1, 4, 5});
  std::size_t n = 0;
  s.for_subject_each(1, [&n](const Triple&) { ++n; });
  EXPECT_EQ(n, 2u);

  s.insert({1, 6, 7});
  s.insert({8, 9, 1});
  n = 0;
  s.for_subject_each(1, [&n](const Triple&) { ++n; });
  EXPECT_EQ(n, 3u);
  n = 0;
  s.for_object_each(1, [&n](const Triple&) { ++n; });
  EXPECT_EQ(n, 1u);

  // Unbound-predicate patterns route through the same lazy index.
  EXPECT_EQ(s.count({1, kAnyTerm, kAnyTerm}), 3u);
  EXPECT_EQ(s.count({kAnyTerm, kAnyTerm, 1}), 1u);
}

TEST(TripleStore, CopyPreservesIndexesIndependently) {
  TripleStore a;
  a.insert({1, 2, 3});
  a.insert({4, 2, 3});
  TripleStore b = a;
  b.insert({5, 2, 3});
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(a.subjects(2, 3).size(), 2u);
  EXPECT_EQ(b.subjects(2, 3).size(), 3u);
  EXPECT_FALSE(a.contains({5, 2, 3}));
  EXPECT_TRUE(b.contains({5, 2, 3}));
}

// --- erase ------------------------------------------------------------------

/// Triples whose home slot in a 32-slot TripleSet (a set of at most 15
/// entries never grows past 32 slots) is `home`.
std::vector<Triple> homed_at(std::size_t home, std::size_t n) {
  std::vector<Triple> out;
  for (TermId s = 1; out.size() < n; ++s) {
    const Triple t{s, 7, 9};
    if ((TripleHash{}(t) & 31) == home) {
      out.push_back(t);
    }
  }
  return out;
}

TEST(TripleSet, EraseKeepsCollisionChainReachable) {
  // Four triples share home slot 5: one chain of slots 5..8.  Erasing its
  // head and then its middle must leave the rest findable.
  const std::vector<Triple> chain = homed_at(5, 4);
  TripleSet set;
  for (const Triple& t : chain) {
    ASSERT_TRUE(set.insert(t));
  }
  EXPECT_TRUE(set.erase(chain[0]));
  EXPECT_FALSE(set.contains(chain[0]));
  EXPECT_TRUE(set.contains(chain[1]));
  EXPECT_TRUE(set.contains(chain[2]));
  EXPECT_TRUE(set.contains(chain[3]));
  EXPECT_TRUE(set.erase(chain[2]));
  EXPECT_TRUE(set.contains(chain[1]));
  EXPECT_FALSE(set.contains(chain[2]));
  EXPECT_TRUE(set.contains(chain[3]));
  EXPECT_EQ(set.size(), 2u);
}

TEST(TripleSet, EraseAcrossTheWrapAround) {
  // Three triples homed at the last slot occupy slots 31, 0 and 1; a
  // triple homed at slot 0 lands behind them.  Erasing the one in slot 31
  // must pull the wrapped entries back across the end of the array
  // without moving the slot-0 triple in front of its home.
  const std::vector<Triple> tail = homed_at(31, 3);
  const std::vector<Triple> zero = homed_at(0, 1);
  TripleSet set;
  for (const Triple& t : tail) {
    ASSERT_TRUE(set.insert(t));
  }
  ASSERT_TRUE(set.insert(zero[0]));
  EXPECT_TRUE(set.erase(tail[0]));
  EXPECT_TRUE(set.contains(tail[1]));
  EXPECT_TRUE(set.contains(tail[2]));
  EXPECT_TRUE(set.contains(zero[0]));
  EXPECT_TRUE(set.erase(tail[1]));
  EXPECT_TRUE(set.erase(tail[2]));
  EXPECT_TRUE(set.contains(zero[0]));
  EXPECT_EQ(set.size(), 1u);
}

TEST(TripleSet, EraseThenReinsertAndEraseAbsent) {
  TripleSet set;
  EXPECT_FALSE(set.erase({1, 2, 3}));  // empty set: nothing to probe
  set.insert({1, 2, 3});
  set.insert({4, 5, 6});
  EXPECT_FALSE(set.erase({7, 8, 9}));  // absent
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.erase({1, 2, 3}));
  EXPECT_FALSE(set.erase({1, 2, 3}));  // already gone
  EXPECT_TRUE(set.insert({1, 2, 3}));  // new again
  EXPECT_FALSE(set.insert({1, 2, 3}));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains({1, 2, 3}));
  EXPECT_TRUE(set.contains({4, 5, 6}));
}

TEST(TripleSet, RandomInsertsAndErasesMatchStdSet) {
  // A small key space keeps chains long and crowded; every step checks
  // membership of every key against std::set.
  std::mt19937 rng(17);
  std::uniform_int_distribution<TermId> id(1, 6);
  TripleSet set;
  std::set<Triple> want;
  for (int step = 0; step < 3000; ++step) {
    const Triple t{id(rng), id(rng), id(rng)};
    if (rng() % 3 == 0) {
      EXPECT_EQ(set.erase(t), want.erase(t) == 1) << step;
    } else {
      EXPECT_EQ(set.insert(t), want.insert(t).second) << step;
    }
    ASSERT_EQ(set.size(), want.size()) << step;
    if (step % 100 == 0) {
      for (TermId s = 1; s <= 6; ++s) {
        for (TermId p = 1; p <= 6; ++p) {
          for (TermId o = 1; o <= 6; ++o) {
            ASSERT_EQ(set.contains({s, p, o}), want.count({s, p, o}) == 1)
                << step;
          }
        }
      }
    }
  }
}

TEST(SmallIdList, EraseKeepsOrderAndMovesBackInline) {
  SmallIdList list;
  for (std::uint32_t i = 1; i <= 6; ++i) {
    list.push_back(i);
  }
  EXPECT_FALSE(list.erase(42));
  EXPECT_TRUE(list.erase(2));  // spilled: 6 -> 5 entries
  EXPECT_EQ(std::vector<std::uint32_t>(list.view().begin(), list.view().end()),
            (std::vector<std::uint32_t>{1, 3, 4, 5, 6}));
  EXPECT_TRUE(list.erase(6));  // 5 -> kInline: back to the inline buffer
  EXPECT_EQ(std::vector<std::uint32_t>(list.view().begin(), list.view().end()),
            (std::vector<std::uint32_t>{1, 3, 4, 5}));
  EXPECT_TRUE(list.erase(1));
  list.push_back(7);
  list.push_back(8);  // spills again from the inline buffer
  EXPECT_EQ(std::vector<std::uint32_t>(list.view().begin(), list.view().end()),
            (std::vector<std::uint32_t>{3, 4, 5, 7, 8}));
  EXPECT_EQ(list.size(), 5u);
}

/// A store of `log`, with the endpoint index built first when asked.
TripleStore store_of(const std::vector<Triple>& log, bool endpoint_index) {
  TripleStore s;
  s.insert_all(log);
  if (endpoint_index) {
    s.for_subject_each(log.front().s, [](const Triple&) {});
  }
  return s;
}

/// Erase `doomed` from a store of `log` and check it against a store built
/// from the survivors, with and without the endpoint index built before.
void check_erase_all(const std::vector<Triple>& log,
                     const std::vector<Triple>& doomed) {
  const TripleSet doomed_set(doomed);
  std::vector<Triple> survivors;
  for (const Triple& t : log) {
    if (!doomed_set.contains(t)) {
      survivors.push_back(t);
    }
  }
  TripleStore want;
  want.insert_all(survivors);
  for (const bool endpoint_index : {false, true}) {
    TripleStore got = store_of(log, endpoint_index);
    EXPECT_EQ(got.erase_all(doomed_set), log.size() - survivors.size());
    EXPECT_TRUE(test::same_indexes(got, want, doomed))
        << "endpoint index built before: " << endpoint_index;
  }
}

/// A log with shared subjects, objects and predicates, long enough posting
/// lists to spill, and predicates first seen at different depths.
std::vector<Triple> erase_fixture() {
  std::vector<Triple> log;
  for (TermId i = 1; i <= 12; ++i) {
    log.push_back({i, 100, 200});          // subjects(100, 200): 12 long
    log.push_back({1, 101, 300 + i});      // objects(101, 1): 12 long
    log.push_back({i, 102 + i % 3, i + 1});
  }
  log.push_back({50, 110, 51});  // a predicate with a single triple
  return log;
}

TEST(TripleStore, EraseAllMatchesStoreOfSurvivors) {
  const std::vector<Triple> log = erase_fixture();
  // Scattered triples out of long and short lists, spilled to inline.
  check_erase_all(log, {{3, 100, 200}, {1, 101, 305}, {1, 101, 306},
                        {4, 103, 5}, {9, 100, 200}, {1, 101, 312}});
  // Every subject of one long list: the list empties but the predicate
  // keeps other triples.
  std::vector<Triple> all_of_100;
  for (TermId i = 1; i <= 12; ++i) {
    all_of_100.push_back({i, 100, 200});
  }
  check_erase_all(log, all_of_100);
  // The single triple of predicate 110: it leaves predicates().
  check_erase_all(log, {{50, 110, 51}});
  // The first triple of the log (predicate 100's first): predicate 100 is
  // now first seen after 101, 103, 104 and predicates() must follow.
  check_erase_all(log, {{1, 100, 200}, {2, 100, 200}});
  // Absent triples are ignored next to present ones.
  check_erase_all(log, {{77, 100, 200}, {1, 101, 301}, {5, 5, 5}});
}

TEST(TripleStore, EraseAllAbsentOnlyChangesNothing) {
  const std::vector<Triple> log = erase_fixture();
  TripleStore got = store_of(log, true);
  EXPECT_EQ(got.erase_all(TripleSet(std::vector<Triple>{{77, 100, 200}})),
            0u);
  EXPECT_EQ(got.erase_all(TripleSet()), 0u);
  EXPECT_TRUE(test::same_indexes(got, store_of(log, false)));
}

TEST(TripleStore, InsertAfterEraseAllMatchesFreshStore) {
  // Re-inserting an erased triple and a dropped predicate lands them at the
  // log's tail, the predicate at the end of predicates().
  const std::vector<Triple> log = erase_fixture();
  const std::vector<Triple> doomed = {{50, 110, 51}, {2, 100, 200}};
  TripleStore got = store_of(log, true);
  got.erase_all(TripleSet(doomed));
  got.insert({50, 110, 51});
  got.insert({60, 100, 200});
  got.insert({2, 100, 200});

  std::vector<Triple> want_log;
  for (const Triple& t : log) {
    if (std::find(doomed.begin(), doomed.end(), t) == doomed.end()) {
      want_log.push_back(t);
    }
  }
  want_log.push_back({50, 110, 51});
  want_log.push_back({60, 100, 200});
  want_log.push_back({2, 100, 200});
  TripleStore want;
  want.insert_all(want_log);
  EXPECT_TRUE(test::same_indexes(got, want, doomed));
}

// ---------------------------------------------------------------------------
// Bulk insert_all: the grouped, multi-threaded path must leave the store
// exactly as per-triple inserts would, for every thread count (0 counts as
// 1).

constexpr unsigned kBulkThreads[] = {0, 1, 2, 4, 8};

/// The oracle: a store built by inserting `log` one triple at a time.
TripleStore inserted_one_by_one(std::span<const Triple> log) {
  TripleStore s;
  for (const Triple& t : log) {
    s.insert(t);
  }
  return s;
}

/// `n` random triples over predicates first_p, first_p + 1, ...: over half
/// carry first_p with one of 20 objects (a type predicate's shape, one
/// large task), the rest spread over 12 more predicates; the id ranges are
/// small enough that the batch repeats itself.
std::vector<Triple> bulk_fixture(std::uint32_t seed, std::size_t n,
                                 TermId first_p) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<TermId> node(1, 5000);
  std::uniform_int_distribution<TermId> cls(1, 20);
  std::uniform_int_distribution<TermId> pred(1, 12);
  std::vector<Triple> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng() % 5 < 3) {
      out.push_back({node(rng), first_p, 10000 + cls(rng)});
    } else {
      out.push_back({node(rng), first_p + pred(rng), node(rng)});
    }
  }
  return out;
}

/// Bulk-insert `parts` into a store of `initial` (its endpoint index built
/// first when asked) at every thread count; check the per-part counts and
/// every index against per-triple inserts of the same sequence.
void check_bulk_insert(const std::vector<Triple>& initial,
                       const std::vector<std::vector<Triple>>& parts,
                       bool endpoint_index) {
  TripleStore want = inserted_one_by_one(initial);
  std::vector<std::size_t> want_added;
  std::vector<std::span<const Triple>> spans;
  std::vector<Triple> probes;
  for (const std::vector<Triple>& part : parts) {
    std::size_t n = 0;
    for (const Triple& t : part) {
      n += want.insert(t) ? 1 : 0;
    }
    want_added.push_back(n);
    spans.emplace_back(part);
  }
  for (const unsigned threads : kBulkThreads) {
    TripleStore got = inserted_one_by_one(initial);
    if (endpoint_index && !initial.empty()) {
      got.for_object_each(initial.front().o, [](const Triple&) {});
    }
    EXPECT_EQ(got.insert_all(spans, threads), want_added)
        << "threads " << threads;
    EXPECT_TRUE(test::same_indexes(got, want))
        << "threads " << threads << ", endpoint index built before: "
        << endpoint_index;
  }
}

TEST(TripleStore, BulkInsertIntoEmptyStoreMatchesOneByOne) {
  check_bulk_insert({}, {bulk_fixture(1, 60000, 100)}, false);
  // Several parts, the later ones repeating the earlier.
  const std::vector<Triple> a = bulk_fixture(2, 30000, 100);
  const std::vector<Triple> b = bulk_fixture(3, 30000, 100);
  check_bulk_insert({}, {a, b, a, {}}, false);
}

TEST(TripleStore, BulkInsertIntoFilledStoreMatchesOneByOne) {
  const std::vector<Triple> initial = bulk_fixture(4, 40000, 100);
  // Repeats of stored triples, new triples of stored predicates, and new
  // predicates (from 106 on) first seen mid-batch.
  std::vector<Triple> batch(initial.begin() + 5000, initial.begin() + 9000);
  const std::vector<Triple> more = bulk_fixture(5, 40000, 100);
  batch.insert(batch.end(), more.begin(), more.end());
  const std::vector<Triple> fresh_preds = bulk_fixture(6, 20000, 106);
  batch.insert(batch.end(), fresh_preds.begin(), fresh_preds.end());
  for (const bool endpoint_index : {false, true}) {
    check_bulk_insert(initial, {batch}, endpoint_index);
    check_bulk_insert(initial, {initial, batch, fresh_preds}, endpoint_index);
  }
}

TEST(TripleStore, BulkInsertSmallAndDuplicateOnlyBatches) {
  const std::vector<Triple> initial = bulk_fixture(7, 500, 100);
  check_bulk_insert(initial, {}, true);
  check_bulk_insert(initial, std::vector<std::vector<Triple>>(1), true);
  check_bulk_insert(initial, {{initial[3]}}, true);
  check_bulk_insert(initial, {{{9, 300, 9}, {9, 300, 9}, initial[0]}}, true);
  check_bulk_insert(initial, {initial}, false);
}

TEST(TripleStore, BulkInsertAfterEraseAllMatchesOneByOne) {
  // erase_all empties predicate 110; the bulk insert must start it anew at
  // the end of predicates(), as insert() does.
  const std::vector<Triple> log = erase_fixture();
  const std::vector<Triple> doomed = {{50, 110, 51}, {2, 100, 200}};
  std::vector<Triple> batch = {
      {50, 110, 51}, {60, 100, 200}, {2, 100, 200}, {1, 101, 301}};
  for (TermId i = 0; i < 300; ++i) {
    batch.push_back({1000 + i, 110 + i % 3, 2000 + i % 7});
  }
  for (const unsigned threads : kBulkThreads) {
    TripleStore want = store_of(log, false);
    want.erase_all(TripleSet(doomed));
    std::size_t want_added = 0;
    for (const Triple& t : batch) {
      want_added += want.insert(t) ? 1 : 0;
    }
    TripleStore got = store_of(log, true);
    got.erase_all(TripleSet(doomed));
    EXPECT_EQ(got.insert_all(batch, threads), want_added);
    EXPECT_TRUE(test::same_indexes(got, want, doomed)) << threads;
  }
}

}  // namespace
}  // namespace parowl::rdf
