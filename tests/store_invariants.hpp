#pragma once

// Index invariants of rdf::TripleStore, shared by the erase_all unit tests
// and the incremental-maintenance streams: a store that has been erased
// from must answer every probe exactly as a store built by inserting its
// survivors in log order.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "parowl/rdf/triple_store.hpp"

namespace parowl::test {

inline std::vector<rdf::Triple> subject_probe(const rdf::TripleStore& store,
                                              rdf::TermId s) {
  std::vector<rdf::Triple> out;
  store.for_subject_each(s, [&](const rdf::Triple& t) { out.push_back(t); });
  return out;
}

inline std::vector<rdf::Triple> object_probe(const rdf::TripleStore& store,
                                             rdf::TermId o) {
  std::vector<rdf::Triple> out;
  store.for_object_each(o, [&](const rdf::Triple& t) { out.push_back(t); });
  return out;
}

template <typename T>
bool same_span(std::span<const T> a, std::span<const T> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// Success iff `got` answers like `want`: the same log and predicates(),
/// and for every triple of `want` plus every triple of `probes` (say, the
/// erased ones, whose keys `want` may no longer hold) the same contains,
/// with_predicate, objects, subjects and endpoint probes.  The endpoint
/// probes build both stores' lazy endpoint indexes.
inline ::testing::AssertionResult same_indexes(
    const rdf::TripleStore& got, const rdf::TripleStore& want,
    std::span<const rdf::Triple> probes = {}) {
  if (got.triples() != want.triples()) {
    return ::testing::AssertionFailure()
           << "log differs (" << got.size() << " vs " << want.size()
           << " triples)";
  }
  if (got.predicates() != want.predicates()) {
    return ::testing::AssertionFailure() << "predicates() differ";
  }
  std::vector<rdf::Triple> keys(want.triples());
  keys.insert(keys.end(), probes.begin(), probes.end());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  std::vector<rdf::TermId> preds;
  std::vector<rdf::TermId> subjects;
  std::vector<rdf::TermId> objects;
  for (const rdf::Triple& t : keys) {
    if (got.contains(t) != want.contains(t)) {
      return ::testing::AssertionFailure()
             << "contains(" << t.s << ' ' << t.p << ' ' << t.o << ") differs";
    }
    if (!same_span(got.objects(t.p, t.s), want.objects(t.p, t.s))) {
      return ::testing::AssertionFailure()
             << "objects(" << t.p << ", " << t.s << ") differ";
    }
    if (!same_span(got.subjects(t.p, t.o), want.subjects(t.p, t.o))) {
      return ::testing::AssertionFailure()
             << "subjects(" << t.p << ", " << t.o << ") differ";
    }
    preds.push_back(t.p);
    subjects.push_back(t.s);
    objects.push_back(t.o);
  }
  for (std::vector<rdf::TermId>* ids : {&preds, &subjects, &objects}) {
    std::sort(ids->begin(), ids->end());
    ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  }
  for (const rdf::TermId p : preds) {
    if (!same_span(got.with_predicate(p), want.with_predicate(p))) {
      return ::testing::AssertionFailure()
             << "with_predicate(" << p << ") differs";
    }
  }
  for (const rdf::TermId s : subjects) {
    if (subject_probe(got, s) != subject_probe(want, s)) {
      return ::testing::AssertionFailure()
             << "for_subject_each(" << s << ") differs";
    }
  }
  for (const rdf::TermId o : objects) {
    if (object_probe(got, o) != object_probe(want, o)) {
      return ::testing::AssertionFailure()
             << "for_object_each(" << o << ") differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// same_indexes against a store built by inserting `store`'s log in order,
/// one triple at a time (so the check shares no code with insert_all).
inline ::testing::AssertionResult indexes_match_log(
    const rdf::TripleStore& store, std::span<const rdf::Triple> probes = {}) {
  rdf::TripleStore rebuilt;
  for (const rdf::Triple& t : store.triples()) {
    rebuilt.insert(t);
  }
  return same_indexes(store, rebuilt, probes);
}

/// Success iff `set` holds exactly the triples of the duplicate-free `base`.
inline ::testing::AssertionResult set_matches(
    const rdf::TripleSet& set, std::span<const rdf::Triple> base) {
  if (set.size() != base.size()) {
    return ::testing::AssertionFailure()
           << "set holds " << set.size() << " triples, base " << base.size();
  }
  for (const rdf::Triple& t : base) {
    if (!set.contains(t)) {
      return ::testing::AssertionFailure()
             << "base triple (" << t.s << ' ' << t.p << ' ' << t.o
             << ") missing from the set";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace parowl::test
