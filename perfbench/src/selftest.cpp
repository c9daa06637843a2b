// Self-tests of the benchmark's own helpers: percentiles, the answer
// check, the span self-time table, the closure digest, and the seeded
// request/write generators.  Exit code 0 iff every check holds.
//
//   python3 perfbench/run.py --selftest

#include <algorithm>
#include <cmath>
#include <iostream>
#include <set>
#include <string>

#include "checks.hpp"
#include "parowl/gen/lubm.hpp"
#include "parowl/ontology/vocabulary.hpp"
#include "parowl/query/sparql_parser.hpp"
#include "parowl/reason/materialize.hpp"
#include "parowl/serve/result_cache.hpp"
#include "parowl/serve/service.hpp"
#include "requests.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

namespace rdf = parowl::rdf;
namespace pq = parowl::query;
using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
  if (!ok) {
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void test_percentiles() {
  check(near(percentile({1, 2, 3, 4}, 0.5), 2.5), "p50 of 1..4 is 2.5");
  check(near(percentile({4, 3, 2, 1}, 0.25), 1.75), "p25 of 1..4 is 1.75");
  check(near(percentile({1, 2, 3, 4}, 0.0), 1.0), "p0 is the minimum");
  check(near(percentile({1, 2, 3, 4}, 1.0), 4.0), "p100 is the maximum");
  check(near(median({5, 1, 3}), 3.0), "median of an odd count");
  check(near(percentile({7}, 0.99), 7.0), "one sample is every percentile");
  check(near(percentile({}, 0.5), 0.0), "no samples read 0");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  check(near(percentile(hundred, 0.99), 99.01), "p99 of 1..100 is 99.01");
}

void test_self_times() {
  // root [0,10) with children a [1,4) and b [3,6); a has child c [2,3).
  const auto span = [](std::uint64_t id, std::uint64_t parent,
                       const char* name, std::int64_t s, std::int64_t e) {
    SpanRecord r;
    r.id = id;
    r.parent = parent;
    r.name = name;
    r.start_ns = s * 1000000000LL;
    r.end_ns = e * 1000000000LL;
    return r;
  };
  const SelfTimes st =
      self_times({span(1, 0, "bench.pass", 0, 10), span(2, 1, "rdf.a", 1, 4),
                  span(3, 1, "reason.b", 3, 6),
                  span(4, 2, "partition.c", 2, 3)});
  check(near(st.uncovered_seconds, 5.0), "root self time = 10 - |[1,6)| = 5");
  check(near(st.self_seconds.at("rdf"), 2.0), "rdf self time = 3 - 1 = 2");
  check(near(st.self_seconds.at("reason"), 3.0), "leaf self time = duration");
  check(near(st.self_seconds.at("partition"), 1.0), "grandchild self time");
  check(near(st.root_seconds, 10.0), "root time");
}

void test_digest() {
  rdf::Dictionary d1;
  rdf::Dictionary d2;
  rdf::TripleStore s1;
  rdf::TripleStore s2;
  const auto a1 = d1.intern_iri("http://a");
  const auto b1 = d1.intern_iri("http://b");
  const auto c2 = d2.intern_iri("http://c");  // different id order
  const auto b2 = d2.intern_iri("http://b");
  const auto a2 = d2.intern_iri("http://a");
  const auto c1 = d1.intern_iri("http://c");
  s1.insert({a1, b1, c1});
  s1.insert({c1, b1, a1});
  s2.insert({c2, b2, a2});
  s2.insert({a2, b2, c2});
  check(closure_digest(s1, d1) == closure_digest(s2, d2),
        "closure digest ignores insertion order and TermIds");
  s2.insert({a2, b2, a2});
  check(!(closure_digest(s1, d1) == closure_digest(s2, d2)),
        "closure digest sees an extra triple");
}

void test_generators() {
  const RequestGenerator g1(7);
  const RequestGenerator g2(7);
  const RequestGenerator g3(8);
  bool same = true;
  bool differs = false;
  std::vector<std::size_t> per_univ(500, 0);
  std::set<std::string> names;
  for (std::size_t i = 0; i < 2000; ++i) {
    const Request a = g1.request(i);
    same = same && a.text == g2.request(i).text && a.name == g2.request(i).name;
    differs = differs || a.text != g3.request(i).text;
    names.insert(a.name);
    for (std::uint32_t u = 0; u < 500; ++u) {
      const std::string univ = "Univ" + std::to_string(u) + ".edu";
      if (a.text.find(univ) != std::string::npos) {
        ++per_univ[u];
        break;
      }
    }
  }
  check(same, "same seed gives the same request list");
  check(differs, "another seed gives another request list");
  check(names.size() == kTemplates.size(), "every template is drawn");
  check(per_univ[0] > per_univ[1] && per_univ[1] > per_univ[9],
        "universities are Zipf-skewed toward Univ0");
  check(g1.single_line(3).text.find('\n') == std::string::npos &&
            g1.request(3).text.find('\n') != std::string::npos,
        "single-line form has no newline; the default stream has");

  WriteGenerator w1(7);
  WriteGenerator w2(7);
  std::vector<IriTriple> added;
  bool writes_same = true;
  bool deletes_earlier = true;
  for (int b = 0; b < 6; ++b) {
    const WriteBatch x = w1.next();
    const WriteBatch y = w2.next();
    writes_same = writes_same && x.additions == y.additions &&
                  x.deletions == y.deletions;
    for (const IriTriple& t : x.deletions) {
      deletes_earlier = deletes_earlier &&
                        std::find(added.begin(), added.end(), t) != added.end();
    }
    if (b > 0) {
      check(x.additions.size() == 20 && x.deletions.size() == 10,
            "batch " + std::to_string(b) + " adds 20 and deletes 10");
    }
    added.insert(added.end(), x.additions.begin(), x.additions.end());
  }
  check(writes_same, "same seed gives the same write batches");
  check(deletes_earlier, "deletions retract the writer's earlier additions");
}

void test_answer_checks() {
  // LUBM-2 closure, served by a QueryService with the cache on.
  rdf::Dictionary dict;
  rdf::TripleStore store;
  parowl::gen::LubmOptions o;
  o.universities = 2;
  parowl::gen::generate_lubm(o, dict, store);
  const parowl::ontology::Vocabulary vocab(dict);
  (void)parowl::reason::materialize(store, dict, vocab);
  pq::SparqlParser parser(dict);
  const ParseFn parse = [&](const std::string& text) {
    return parser.parse(text);
  };
  const StoreFn store_for = [&](std::uint64_t v) -> const rdf::TripleStore* {
    return v == 1 ? &store : nullptr;
  };
  const std::string q0 =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT DISTINCT ?x WHERE { ?x a ub:Person . "
      "?x ub:memberOf <http://www.Univ0.edu/Department0> }";
  std::string q1 = q0;
  q1.replace(q1.find("Univ0.edu/Department0"), 21, "Univ1.edu/Department1");
  const pq::ResultSet r0 = pq::evaluate(store, *parser.parse(q0));
  const pq::ResultSet r1 = pq::evaluate(store, *parser.parse(q1));
  check(!r0.rows.empty() && !same_rows(r0, r1), "probe queries differ");

  pq::ResultSet reordered = r0;
  std::reverse(reordered.rows.begin(), reordered.rows.end());
  pq::ResultSet wrong_row = r0;
  wrong_row.rows.back().front() = r1.rows.front().front();
  pq::ResultSet extra_row = r0;
  extra_row.rows.push_back(r0.rows.front());
  const std::vector<ServedAnswer> planted = {
      {q0, 1, reordered},  // right rows, another order
      {q0, 1, wrong_row},  // one planted wrong row
      {q0, 1, extra_row},  // a duplicated row
      {q1, 1, r0},         // planted cache-key collision: q0's rows for q1
      {q0, 2, r0},         // a version the run never published
  };
  const std::vector<bool> v = check_answers(planted, parse, store_for, 2);
  check(v[0], "row order is not significant");
  check(!v[1], "a planted wrong row is caught");
  check(!v[2], "a duplicated row is caught");
  check(!v[3], "a planted cache-key collision is caught");
  check(!v[4], "an unknown version is caught");

  const std::vector<std::uint64_t> hashes = term_hashes(dict);
  check(answer_digest(reordered, hashes) == answer_digest(r0, hashes) &&
            !(answer_digest(wrong_row, hashes) == answer_digest(r0, hashes)),
        "answer digests ignore order and see a wrong row");

  // The live service: two single-line requests sharing the PREFIX.  The
  // check must flag the second answer exactly when the result cache keys
  // both requests alike and so hands back the first one's rows.
  parowl::serve::ServiceOptions so;
  so.threads = 1;
  parowl::serve::QueryService service(dict, vocab, store, so);
  std::string l0 = q0;
  std::string l1 = q1;
  std::replace(l0.begin(), l0.end(), '\n', ' ');
  std::replace(l1.begin(), l1.end(), '\n', ' ');
  const parowl::serve::Response a0 = service.execute(l0);
  const parowl::serve::Response a1 = service.execute(l1);
  const std::vector<ServedAnswer> live = {
      {l0, a0.snapshot_version, a0.results},
      {l1, a1.snapshot_version, a1.results}};
  const std::vector<bool> lv = check_answers(
      live, [&](const std::string& text) {
        return service.with_dict_exclusive(
            [&](rdf::Dictionary&) { return parser.parse(text); });
      },
      [&](std::uint64_t ver) -> const rdf::TripleStore* {
        return ver == service.snapshot()->version ? &service.snapshot()->store
                                                  : nullptr;
      },
      1);
  const bool collide = parowl::serve::normalize_query(l0) ==
                       parowl::serve::normalize_query(l1);
  std::cout << "      single-line keys " << (collide ? "collide" : "differ")
            << "; second answer " << (lv[1] ? "right" : "wrong") << "\n";
  check(lv[0], "the first single-line answer is right");
  check(lv[1] == !collide,
        "the check flags the second answer iff the cache keys collide");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_times();
  test_digest();
  test_generators();
  test_answer_checks();
  std::cout << (failures == 0
                    ? std::string("all self-tests passed\n")
                    : std::to_string(failures) + " self-test(s) failed\n");
  return failures == 0 ? 0 : 1;
}
