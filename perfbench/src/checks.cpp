#include "checks.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <utility>

#include "stats.hpp"

namespace perfbench {

namespace pq = parowl::query;

bool same_rows(const pq::ResultSet& expected, const pq::ResultSet& got) {
  if (expected.columns.size() != got.columns.size() ||
      expected.rows.size() != got.rows.size()) {
    return false;
  }
  auto a = expected.rows;
  auto b = got.rows;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

AnswerDigest answer_digest(const pq::ResultSet& rows,
                           const std::vector<std::uint64_t>& hashes) {
  AnswerDigest d;
  d.rows = rows.rows.size();
  for (const auto& row : rows.rows) {
    std::uint64_t h = mix64(row.size());
    for (const parowl::rdf::TermId id : row) {
      h = mix64(h ^ (id < hashes.size() ? hashes[id] : mix64(id)));
    }
    d.digest += h;
  }
  return d;
}

std::vector<bool> check_answers(std::span<const ServedAnswer> answers,
                                const ParseFn& parse,
                                const StoreFn& store_for, unsigned threads) {
  struct Key {
    std::string text;
    std::uint64_t version;
    auto operator<=>(const Key&) const = default;
  };
  struct Job {
    std::optional<pq::SelectQuery> query;
    const parowl::rdf::TripleStore* store = nullptr;
    pq::ResultSet expected;
  };
  std::map<Key, std::size_t> index;
  std::vector<Job> jobs;
  std::vector<std::size_t> job_of(answers.size());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const Key key{answers[i].text, answers[i].version};
    auto [it, fresh] = index.emplace(key, jobs.size());
    if (fresh) {
      Job job;
      job.query = parse(key.text);
      job.store = store_for(key.version);
      jobs.push_back(std::move(job));
    }
    job_of[i] = it->second;
  }
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t j = next++; j < jobs.size(); j = next++) {
      if (jobs[j].query && jobs[j].store != nullptr) {
        jobs[j].expected = pq::evaluate(*jobs[j].store, *jobs[j].query);
      }
    }
  };
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 1; t < std::max(1U, threads); ++t) {
      pool.emplace_back(work);
    }
    work();
  }
  std::vector<bool> verdicts(answers.size());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const Job& job = jobs[job_of[i]];
    verdicts[i] = job.query && job.store != nullptr &&
                  same_rows(job.expected, answers[i].rows);
  }
  return verdicts;
}

}  // namespace perfbench
