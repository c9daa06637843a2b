#pragma once

// Output checks: served answers against query::evaluate of their own text
// on the snapshot version they report, and answers computed with one
// dictionary against digests computed with another (the reference process).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "parowl/query/bgp.hpp"
#include "parowl/rdf/triple_store.hpp"

namespace perfbench {

/// Multiset equality of two result tables (row order is not significant;
/// multiplicities and column count are).
[[nodiscard]] bool same_rows(const parowl::query::ResultSet& expected,
                             const parowl::query::ResultSet& got);

/// Row count plus an order-independent digest over lexical forms, for
/// comparing answers across processes.  `hashes` comes from term_hashes().
struct AnswerDigest {
  std::size_t rows = 0;
  std::uint64_t digest = 0;
  friend bool operator==(const AnswerDigest&, const AnswerDigest&) = default;
};

[[nodiscard]] AnswerDigest answer_digest(
    const parowl::query::ResultSet& rows,
    const std::vector<std::uint64_t>& hashes);

/// One answer as a client received it.
struct ServedAnswer {
  std::string text;
  std::uint64_t version = 0;
  parowl::query::ResultSet rows;
};

/// Parses query text (may intern terms; called from one thread).
using ParseFn = std::function<std::optional<parowl::query::SelectQuery>(
    const std::string& text)>;
/// The store a version answered from, or nullptr for an unknown version.
using StoreFn =
    std::function<const parowl::rdf::TripleStore*(std::uint64_t version)>;

/// Check every answer: it is right iff its rows equal query::evaluate of
/// its own text on the store of the version it reports.  Each distinct
/// (text, version) is evaluated once, on `threads` threads.  Returns one
/// verdict per answer.
[[nodiscard]] std::vector<bool> check_answers(
    std::span<const ServedAnswer> answers, const ParseFn& parse,
    const StoreFn& store_for, unsigned threads);

}  // namespace perfbench
