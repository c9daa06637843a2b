#pragma once

// Small numeric helpers of the benchmark: exact percentiles over raw
// samples, process peak RSS, and the order-independent closure digest.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/triple_store.hpp"

namespace perfbench {

namespace rdf = parowl::rdf;

/// The q-quantile (0 <= q <= 1) of `samples` by linear interpolation
/// between the two closest ranks (rank q*(n-1)); 0 for an empty input.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// SplitMix64 finalizer.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

/// Hash of a lexical form (FNV-1a, then mixed): stable across processes
/// and dictionaries, unlike TermIds.
[[nodiscard]] std::uint64_t lexical_hash(std::string_view text);

/// Per-term lexical hashes of `dict`, indexed by TermId (slot 0 unused).
[[nodiscard]] std::vector<std::uint64_t> term_hashes(
    const rdf::Dictionary& dict);

/// Triple count plus an order-independent digest (a sum of per-triple
/// hashes over lexical forms), so two stores built in different orders or
/// with different dictionaries compare equal iff they hold the same set.
struct ClosureDigest {
  std::size_t triples = 0;
  std::uint64_t digest = 0;

  friend bool operator==(const ClosureDigest&, const ClosureDigest&) = default;
};

[[nodiscard]] ClosureDigest closure_digest(const rdf::TripleStore& store,
                                           const rdf::Dictionary& dict);

}  // namespace perfbench
