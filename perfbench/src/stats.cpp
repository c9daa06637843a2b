#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t lexical_hash(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return mix64(h);
}

std::vector<std::uint64_t> term_hashes(const rdf::Dictionary& dict) {
  // TermIds start at 1; slot 0 (kAnyTerm) stays 0.
  std::vector<std::uint64_t> out(dict.size() + 1);
  for (std::size_t id = 1; id < out.size(); ++id) {
    const auto term = static_cast<rdf::TermId>(id);
    out[id] = lexical_hash(dict.lexical(term)) ^
              mix64(static_cast<std::uint64_t>(dict.kind(term)));
  }
  return out;
}

ClosureDigest closure_digest(const rdf::TripleStore& store,
                             const rdf::Dictionary& dict) {
  const std::vector<std::uint64_t> h = term_hashes(dict);
  ClosureDigest d;
  d.triples = store.size();
  for (const rdf::Triple& t : store.triples()) {
    d.digest += mix64(h[t.s] ^ mix64(h[t.p] ^ mix64(h[t.o])));
  }
  return d;
}

}  // namespace perfbench
