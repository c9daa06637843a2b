#pragma once

// Seeded request and writer generator for the served workloads.
//
// Reads: the constant-bearing LUBM templates of gen::lubm_queries(), each
// once per block of |templates| requests in a seeded order, with the
// university drawn Zipf(kZipfS) over the generated universities and the
// department and full professor drawn uniformly.  Every request keeps its
// PREFIX on a line of its own; single_line() gives the one-line form HTTP
// clients send, which the result cache mis-keys (README, defect 1), for the
// probe.  Request i depends only on (seed, i), so every workload given the
// same seed sees the same request list whatever its threads do.
//
// Writes: one mixed batch per kReadsPerWrite completed reads — new
// graduate students (type, memberOf, takesCourse, advisor) and the
// retraction of the writer's own oldest additions still live.

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// The generator's parameters.

/// Templates, in equal shares; the whole-KB scans (Q1, Q2, Q6, Q9, Q14) are
/// analytics, not requests, and are left out.
inline constexpr std::array<std::string_view, 9> kTemplates = {
    "Q3", "Q4", "Q5", "Q7", "Q8", "Q10", "Q11", "Q12", "Q13"};
inline constexpr double kZipfS = 1.0;
inline constexpr std::uint32_t kUniversities = 500;
inline constexpr std::uint32_t kDepartments = 4;  // LubmOptions default
/// Full professors of a department: faculty f with f % 10 < 3 among the
/// generator's 12 per department.
inline constexpr std::array<std::uint32_t, 5> kFullProfessors = {0, 1, 2, 10,
                                                                 11};
/// One mixed write batch per this many completed reads.
inline constexpr std::size_t kReadsPerWrite = 200;
inline constexpr std::size_t kAddsPerWrite = 20;     // 4 triples per student
inline constexpr std::size_t kDeletesPerWrite = 10;  // of earlier additions

struct Request {
  std::string name;  // template, e.g. "Q5"
  std::string text;
};

/// One triple as full IRIs (all writer terms are IRIs).
struct IriTriple {
  std::string s, p, o;
  friend bool operator==(const IriTriple&, const IriTriple&) = default;
};

struct WriteBatch {
  std::vector<IriTriple> additions;
  std::vector<IriTriple> deletions;
};

class RequestGenerator {
 public:
  explicit RequestGenerator(std::uint64_t seed);

  /// The i-th read of the stream.
  [[nodiscard]] Request request(std::size_t index) const;

  /// The same read, forced onto one line (the cache-key probe).
  [[nodiscard]] Request single_line(std::size_t index) const;

  /// Zipf(s) university for a uniform draw u in [0, 1).
  [[nodiscard]] std::uint32_t zipf_university(double u) const;

 private:
  std::uint64_t seed_;
  std::vector<std::string> template_text_;  // parallel to kTemplates
  std::vector<double> zipf_cdf_;
};

/// The writer's batch sequence.  Stateful: deletions retract the oldest of
/// its own additions that are still live, so batches must be taken in order.
class WriteGenerator {
 public:
  explicit WriteGenerator(std::uint64_t seed);

  [[nodiscard]] WriteBatch next();

 private:
  std::uint64_t seed_;
  RequestGenerator reads_;  // for its Zipf university draw
  std::size_t next_student_ = 0;
  std::deque<IriTriple> live_;
};

/// Counter-based uniform double in [0, 1) from (seed, stream, index).
[[nodiscard]] double unit_draw(std::uint64_t seed, std::uint64_t stream,
                               std::uint64_t index);

}  // namespace perfbench
