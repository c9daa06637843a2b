#include "requests.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "parowl/gen/lubm.hpp"
#include "parowl/gen/lubm_queries.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

constexpr const char* kProfPlaceholder =
    "http://www.Department0.Univ0.edu/FullProfessor0";
constexpr const char* kDeptPlaceholder = "http://www.Univ0.edu/Department0";
constexpr const char* kUnivPlaceholder = "<http://www.Univ0.edu>";

void replace_all(std::string& text, const std::string& from,
                 const std::string& to) {
  for (std::size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size())) {
    text.replace(pos, from.size(), to);
  }
}

std::string univ_iri(std::uint32_t u) {
  return "http://www.Univ" + std::to_string(u) + ".edu";
}

std::string dept_iri(std::uint32_t u, std::uint32_t d) {
  return univ_iri(u) + "/Department" + std::to_string(d);
}

std::string dept_ns(std::uint32_t u, std::uint32_t d) {
  return "http://www.Department" + std::to_string(d) + ".Univ" +
         std::to_string(u) + ".edu/";
}

std::uint32_t pick(double u, std::size_t n) {
  const auto k = static_cast<std::size_t>(u * static_cast<double>(n));
  return static_cast<std::uint32_t>(std::min(k, n - 1));
}

}  // namespace

double unit_draw(std::uint64_t seed, std::uint64_t stream,
                 std::uint64_t index) {
  const std::uint64_t h = mix64(mix64(seed ^ 0x5bd1e995ULL) ^
                                mix64(stream * 0x9e3779b97f4a7c15ULL + index));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

RequestGenerator::RequestGenerator(std::uint64_t seed) : seed_(seed) {
  const std::vector<parowl::gen::LubmQuery> all = parowl::gen::lubm_queries();
  for (const std::string_view name : kTemplates) {
    const auto it = std::find_if(all.begin(), all.end(),
                                 [&](const auto& q) { return q.name == name; });
    if (it == all.end()) {
      throw std::invalid_argument("unknown LUBM template " +
                                  std::string(name));
    }
    template_text_.push_back(it->sparql);
  }
  double total = 0.0;
  for (std::uint32_t u = 0; u < kUniversities; ++u) {
    total += 1.0 / std::pow(static_cast<double>(u + 1), kZipfS);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) {
    c /= total;
  }
}

std::uint32_t RequestGenerator::zipf_university(double u) const {
  const auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  const auto k = static_cast<std::size_t>(it - zipf_cdf_.begin());
  return static_cast<std::uint32_t>(std::min(k, zipf_cdf_.size() - 1));
}

Request RequestGenerator::request(std::size_t index) const {
  Request r;
  // Each block of |templates| consecutive requests holds every template
  // once, in a seeded order: the mix's proportions are exact at any run
  // length, so percentiles do not move with the share of slow templates.
  const std::size_t n = kTemplates.size();
  const std::size_t block = index / n;
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t k = 0; k < n; ++k) {
    order[k] = k;
  }
  for (std::size_t k = n - 1; k > 0; --k) {  // Fisher-Yates
    std::swap(order[k], order[pick(unit_draw(seed_, 1, block * n + k), k + 1)]);
  }
  const std::uint32_t t = order[index % n];
  const std::uint32_t u = zipf_university(unit_draw(seed_, 2, index));
  const std::uint32_t d = pick(unit_draw(seed_, 3, index), kDepartments);
  const std::uint32_t f = kFullProfessors[pick(unit_draw(seed_, 4, index),
                                               kFullProfessors.size())];
  r.name = kTemplates[t];
  r.text = template_text_[t];
  replace_all(r.text, kProfPlaceholder,
              dept_ns(u, d) + "FullProfessor" + std::to_string(f));
  replace_all(r.text, kDeptPlaceholder, dept_iri(u, d));
  std::string univ = "<";
  univ += univ_iri(u);
  univ += '>';
  replace_all(r.text, kUnivPlaceholder, univ);
  return r;
}

Request RequestGenerator::single_line(std::size_t index) const {
  Request r = request(index);
  std::replace(r.text.begin(), r.text.end(), '\n', ' ');
  return r;
}

WriteGenerator::WriteGenerator(std::uint64_t seed)
    : seed_(seed), reads_(seed) {}

WriteBatch WriteGenerator::next() {
  const std::string ub = parowl::gen::kUnivBenchNs;
  const std::string type = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
  WriteBatch batch;
  const std::size_t students = kAddsPerWrite / 4;
  for (std::size_t i = 0; i < students; ++i) {
    const std::size_t n = next_student_++;
    // Students join the same Zipf-popular universities the readers ask
    // about, so the writer's batches retire cached answers.
    const std::uint32_t u = reads_.zipf_university(unit_draw(seed_, 6, n));
    const std::uint32_t d = pick(unit_draw(seed_, 7, n), kDepartments);
    const std::uint32_t f = kFullProfessors[pick(unit_draw(seed_, 8, n),
                                                 kFullProfessors.size())];
    const std::string ns = dept_ns(u, d);
    const std::string stu = ns + "PerfBenchStudent" + std::to_string(n);
    const std::vector<IriTriple> added = {
        {stu, type, ub + "GraduateStudent"},
        {stu, ub + "memberOf", dept_iri(u, d)},
        {stu, ub + "takesCourse",
         ns + "Course" + std::to_string(f) + "_" + std::to_string(n % 2)},
        {stu, ub + "advisor", ns + "FullProfessor" + std::to_string(f)},
    };
    batch.additions.insert(batch.additions.end(), added.begin(), added.end());
  }
  // Retract only additions of earlier batches, oldest first.
  const std::size_t deletable = std::min(kDeletesPerWrite, live_.size());
  const auto cut = live_.begin() + static_cast<std::ptrdiff_t>(deletable);
  batch.deletions.assign(live_.begin(), cut);
  live_.erase(live_.begin(), cut);
  live_.insert(live_.end(), batch.additions.begin(), batch.additions.end());
  return batch;
}

}  // namespace perfbench
