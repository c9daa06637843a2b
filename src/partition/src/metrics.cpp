#include "parowl/partition/metrics.hpp"

#include <bit>
#include <cmath>

#include "parowl/obs/obs.hpp"
#include "parowl/partition/data_partition.hpp"

namespace parowl::partition {
namespace {

double stddev_of(std::span<const std::size_t> counts) {
  const double k = static_cast<double>(counts.size());
  if (k == 0) {
    return 0.0;
  }
  double mean = 0.0;
  for (const std::size_t n : counts) {
    mean += static_cast<double>(n);
  }
  mean /= k;
  double var = 0.0;
  for (const std::size_t n : counts) {
    const double d = static_cast<double>(n) - mean;
    var += d * d;
  }
  return std::sqrt(var / k);
}

}  // namespace

PartitionMetrics compute_partition_metrics(
    const DataPartitioning& partitioning, const rdf::Dictionary& dict) {
  PAROWL_SPAN("partition.metrics", {{"parts", partitioning.parts.size()}});
  PartitionMetrics m;
  std::size_t replicated_sum = 0;

  // Dense per-term mark over ids 1..dict.size(): kNotOwned for terms
  // outside the owner table, else the 1-based index of the last partition
  // that counted the term (0 = not yet counted anywhere).
  constexpr std::uint32_t kNotOwned = ~std::uint32_t{0};
  std::vector<std::uint32_t> mark(dict.size() + 1, kNotOwned);
  for (const auto& entry : partitioning.owners) {
    mark[entry.first] = 0;
  }
  for (std::size_t p = 0; p < partitioning.parts.size(); ++p) {
    const auto part = static_cast<std::uint32_t>(p + 1);
    std::size_t nodes = 0;
    const auto count = [&](rdf::TermId id) {
      if (mark[id] != kNotOwned && mark[id] != part) {
        m.total_nodes += mark[id] == 0 ? 1 : 0;
        mark[id] = part;
        ++nodes;
      }
    };
    // "Nodes" are owned resources: literals and schema elements (classes,
    // properties) are not graph vertices and never appear in the owner
    // table.
    for (const rdf::Triple& t : partitioning.parts[p]) {
      count(t.s);
      if (dict.is_resource(t.o)) {
        count(t.o);
      }
    }
    m.nodes_per_partition.push_back(nodes);
    replicated_sum += nodes;
  }
  m.bal = stddev_of(m.nodes_per_partition);

  m.input_replication =
      m.total_nodes == 0
          ? 0.0
          : static_cast<double>(replicated_sum) /
                    static_cast<double>(m.total_nodes) -
                1.0;
  m.replication_factor = m.input_replication + 1.0;
  return m;
}

PartitionMetrics compute_graph_metrics(
    const Graph& graph, std::span<const std::uint32_t> assignment, int k) {
  PartitionMetrics m;
  const std::size_t n = graph.num_vertices();
  m.total_nodes = n;
  m.partition_weights.assign(static_cast<std::size_t>(k), 0);
  m.nodes_per_partition.assign(static_cast<std::size_t>(k), 0);

  // A vertex appears on its own partition plus every partition owning one
  // of its neighbors (the triple-placement rule: a triple is stored at the
  // owner of its subject and the owner of its object).  k <= 64 uses a
  // bitmask fast path; larger k falls back to a per-vertex flag vector.
  std::size_t replicated_sum = 0;
  std::vector<std::uint8_t> seen;
  if (k > 64) {
    seen.assign(static_cast<std::size_t>(k), 0);
  }
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint32_t pv = assignment[v];
    m.partition_weights[pv] += graph.vwgt[v];
    if (k <= 64) {
      std::uint64_t mask = std::uint64_t{1} << pv;
      for (const std::uint32_t u : graph.neighbors(static_cast<std::uint32_t>(v))) {
        mask |= std::uint64_t{1} << assignment[u];
      }
      for (int p = 0; p < k; ++p) {
        if ((mask >> p) & 1u) {
          ++m.nodes_per_partition[static_cast<std::size_t>(p)];
          ++replicated_sum;
        }
      }
    } else {
      std::vector<std::uint32_t> touched;
      auto touch = [&](std::uint32_t p) {
        if (!seen[p]) {
          seen[p] = 1;
          touched.push_back(p);
        }
      };
      touch(pv);
      for (const std::uint32_t u : graph.neighbors(static_cast<std::uint32_t>(v))) {
        touch(assignment[u]);
      }
      for (const std::uint32_t p : touched) {
        seen[p] = 0;
        ++m.nodes_per_partition[p];
        ++replicated_sum;
      }
    }
  }

  // Edge cut: each undirected edge is stored once per endpoint; count the
  // lower-endpoint copy.
  for (std::size_t v = 0; v < n; ++v) {
    const auto begin = graph.xadj[v];
    const auto end = graph.xadj[v + 1];
    for (std::size_t e = begin; e < end; ++e) {
      const std::uint32_t u = graph.adjncy[e];
      if (u > v && assignment[u] != assignment[v]) {
        m.edge_cut += graph.adjwgt[e];
      }
    }
  }

  m.bal = stddev_of(m.nodes_per_partition);
  m.input_replication =
      n == 0 ? 0.0
             : static_cast<double>(replicated_sum) / static_cast<double>(n) -
                   1.0;
  m.replication_factor = m.input_replication + 1.0;
  return m;
}

PartitionMetrics metrics_from_replica_masks(
    std::span<const std::uint64_t> masks,
    std::span<const std::uint64_t> part_weights, std::uint64_t edge_cut) {
  PartitionMetrics m;
  const std::size_t k = part_weights.size();
  m.total_nodes = masks.size();
  m.partition_weights.assign(part_weights.begin(), part_weights.end());
  m.nodes_per_partition.assign(k, 0);
  m.edge_cut = edge_cut;
  std::size_t replicated_sum = 0;
  for (std::uint64_t mask : masks) {
    while (mask != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(mask));
      mask &= mask - 1;
      ++m.nodes_per_partition[bit];
      ++replicated_sum;
    }
  }
  m.bal = stddev_of(m.nodes_per_partition);
  m.input_replication =
      m.total_nodes == 0
          ? 0.0
          : static_cast<double>(replicated_sum) /
                    static_cast<double>(m.total_nodes) -
                1.0;
  m.replication_factor = m.input_replication + 1.0;
  return m;
}

double output_replication(std::span<const std::size_t> per_partition_results,
                          std::size_t union_size) {
  if (union_size == 0) {
    return 0.0;
  }
  std::size_t sum = 0;
  for (const std::size_t n : per_partition_results) {
    sum += n;
  }
  return static_cast<double>(sum) / static_cast<double>(union_size) - 1.0;
}

}  // namespace parowl::partition
