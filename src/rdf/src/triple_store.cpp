#include "parowl/rdf/triple_store.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "parowl/util/parallel.hpp"

namespace parowl::rdf {
namespace {

/// Copy of `v` with room to grow by an eighth.  A copied store is usually
/// about to take inserts (serve::Updater maintains a copy of the served
/// store), and a vector copied at its exact size moves all of itself on the
/// first insert past it: on LUBM-500 one rederived rdf:type triple cost
/// 15 ms that way, moving the 0.8M-triple rdf:type list.
template <typename T>
std::vector<T> with_headroom(const std::vector<T>& v) {
  std::vector<T> out;
  out.reserve(v.size() + v.size() / 8);
  out.assign(v.begin(), v.end());
  return out;
}

/// Make room in `v` for `n` elements, at least doubling its capacity when
/// it must grow, so a run of small bulk inserts stays amortized O(1) per
/// element instead of moving the whole vector each time.
template <typename T>
void grow_to(std::vector<T>& v, std::size_t n) {
  if (v.capacity() < n) {
    v.reserve(std::max(n, 2 * v.capacity()));
  }
}

}  // namespace

TripleStore::TripleStore() = default;

void TripleStore::reserve(std::size_t n) {
  log_.reserve(n);
  // Shard sizes spread binomially around n / kSetShards; three standard
  // deviations of room keeps every shard from regrowing.
  const double per_shard = static_cast<double>(n) / kSetShards;
  const auto room =
      static_cast<std::size_t>(per_shard + 3 * std::sqrt(per_shard));
  for (TripleSet& shard : set_) {
    shard.reserve(room);
  }
}

// Copy/move are user-provided only because the lazy endpoint index carries
// an atomic watermark and a mutex.  Copying locks the source so a snapshot
// clone (serve::Updater's copy-on-update) is safe against concurrent
// readers lazily building the source's endpoint postings.
TripleStore::TripleStore(const TripleStore& other) { *this = other; }

TripleStore& TripleStore::operator=(const TripleStore& other) {
  if (this == &other) {
    return *this;
  }
  std::scoped_lock lock(other.endpoint_mu_);
  log_ = with_headroom(other.log_);
  set_ = other.set_;
  predicate_slot_ = other.predicate_slot_;
  predicate_arena_.clear();
  for (const PredicateIndex& idx : other.predicate_arena_) {
    predicate_arena_.push_back({with_headroom(idx.triples), idx.objects_slot,
                                idx.subjects_slot, idx.obj_lists,
                                idx.subj_lists});
  }
  predicates_ = other.predicates_;
  subject_slot_ = other.subject_slot_;
  object_slot_ = other.object_slot_;
  subject_postings_ = other.subject_postings_;
  object_postings_ = other.object_postings_;
  endpoint_built_.store(other.endpoint_built_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  endpoint_builds_.store(
      other.endpoint_builds_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  return *this;
}

TripleStore::TripleStore(TripleStore&& other) noexcept {
  *this = std::move(other);
}

TripleStore& TripleStore::operator=(TripleStore&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  log_ = std::move(other.log_);
  set_ = std::move(other.set_);
  predicate_slot_ = std::move(other.predicate_slot_);
  predicate_arena_ = std::move(other.predicate_arena_);
  predicates_ = std::move(other.predicates_);
  subject_slot_ = std::move(other.subject_slot_);
  object_slot_ = std::move(other.object_slot_);
  subject_postings_ = std::move(other.subject_postings_);
  object_postings_ = std::move(other.object_postings_);
  endpoint_built_.store(other.endpoint_built_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  endpoint_builds_.store(
      other.endpoint_builds_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  other.clear();
  return *this;
}

void TripleStore::build_endpoint_tail() const {
  std::scoped_lock lock(endpoint_mu_);
  std::size_t i = endpoint_built_.load(std::memory_order_relaxed);
  if (i < log_.size()) {
    endpoint_builds_.fetch_add(1, std::memory_order_relaxed);
  }
  for (; i < log_.size(); ++i) {
    const Triple& t = log_[i];
    const auto log_index = static_cast<std::uint32_t>(i);
    list_for(subject_slot_, subject_postings_, t.s).push_back(log_index);
    list_for(object_slot_, object_postings_, t.o).push_back(log_index);
  }
  endpoint_built_.store(i, std::memory_order_release);
}

std::size_t TripleStore::insert_all(std::span<const Triple> ts,
                                    unsigned threads) {
  return insert_all(std::span<const std::span<const Triple>>(&ts, 1),
                    threads)
      .front();
}

std::vector<std::size_t> TripleStore::insert_all(
    std::span<const std::span<const Triple>> parts, unsigned threads) {
  // A thread is worth starting for about this many triples of work.
  constexpr std::size_t kPerThread = std::size_t{1} << 14;
  threads = std::max(1u, threads);
  const auto workers_for = [threads](std::size_t work) {
    return static_cast<unsigned>(
        std::min<std::size_t>(threads, 1 + work / kPerThread));
  };

  std::vector<std::size_t> added(parts.size(), 0);
  std::size_t total = 0;
  for (const std::span<const Triple> part : parts) {
    total += part.size();
  }
  // Dedup: each thread owns a group of filter shards and marks, in input
  // order, the triples its shards did not hold yet.  A triple and its
  // repeats share a shard, so the marked ones are exactly the first
  // occurrences of the triples new to the store.
  std::vector<std::uint8_t> fresh(total, 0);
  const unsigned dedup_workers = workers_for(total);
  util::run_tasks(dedup_workers, dedup_workers, [&](std::size_t w) {
    std::size_t i = 0;
    for (const std::span<const Triple> part : parts) {
      for (const Triple& t : part) {
        const std::size_t h = TripleHash{}(t);
        const std::size_t shard = set_shard(h);
        if (shard % dedup_workers == w) {
          fresh[i] = set_[shard].insert(t, h) ? 1 : 0;
        }
        ++i;
      }
    }
  });

  // Append the new triples in input order to the log and to their
  // predicates' lists, which fixes the log and the predicates() order.
  // from[a] is where predicate index a's new triples start (kUntouched if
  // it got none).
  constexpr std::size_t kUntouched = SIZE_MAX;
  std::vector<std::size_t> from(predicate_arena_.size(), kUntouched);
  std::vector<std::uint32_t> touched;
  const std::size_t log_before = log_.size();
  grow_to(log_, log_before + static_cast<std::size_t>(
                                 std::count(fresh.begin(), fresh.end(), 1)));
  std::size_t i = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const std::size_t before = log_.size();
    for (const Triple& t : parts[p]) {
      if (fresh[i++] == 0) {
        continue;
      }
      log_.push_back(t);
      const std::uint32_t a = predicate_index(t.p);
      if (a >= from.size()) {
        from.resize(a + 1, kUntouched);
      }
      std::vector<Triple>& list = predicate_arena_[a].triples;
      if (from[a] == kUntouched) {
        from[a] = list.size();
        touched.push_back(a);
      }
      list.push_back(t);
    }
    added[p] = log_.size() - before;
  }

  // Build the two join indexes of every touched predicate as separate
  // tasks, largest first: each task owns one side of one PredicateIndex,
  // so no two tasks write the same structure, and each appends in log
  // order, as the per-triple insert does.
  struct Task {
    std::uint32_t arena;
    bool subjects;
    std::size_t size;
  };
  std::vector<Task> tasks;
  tasks.reserve(2 * touched.size());
  for (const std::uint32_t a : touched) {
    const std::size_t n = predicate_arena_[a].triples.size() - from[a];
    tasks.push_back({a, false, n});
    tasks.push_back({a, true, n});
  }
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const Task& x, const Task& y) { return x.size > y.size; });
  util::run_tasks(tasks.size(), workers_for(2 * (log_.size() - log_before)),
                  [&](std::size_t k) {
    const Task& task = tasks[k];
    PredicateIndex& idx = predicate_arena_[task.arena];
    const std::span<const Triple> batch =
        std::span<const Triple>(idx.triples).subspan(from[task.arena]);
    if (task.subjects) {
      for (const Triple& t : batch) {
        list_for(idx.subjects_slot, idx.subj_lists, t.o).push_back(t.s);
      }
    } else {
      for (const Triple& t : batch) {
        list_for(idx.objects_slot, idx.obj_lists, t.s).push_back(t.o);
      }
    }
  });
  return added;
}

std::size_t TripleStore::erase_all(const TripleSet& doomed) {
  std::vector<Triple> erased;
  doomed.for_each([&](const Triple& t) {
    if (set_[set_shard(TripleHash{}(t))].erase(t)) {
      erased.push_back(t);
    }
  });
  if (erased.empty()) {
    return 0;
  }
  erase_members(log_, doomed);

  std::vector<TermId> touched;
  for (const Triple& t : erased) {
    PredicateIndex& idx = predicate_arena_[*predicate_slot_.find(t.p) - 1];
    idx.obj_lists[*idx.objects_slot.find(t.s) - 1].erase(t.o);
    idx.subj_lists[*idx.subjects_slot.find(t.o) - 1].erase(t.s);
    if (std::find(touched.begin(), touched.end(), t.p) == touched.end()) {
      touched.push_back(t.p);
    }
  }

  bool reorder = false;
  for (const TermId p : touched) {
    std::uint32_t& slot = predicate_slot_[p];
    PredicateIndex& idx = predicate_arena_[slot - 1];
    // with_predicate(p) is in log order, so its front is where p was first
    // seen; losing it can move p behind other predicates.
    const bool lost_first = doomed.contains(idx.triples.front());
    erase_members(idx.triples, doomed);
    if (idx.triples.empty()) {
      // Free the emptied index; a later insert of p starts a new one.
      idx = PredicateIndex{};
      slot = 0;
      std::erase(predicates_, p);
    } else if (lost_first) {
      reorder = true;
    }
  }
  if (reorder) {
    // Re-derive the first-seen order from the compacted log.
    predicates_.clear();
    IdMap<bool> seen;
    for (const Triple& t : log_) {
      bool& s = seen[t.p];
      if (!s) {
        s = true;
        predicates_.push_back(t.p);
      }
    }
  }

  // Endpoint postings hold log indices, which the compaction shifted.
  subject_slot_.clear();
  object_slot_.clear();
  subject_postings_.clear();
  object_postings_.clear();
  endpoint_built_.store(0, std::memory_order_relaxed);
  return erased.size();
}

std::size_t erase_members(std::vector<Triple>& v, const TripleSet& doomed) {
  if (doomed.empty()) {
    return 0;
  }
  constexpr std::size_t kWords = 1024;  // a 64 Ki-bit filter, 8 KiB
  std::vector<std::uint64_t> subjects(kWords, 0);
  doomed.for_each([&](const Triple& t) {
    subjects[(t.s >> 6) % kWords] |= std::uint64_t{1} << (t.s & 63);
  });
  const auto kept_end = std::remove_if(v.begin(), v.end(), [&](const Triple& t) {
    return ((subjects[(t.s >> 6) % kWords] >> (t.s & 63)) & 1) != 0 &&
           doomed.contains(t);
  });
  const auto removed = static_cast<std::size_t>(v.end() - kept_end);
  v.erase(kept_end, v.end());
  return removed;
}

void TripleStore::match(const TriplePattern& pattern,
                        const std::function<void(const Triple&)>& fn) const {
  match_each(pattern, [&fn](const Triple& t) { fn(t); });
}

std::size_t TripleStore::count(const TriplePattern& pattern) const {
  std::size_t n = 0;
  match_each(pattern, [&n](const Triple&) { ++n; });
  return n;
}

void TripleStore::clear() {
  log_.clear();
  for (TripleSet& shard : set_) {
    shard.clear();
  }
  predicate_slot_.clear();
  predicate_arena_.clear();
  predicates_.clear();
  subject_slot_.clear();
  object_slot_.clear();
  subject_postings_.clear();
  object_postings_.clear();
  endpoint_built_.store(0, std::memory_order_relaxed);
}

}  // namespace parowl::rdf
