#include "parowl/rdf/triple_store.hpp"

#include <algorithm>

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

}  // namespace

TripleStore::TripleStore() = default;

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

void TripleStore::for_subject(
    TermId s, const std::function<void(const Triple&)>& fn) const {
  for_subject_each(s, [&fn](const Triple& t) { fn(t); });
}

void TripleStore::for_object(
    TermId o, const std::function<void(const Triple&)>& fn) const {
  for_object_each(o, [&fn](const Triple& t) { fn(t); });
}

std::size_t TripleStore::insert_all(std::span<const Triple> ts) {
  std::size_t added = 0;
  for (const Triple& t : ts) {
    added += insert(t) ? 1 : 0;
  }
  return added;
}

std::size_t TripleStore::erase_all(const TripleSet& doomed) {
  std::vector<Triple> erased;
  doomed.for_each([&](const Triple& t) {
    if (set_.erase(t)) {
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
  set_.clear();
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
