#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "parowl/rdf/flat_index.hpp"
#include "parowl/rdf/term.hpp"

namespace parowl::rdf {

/// Duplicate-free triple store with the indexes the inference engines need.
///
/// Datalog materialization is monotone: the engines only ever add triples,
/// so the store keeps an insertion-ordered log (used by the semi-naive
/// engine to address deltas by index range) plus three access paths:
///   * by predicate                    — with_predicate(p)
///   * by (predicate, subject) -> objects  — objects(p, s)
///   * by (predicate, object)  -> subjects — subjects(p, o)
/// which are exactly the probes a single-join rule body performs.
/// Incremental deletion (reason::Maintainer) retracts a batch at a time
/// with erase_all, which keeps the log and every index in the state an
/// insert of the survivors in log order would have produced.  Bulk loads
/// (ingest, snapshot load, the parallel master's merge) go through
/// insert_all, which deduplicates and indexes a batch on several threads
/// and leaves the same state as inserting it triple by triple.
///
/// All indexes are open-addressing IdMaps (flat_index.hpp) pointing into
/// deque arenas: probes touch one cache line on average and inserts do no
/// per-key node allocation, while the posting lists themselves stay
/// pointer-stable — a span returned by objects()/subjects()/with_predicate()
/// is invalidated only when a triple with the same key is inserted or
/// erased, exactly as with the node-based containers this replaced.
class TripleStore {
 public:
  TripleStore();
  TripleStore(const TripleStore& other);
  TripleStore& operator=(const TripleStore& other);
  TripleStore(TripleStore&& other) noexcept;
  TripleStore& operator=(TripleStore&& other) noexcept;

  /// Insert a triple; returns true if it was new, false on duplicate.
  ///
  /// Only the predicate-keyed join indexes are updated eagerly; the
  /// subject/object endpoint postings — needed solely for unbound-predicate
  /// probes — are rebuilt on demand (ensure_endpoint_index), which keeps
  /// the materializer's insert path to three index touches.
  bool insert(const Triple& t) {
    const std::size_t h = TripleHash{}(t);
    if (!set_[set_shard(h)].insert(t, h)) {
      return false;
    }
    log_.push_back(t);
    PredicateIndex& idx = predicate_arena_[predicate_index(t.p)];
    idx.triples.push_back(t);
    list_for(idx.objects_slot, idx.obj_lists, t.s).push_back(t.o);
    list_for(idx.subjects_slot, idx.subj_lists, t.o).push_back(t.s);
    return true;
  }

  /// Insert every triple of `ts`, in order; returns the number added.  The
  /// store ends up exactly as inserting them one by one would leave it:
  /// the same log, predicates() order, posting-list orders and duplicate
  /// count.  The batch is deduplicated with one thread per group of filter
  /// shards, its new triples are appended in input order to the log and
  /// to their predicates' lists, and the (p,s) -> objects and
  /// (p,o) -> subjects indexes of the touched predicates are then built as
  /// independent tasks, largest first.  Up to `threads` threads take part
  /// (0 counts as 1), fewer for a small batch.
  std::size_t insert_all(std::span<const Triple> ts, unsigned threads = 1);

  /// insert_all over the concatenation of `parts`.  Returns, per part, the
  /// number of its triples that were new: part i's new triples are the
  /// log slice that follows those of parts 0..i-1.
  std::vector<std::size_t> insert_all(
      std::span<const std::span<const Triple>> parts, unsigned threads = 1);

  /// Remove every stored triple that is in `doomed` (members absent from
  /// the store are ignored); returns the number removed.  The log is
  /// compacted stably, so survivors keep their relative order.  Only the
  /// removed triples' predicates are re-indexed; a predicate left with no
  /// triples leaves predicates().  The lazy endpoint index is dropped and
  /// rebuilt on the next unbound-predicate probe.  O(size()) for the log
  /// compaction plus O(triples of the touched predicates).
  std::size_t erase_all(const TripleSet& doomed);

  /// Make room in the log and the duplicate filter for `n` triples in all.
  void reserve(std::size_t n);

  [[nodiscard]] bool contains(const Triple& t) const {
    const std::size_t h = TripleHash{}(t);
    return set_[set_shard(h)].contains(t, h);
  }
  [[nodiscard]] std::size_t size() const { return log_.size(); }
  [[nodiscard]] bool empty() const { return log_.empty(); }

  /// Insertion-ordered log of all triples.  The range [from, size()) is the
  /// delta added since a previous checkpoint at `from`.
  [[nodiscard]] const std::vector<Triple>& triples() const { return log_; }

  /// All triples with predicate `p` in insertion order.
  [[nodiscard]] std::span<const Triple> with_predicate(TermId p) const {
    const PredicateIndex* idx = find_predicate(p);
    return idx ? std::span<const Triple>(idx->triples)
               : std::span<const Triple>();
  }

  /// Objects o such that (s, p, o) is present.
  [[nodiscard]] std::span<const TermId> objects(TermId p, TermId s) const {
    const PredicateIndex* idx = find_predicate(p);
    if (idx == nullptr) {
      return {};
    }
    const std::uint32_t* slot = idx->objects_slot.find(s);
    return slot != nullptr ? idx->obj_lists[*slot - 1].view()
                           : std::span<const TermId>();
  }

  /// Subjects s such that (s, p, o) is present.
  [[nodiscard]] std::span<const TermId> subjects(TermId p, TermId o) const {
    const PredicateIndex* idx = find_predicate(p);
    if (idx == nullptr) {
      return {};
    }
    const std::uint32_t* slot = idx->subjects_slot.find(o);
    return slot != nullptr ? idx->subj_lists[*slot - 1].view()
                           : std::span<const TermId>();
  }

  /// Distinct predicates present, in first-seen order.
  [[nodiscard]] const std::vector<TermId>& predicates() const {
    return predicates_;
  }

  /// Invoke `fn(triple)` for every stored triple matching `pattern`,
  /// choosing the cheapest available index.  A type-erased wrapper over
  /// match_each for callers that need one (query layer, tools).
  void match(const TriplePattern& pattern,
             const std::function<void(const Triple&)>& fn) const;

  /// Invoke `fn` for every triple with subject `s` (any predicate).  The
  /// callback is a template parameter, so the per-triple call is inlined
  /// with no std::function allocation or indirect branch.
  template <typename Fn>
  void for_subject_each(TermId s, Fn&& fn) const {
    ensure_endpoint_index();
    const std::uint32_t* slot = subject_slot_.find(s);
    if (slot == nullptr) {
      return;
    }
    for (std::uint32_t i : subject_postings_[*slot - 1].view()) {
      fn(log_[i]);
    }
  }

  /// Invoke `fn` for every triple with object `o` (any predicate).
  template <typename Fn>
  void for_object_each(TermId o, Fn&& fn) const {
    ensure_endpoint_index();
    const std::uint32_t* slot = object_slot_.find(o);
    if (slot == nullptr) {
      return;
    }
    for (std::uint32_t i : object_postings_[*slot - 1].view()) {
      fn(log_[i]);
    }
  }

  template <typename Fn>
  void match_each(const TriplePattern& pattern, Fn&& fn) const {
    const bool sb = pattern.s != kAnyTerm;
    const bool pb = pattern.p != kAnyTerm;
    const bool ob = pattern.o != kAnyTerm;

    if (sb && pb && ob) {
      const Triple t{pattern.s, pattern.p, pattern.o};
      if (contains(t)) {
        fn(t);
      }
      return;
    }
    if (pb && sb) {
      for (TermId o : objects(pattern.p, pattern.s)) {
        fn(Triple{pattern.s, pattern.p, o});
      }
      return;
    }
    if (pb && ob) {
      for (TermId s : subjects(pattern.p, pattern.o)) {
        fn(Triple{s, pattern.p, pattern.o});
      }
      return;
    }
    if (pb) {
      for (const Triple& t : with_predicate(pattern.p)) {
        fn(t);
      }
      return;
    }
    // Predicate unbound: use the subject/object log indexes when possible.
    if (sb) {
      for_subject_each(pattern.s, [&](const Triple& t) {
        if (!ob || t.o == pattern.o) {
          fn(t);
        }
      });
      return;
    }
    if (ob) {
      for_object_each(pattern.o, std::forward<Fn>(fn));
      return;
    }
    // Fully unbound: scan the log.
    for (const Triple& t : log_) {
      fn(t);
    }
  }

  /// Count matches without materializing them.
  [[nodiscard]] std::size_t count(const TriplePattern& pattern) const;

  /// Number of lazy endpoint-index (re)builds this store has performed.
  /// Monotone across clear() — the forward engine's rewrite mode rebuilds
  /// the store mid-run and asserts the delta over a whole run stays zero
  /// (nothing should probe with an unbound predicate in representative
  /// space), so clearing the log must not reset the evidence.
  [[nodiscard]] std::size_t endpoint_index_builds() const {
    return endpoint_builds_.load(std::memory_order_relaxed);
  }

  /// Remove everything (used when a worker rebuilds its base partition).
  void clear();

 private:
  struct PredicateIndex {
    std::vector<Triple> triples;  // insertion order within this predicate
    // subject -> objects and object -> subjects posting lists.  The IdMap
    // stores arena_index + 1 (0 = absent); the lists live in deques so they
    // never move when the slot table rehashes.
    IdMap<std::uint32_t> objects_slot;
    IdMap<std::uint32_t> subjects_slot;
    std::deque<SmallIdList> obj_lists;
    std::deque<SmallIdList> subj_lists;
  };

  template <typename List>
  static List& list_for(IdMap<std::uint32_t>& slots, std::deque<List>& arena,
                        TermId key) {
    std::uint32_t& slot = slots[key];
    if (slot == 0) {
      arena.emplace_back();
      slot = static_cast<std::uint32_t>(arena.size());
    }
    return arena[slot - 1];
  }

  /// Arena index of `p`'s index, starting a new one (and recording `p` in
  /// predicates()) if `p` has none.
  std::uint32_t predicate_index(TermId p) {
    std::uint32_t& pslot = predicate_slot_[p];
    if (pslot == 0) {
      predicate_arena_.emplace_back();
      pslot = static_cast<std::uint32_t>(predicate_arena_.size());
      predicates_.push_back(p);
    }
    return pslot - 1;
  }

  [[nodiscard]] const PredicateIndex* find_predicate(TermId p) const {
    // Slot 0 also marks a predicate erase_all emptied.
    const std::uint32_t* slot = predicate_slot_.find(p);
    return slot != nullptr && *slot != 0 ? &predicate_arena_[*slot - 1]
                                         : nullptr;
  }

  /// Bring the subject/object endpoint postings up to date with the log.
  /// Thread-safe against concurrent readers (double-checked under
  /// endpoint_mu_); writers are exclusive by the store's usual contract.
  void ensure_endpoint_index() const {
    if (endpoint_built_.load(std::memory_order_acquire) != log_.size()) {
      build_endpoint_tail();
    }
  }
  void build_endpoint_tail() const;

  /// The duplicate filter is sharded by the top bits of the triple hash
  /// (TripleSet probes from the low bits), so insert_all can deduplicate a
  /// batch with one thread per group of shards.
  static constexpr unsigned kSetShardBits = 4;
  static constexpr std::size_t kSetShards = std::size_t{1} << kSetShardBits;
  static std::size_t set_shard(std::size_t hash) {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(hash) >>
                                    (64 - kSetShardBits));
  }

  std::vector<Triple> log_;
  std::array<TripleSet, kSetShards> set_;
  IdMap<std::uint32_t> predicate_slot_;  // predicate -> arena index + 1
  std::deque<PredicateIndex> predicate_arena_;
  std::vector<TermId> predicates_;
  // Log indices per subject / per object, for queries with an unbound
  // predicate ((s ? ?), (? ? o)).  Only two families of callers probe this
  // way: the backward engine, and the naive sameAs rules (rdfp6/7/11a/11b
  // pivot on wildcard predicates).  Under equality_mode = rewrite those
  // rules are dropped and forward closure must never touch these postings —
  // ForwardStats::endpoint_index_builds counts builds so tests can pin
  // that.  Built lazily, on first such probe, so the insert hot path never
  // pays for them; `mutable` because the rebuild happens under const
  // accessors.
  mutable IdMap<std::uint32_t> subject_slot_;
  mutable IdMap<std::uint32_t> object_slot_;
  mutable std::deque<SmallIdList> subject_postings_;
  mutable std::deque<SmallIdList> object_postings_;
  mutable std::atomic<std::size_t> endpoint_built_{0};
  mutable std::atomic<std::size_t> endpoint_builds_{0};
  mutable std::mutex endpoint_mu_;
};

/// Remove from `v`, keeping the order of the rest, every triple that is in
/// `doomed`; returns the number removed.  A bitmap over the doomed
/// subjects turns away nearly every survivor before the hash probe, so for
/// a small `doomed` the pass costs about one read of `v`.
std::size_t erase_members(std::vector<Triple>& v, const TripleSet& doomed);

}  // namespace parowl::rdf
