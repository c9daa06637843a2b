#include "parowl/serve/updater.hpp"

#include <algorithm>
#include <memory>

#include "parowl/util/timer.hpp"

namespace parowl::serve {
namespace {

void sort_unique(std::vector<rdf::TermId>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

}  // namespace

Updater::Updater(SnapshotRegistry& registry, ResultCache* cache,
                 const rdf::Dictionary& dict,
                 const ontology::Vocabulary& vocab, unsigned reason_threads,
                 reason::MaintainStrategy strategy)
    : registry_(registry),
      cache_(cache),
      dict_(dict),
      vocab_(vocab),
      reason_threads_(reason_threads),
      strategy_(strategy) {}

UpdateOutcome Updater::apply(std::span<const rdf::Triple> additions) {
  return apply(additions, {});
}

UpdateOutcome Updater::apply(std::span<const rdf::Triple> additions,
                             std::span<const rdf::Triple> deletions) {
  const std::scoped_lock lock(write_mutex_);
  UpdateOutcome outcome;
  util::Stopwatch total;

  const SnapshotPtr old_snap = registry_.current();

  auto next = std::make_shared<KbSnapshot>();
  std::vector<rdf::Triple> base;
  {
    util::Stopwatch copy_watch;
    next->store = old_snap->store;  // copy-on-update: readers keep theirs
    // No recorded base: conservatively treat every closure triple as
    // asserted (see KbSnapshot::base).
    base = old_snap->base != nullptr ? *old_snap->base
                                     : old_snap->store.triples();
    outcome.copy_seconds = copy_watch.elapsed_seconds();
  }
  next->version = old_snap->version + 1;
  if (base_set_version_ != old_snap->version) {
    base_set_ = rdf::TripleSet(base);  // first write, or a version it missed
  }

  // Rewrite mode: hand the maintainer a private clone of the class map
  // (RCU).  It only ever *grows* the clone — batches that would shrink a
  // class come back equality_rejected and the clone is discarded.
  std::shared_ptr<reason::EqualityManager> eq_next;
  if (old_snap->equality != nullptr) {
    eq_next = std::make_shared<reason::EqualityManager>(*old_snap->equality);
  }
  if (!maintainer_) {
    reason::MaintainOptions mopts;
    mopts.strategy = strategy_;
    mopts.threads = reason_threads_;
    if (eq_next != nullptr) {
      mopts.equality_mode = reason::EqualityMode::kRewrite;
    }
    maintainer_.emplace(dict_, vocab_, old_snap->store, mopts);
  }
  // The maintainer patches base_set_ in place only when the batch changes
  // the base, which always publishes; until then it matches no version.
  base_set_version_ = 0;
  outcome.maintain = maintainer_->apply(next->store, base, base_set_,
                                        additions, deletions, eq_next.get());

  // Mirror the headline numbers into the incremental-closure stats block.
  outcome.result.schema_changed = outcome.maintain.schema_changed;
  outcome.result.added = outcome.maintain.base_added;
  outcome.result.inferred = outcome.maintain.inferred;
  outcome.result.iterations = outcome.maintain.rederive_iterations;
  outcome.result.reason_seconds = outcome.maintain.rederive_seconds;
  outcome.result.eq_merges = outcome.maintain.eq_merges;

  // A merge can change the fixpoint without growing the store (the new
  // sameAs fact is intercepted and existing triples are remapped in
  // place), so "unchanged" must also check the map.
  const bool changed = outcome.maintain.base_added > 0 ||
                       outcome.maintain.base_deleted > 0 ||
                       outcome.maintain.removed > 0 ||
                       outcome.maintain.inferred > 0 ||
                       outcome.maintain.eq_merges > 0;
  if (outcome.maintain.schema_changed || outcome.maintain.equality_rejected ||
      !changed) {
    // Rejected (schema change / deletion touching the equality map), or an
    // all-no-op batch (deletes of absent triples plus duplicate adds): the
    // fixpoint is unchanged, keep the current snapshot and every cache
    // entry as is.  The base, and so base_set_, is untouched.
    base_set_version_ = old_snap->version;
    outcome.total_seconds = total.elapsed_seconds();
    return outcome;
  }

  // first_new_index is 0 when a merge rebuilt (reordered) the store log:
  // the survivor-prefix contract is void, so the footprint below spans
  // every stored predicate, which is exactly what makes cached pre-merge
  // answers unreachable.
  next->delta_begin = outcome.maintain.first_new_index;
  next->equality = std::move(eq_next);
  next->base =
      std::make_shared<const std::vector<rdf::Triple>>(std::move(base));

  // Footprint of the delta: the new triples' predicates AND the removed
  // triples' predicates — a cached answer that contained a deleted (or
  // overdeleted-then-not-rederived) triple must be retired too.
  const auto& log = next->store.triples();
  for (std::size_t i = next->delta_begin; i < log.size(); ++i) {
    outcome.delta_predicates.push_back(log[i].p);
  }
  for (const rdf::Triple& t : outcome.maintain.removed_triples) {
    outcome.delta_predicates.push_back(t.p);
  }
  sort_unique(outcome.delta_predicates);

  // Invalidate before publishing: after the swap no reader can find a
  // cached answer the delta made stale.
  if (cache_ != nullptr) {
    outcome.invalidated =
        cache_->on_update(outcome.delta_predicates, next->version);
  }
  outcome.version = next->version;
  base_set_version_ = next->version;
  registry_.publish(std::move(next));
  ++batches_;
  outcome.total_seconds = total.elapsed_seconds();
  return outcome;
}

std::uint64_t Updater::batches_applied() const {
  const std::scoped_lock lock(write_mutex_);
  return batches_;
}

}  // namespace parowl::serve
