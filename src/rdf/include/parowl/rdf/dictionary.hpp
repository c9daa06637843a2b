#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "parowl/rdf/term.hpp"

namespace parowl::rdf {

/// Interns RDF term lexical forms to dense TermIds and back.
///
/// The dictionary is built once (by the master, while loading/generating the
/// data-set) and then shared read-only by all partitions, so lookups after
/// the build phase are safe from any thread.  Lexical forms are stored
/// undecorated: IRIs without angle brackets, literals without quotes, blank
/// nodes without the "_:" prefix; `TermKind` carries the category.
///
/// The intern index is split into 64 shards by term hash, each an
/// open-addressing table of (id, hash) slots that compares through the
/// entries, so a bulk merge can fill every shard on its own thread.
class Dictionary {
 public:
  Dictionary();

  /// Intern `lexical` with the given kind; returns the existing id if the
  /// (lexical, kind) pair is already present.
  TermId intern(std::string_view lexical, TermKind kind);

  /// Convenience wrappers.
  TermId intern_iri(std::string_view iri) { return intern(iri, TermKind::kIri); }
  TermId intern_blank(std::string_view label) {
    return intern(label, TermKind::kBlank);
  }
  TermId intern_literal(std::string_view lit) {
    return intern(lit, TermKind::kLiteral);
  }

  /// Pre-size the intern index for roughly `expected_terms` additional
  /// terms, cutting rehash churn during bulk loads.  Never shrinks and has
  /// no observable effect on ids or iteration order.
  void reserve(std::size_t expected_terms);

  /// Estimate of term count for a serialization of `input_bytes` bytes
  /// (N-Triples/Turtle).  Deliberately generous: over-reserving buckets is
  /// cheap, rehashing mid-load is not.
  [[nodiscard]] static std::size_t estimate_terms(std::size_t input_bytes) {
    return input_bytes / 96 + 16;
  }

  /// Append the terms of `parts` this dictionary lacks, with the ids that
  /// interning part 0's terms in id order, then part 1's, and so on, would
  /// give them, and return one remap per part: remap[c][id_in_part] ==
  /// id_here, remap[c][0] == kAnyTerm.  The parallel ingest merges its
  /// chunk-local dictionaries this way, in chunk order, which reproduces
  /// the serial first-occurrence ids.
  ///
  /// The work is sharded by term hash over up to `threads` threads: each
  /// shard's owner walks the parts in order and keeps the first occurrence
  /// of every term, a prefix sum over the parts' counts of new terms gives
  /// the final ids, and each shard's index is filled in place.  Lexical
  /// forms are moved out of the parts, not copied: afterwards the parts
  /// are only fit to be destroyed.
  std::vector<std::vector<TermId>> merge(std::span<Dictionary> parts,
                                         unsigned threads);

  /// Look up an existing term; returns kAnyTerm (0) if absent.
  [[nodiscard]] TermId find(std::string_view lexical, TermKind kind) const;
  [[nodiscard]] TermId find_iri(std::string_view iri) const {
    return find(iri, TermKind::kIri);
  }

  /// Lexical form of an interned id.  Precondition: 1 <= id <= size().
  [[nodiscard]] const std::string& lexical(TermId id) const;

  /// Kind of an interned id.  Precondition: 1 <= id <= size().
  [[nodiscard]] TermKind kind(TermId id) const;

  /// True iff the term is an IRI or blank node (a graph vertex).
  [[nodiscard]] bool is_resource(TermId id) const {
    return kind(id) != TermKind::kLiteral;
  }

  /// Number of interned terms (ids run 1..size()).
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string lexical;
    TermKind kind;
  };

  /// One shard of the intern index: open addressing over (id, low 32 bits
  /// of the term hash), load factor <= 1/2.  A slot names its term by id
  /// and compares through entries_, so the index holds no pointer into the
  /// strings and stays valid when a dictionary is copied or moved.
  struct Slot {
    TermId id = kAnyTerm;  // kAnyTerm marks an empty slot
    std::uint32_t hash = 0;
  };
  struct Shard {
    std::vector<Slot> slots;
    std::size_t size = 0;

    /// Make room for `n` terms in all without regrowing on the way.
    void reserve(std::size_t n);

    /// The slot holding the term for which `same(id)` holds, or the empty
    /// slot where it belongs.  Precondition: room for one more term.
    template <typename Same>
    Slot& probe(std::uint32_t hash, Same&& same) {
      const std::size_t mask = slots.size() - 1;
      for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        Slot& slot = slots[i];
        if (slot.id == kAnyTerm || (slot.hash == hash && same(slot.id))) {
          return slot;
        }
      }
    }
  };

  static constexpr unsigned kShardBits = 6;
  static constexpr std::size_t kShards = std::size_t{1} << kShardBits;

  /// 64-bit hash of a term: the top kShardBits pick the shard, the low 32
  /// bits are kept in its slot.
  static std::uint64_t hash(std::string_view lexical, TermKind kind);

  // A deque, so references returned by lexical() stay valid as the
  // dictionary grows.
  std::deque<Entry> entries_;
  std::array<Shard, kShards> index_;
};

}  // namespace parowl::rdf
