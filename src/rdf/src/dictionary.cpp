#include "parowl/rdf/dictionary.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "parowl/util/parallel.hpp"
#include "parowl/util/strings.hpp"

namespace parowl::rdf {

std::uint64_t Dictionary::hash(std::string_view lexical, TermKind kind) {
  // FNV-1a alone barely moves the top bits when only the last byte
  // differs ("...University0", "...University1"); the finalizer spreads
  // every byte over the shard bits.
  return util::mix64(util::fnv1a64(lexical) +
                     static_cast<std::uint64_t>(kind));
}

void Dictionary::Shard::reserve(std::size_t n) {
  if (slots.size() >= 2 * (n + 1)) {
    return;
  }
  std::vector<Slot> old = std::move(slots);
  slots.assign(std::bit_ceil(2 * (n + 1)), Slot{});
  const std::size_t mask = slots.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kAnyTerm) {
      continue;
    }
    std::size_t i = s.hash & mask;
    while (slots[i].id != kAnyTerm) {
      i = (i + 1) & mask;
    }
    slots[i] = s;
  }
}

Dictionary::Dictionary() = default;

TermId Dictionary::intern(std::string_view lexical, TermKind kind) {
  const std::uint64_t h = hash(lexical, kind);
  Shard& shard = index_[h >> (64 - kShardBits)];
  if (shard.slots.size() < 2 * (shard.size + 1)) {
    shard.reserve(std::max<std::size_t>(8, 2 * shard.size));
  }
  Slot& slot = shard.probe(static_cast<std::uint32_t>(h), [&](TermId id) {
    const Entry& e = entries_[id - 1];
    return e.kind == kind && e.lexical == lexical;
  });
  if (slot.id == kAnyTerm) {
    entries_.push_back(Entry{std::string(lexical), kind});
    slot = Slot{static_cast<TermId>(entries_.size()),  // ids start at 1
                static_cast<std::uint32_t>(h)};
    ++shard.size;
  }
  return slot.id;
}

void Dictionary::reserve(std::size_t expected_terms) {
  for (Shard& shard : index_) {
    shard.reserve(shard.size + expected_terms / kShards + 1);
  }
}

std::vector<std::vector<TermId>> Dictionary::merge(
    std::span<Dictionary> parts, unsigned threads) {
  const std::size_t n = parts.size();
  // A part's term has flat position offset[c] + id_in_part (1-based).  A
  // slot or remap entry with kFirst set stands for a term new to this
  // dictionary, until the final ids are known: kFirst alone marks its
  // first occurrence, kFirst | pos a later one (or that term's slot).
  constexpr TermId kFirst = TermId{1} << 31;
  std::vector<std::size_t> offset(n + 1, 0);
  for (std::size_t c = 0; c < n; ++c) {
    offset[c + 1] = offset[c] + parts[c].size();
  }
  assert(size() + offset[n] < kFirst);
  const auto locate = [&](TermId pos) {
    const auto c = static_cast<std::size_t>(
        std::upper_bound(offset.begin(), offset.end(), pos - 1) -
        offset.begin() - 1);
    return std::pair<std::size_t, TermId>(
        c, static_cast<TermId>(pos - offset[c]));
  };

  // 1. Per part: its ids grouped by shard, ascending within a shard, and
  //    their hashes, read off the part's own index.
  struct Grouped {
    std::vector<TermId> ids;
    // Shard s's ids are ids[bounds[s], bounds[s + 1]).
    std::array<std::size_t, kShards + 1> bounds{};
    std::vector<std::uint32_t> hash;  // by id in the part
  };
  std::vector<Grouped> grouped(n);
  std::vector<std::vector<TermId>> remap(n);
  util::run_tasks(n, threads, [&](std::size_t c) {
    const Dictionary& part = parts[c];
    Grouped& g = grouped[c];
    std::vector<std::uint8_t> shard_of(part.size() + 1);
    g.hash.assign(part.size() + 1, 0);
    for (std::size_t s = 0; s < kShards; ++s) {
      for (const Slot& slot : part.index_[s].slots) {
        if (slot.id != kAnyTerm) {
          shard_of[slot.id] = static_cast<std::uint8_t>(s);
          g.hash[slot.id] = slot.hash;
        }
      }
      g.bounds[s + 1] = g.bounds[s] + part.index_[s].size;
    }
    std::array<std::size_t, kShards> next{};
    std::copy_n(g.bounds.begin(), kShards, next.begin());
    g.ids.resize(part.size());
    for (TermId id = 1; id <= part.size(); ++id) {
      g.ids[next[shard_of[id]]++] = id;
    }
    remap[c].assign(part.size() + 1, kAnyTerm);
  });

  // 2. Each shard's owner walks the parts in order: a term found in the
  //    dictionary maps to its id, a term seen in an earlier part to that
  //    first occurrence.
  util::run_tasks(kShards, threads, [&](std::size_t s) {
    Shard& shard = index_[s];
    std::size_t incoming = 0;
    for (const Grouped& g : grouped) {
      incoming += g.bounds[s + 1] - g.bounds[s];
    }
    shard.reserve(shard.size + incoming);
    for (std::size_t c = 0; c < n; ++c) {
      const Dictionary& part = parts[c];
      const Grouped& g = grouped[c];
      for (std::size_t k = g.bounds[s]; k < g.bounds[s + 1]; ++k) {
        const TermId id = g.ids[k];
        const Entry& term = part.entries_[id - 1];
        Slot& slot = shard.probe(g.hash[id], [&](TermId held) {
          const Entry& e = [&]() -> const Entry& {
            if ((held & kFirst) == 0) {
              return entries_[held - 1];
            }
            const auto [hc, hid] = locate(held & ~kFirst);
            return parts[hc].entries_[hid - 1];
          }();
          return e.kind == term.kind && e.lexical == term.lexical;
        });
        if (slot.id == kAnyTerm) {
          slot = Slot{kFirst | static_cast<TermId>(offset[c] + id),
                      g.hash[id]};
          ++shard.size;
          remap[c][id] = kFirst;
        } else {
          remap[c][id] = slot.id;
        }
      }
    }
  });

  // 3. Final ids: a prefix sum over the parts' counts of first
  //    occurrences; each part then numbers its own in id order and moves
  //    their strings into place.
  std::vector<std::size_t> first_id(n + 1, size() + 1);
  for (std::size_t c = 0; c < n; ++c) {
    first_id[c + 1] =
        first_id[c] + static_cast<std::size_t>(
                          std::count(remap[c].begin(), remap[c].end(), kFirst));
  }
  entries_.resize(first_id[n] - 1);
  util::run_tasks(n, threads, [&](std::size_t c) {
    auto next = static_cast<TermId>(first_id[c]);
    for (TermId id = 1; id < remap[c].size(); ++id) {
      if (remap[c][id] == kFirst) {
        Entry& from = parts[c].entries_[id - 1];
        entries_[next - 1] = Entry{std::move(from.lexical), from.kind};
        remap[c][id] = next++;
      }
    }
  });

  // 4. Resolve the later occurrences (one task per part) and the new
  //    slots (one per shard) to the final ids.
  const auto final_id = [&](TermId held) {
    const auto [c, id] = locate(held & ~kFirst);
    return remap[c][id];
  };
  util::run_tasks(n + kShards, threads, [&](std::size_t task) {
    if (task < n) {
      for (TermId& id : remap[task]) {
        if ((id & kFirst) != 0) {
          id = final_id(id);
        }
      }
      return;
    }
    for (Slot& slot : index_[task - n].slots) {
      if ((slot.id & kFirst) != 0) {
        slot.id = final_id(slot.id);
      }
    }
  });
  return remap;
}

TermId Dictionary::find(std::string_view lexical, TermKind kind) const {
  const std::uint64_t h = hash(lexical, kind);
  const Shard& shard = index_[h >> (64 - kShardBits)];
  if (shard.slots.empty()) {
    return kAnyTerm;
  }
  const std::size_t mask = shard.slots.size() - 1;
  const auto h32 = static_cast<std::uint32_t>(h);
  for (std::size_t i = h32 & mask;; i = (i + 1) & mask) {
    const Slot& slot = shard.slots[i];
    if (slot.id == kAnyTerm) {
      return kAnyTerm;
    }
    if (slot.hash == h32) {
      const Entry& e = entries_[slot.id - 1];
      if (e.kind == kind && e.lexical == lexical) {
        return slot.id;
      }
    }
  }
}

const std::string& Dictionary::lexical(TermId id) const {
  assert(id >= 1 && id <= entries_.size());
  return entries_[id - 1].lexical;
}

TermKind Dictionary::kind(TermId id) const {
  assert(id >= 1 && id <= entries_.size());
  return entries_[id - 1].kind;
}

}  // namespace parowl::rdf
