// exec::ElementTable: the elements one request holds — fetched, hedged or
// decoded — keyed by element identity (stripe, group, position).
//
// A flat open-addressed table instead of a node per element: entries sit
// in arrival order in one array, and a power-of-two index of entry
// ordinals (linear probing, at most half full) finds them. Both arrays
// are sized once per fetch from the plan, so holding an element costs no
// allocation, and lookups stay O(1) for whole-file reads as for ten
// elements. Elements are only ever added; the first one stored under a
// key stays.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "common/buffer_pool.h"
#include "common/types.h"

namespace ecfrm::exec {

class ElementTable {
  public:
    /// Identity of one stored element in candidate-code coordinates.
    using Key = std::tuple<StripeId, int, int>;

    /// Make room for `count` elements in total without growing.
    void reserve(std::size_t count) {
        entries_.reserve(count);
        if (2 * count > index_.size()) rehash(std::bit_ceil(std::max<std::size_t>(8, 2 * count)));
    }

    const ElementBuf* find(const Key& key) const {
        const std::uint32_t slot = index_.empty() ? 0 : index_[probe(key)];
        return slot == 0 ? nullptr : &entries_[slot - 1].second;
    }
    ElementBuf* find(const Key& key) {
        return const_cast<ElementBuf*>(std::as_const(*this).find(key));
    }
    bool contains(const Key& key) const { return find(key) != nullptr; }

    /// Store `buf` under `key` unless the key is already held.
    void emplace(const Key& key, ElementBuf buf) {
        if (2 * (entries_.size() + 1) > index_.size()) reserve(2 * entries_.size() + 1);
        std::uint32_t& slot = index_[probe(key)];
        if (slot != 0) return;
        entries_.emplace_back(key, std::move(buf));
        slot = static_cast<std::uint32_t>(entries_.size());
    }

    std::size_t size() const { return entries_.size(); }

  private:
    /// The slot holding `key`, or the empty slot where it would go.
    std::size_t probe(const Key& key) const {
        const std::size_t mask = index_.size() - 1;
        for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            const std::uint32_t slot = index_[i];
            if (slot == 0 || entries_[slot - 1].first == key) return i;
        }
    }

    static std::size_t hash(const Key& key) {
        std::uint64_t h = static_cast<std::uint64_t>(std::get<0>(key)) * 0x9E3779B97F4A7C15ULL;
        h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(std::get<1>(key))) << 32 |
              static_cast<std::uint32_t>(std::get<2>(key))) *
             0xC2B2AE3D27D4EB4FULL;
        return static_cast<std::size_t>(h ^ (h >> 31));
    }

    void rehash(std::size_t slots) {
        index_.assign(slots, 0);
        for (std::size_t e = 0; e < entries_.size(); ++e) {
            index_[probe(entries_[e].first)] = static_cast<std::uint32_t>(e + 1);
        }
    }

    std::vector<std::pair<Key, ElementBuf>> entries_;
    std::vector<std::uint32_t> index_;  // 0: empty, else entry ordinal + 1
};

}  // namespace ecfrm::exec
