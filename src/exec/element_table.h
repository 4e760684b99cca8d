// exec::ElementTable: the elements one request holds — fetched or
// decoded — keyed by element identity (stripe, group, position).
//
// A flat open-addressed table instead of a node per element: entries
// (a key and a view of the element's bytes) sit in arrival order in one
// array, and a power-of-two index of entry ordinals (linear probing, at
// most half full) finds them. The bytes live elsewhere: in caller memory
// for elements routed through the executor's sink, or in staging buffers
// the table holds until clear(). Both arrays are sized once per fetch
// from the plan and keep their capacity across clear(), so a table
// reused by request after request allocates nothing in steady state, and
// lookups stay O(1) for whole-file reads as for ten elements. Elements
// are only ever added; the first one stored under a key stays.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>
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

    /// The bytes held under `key`, or an empty span when none are.
    ByteSpan find(const Key& key) const {
        const std::uint32_t slot = entries_.empty() ? 0 : index_[probe(key)];
        return slot == 0 ? ByteSpan{} : entries_[slot - 1].view;
    }
    bool contains(const Key& key) const { return !find(key).empty(); }

    /// Hold `view` under `key` unless the key is already held; `sunk`
    /// marks a view of the caller's destination (see sunk()). Returns
    /// whether the element was stored.
    bool emplace(const Key& key, ByteSpan view, bool sunk) {
        if (2 * (entries_.size() + 1) > index_.size()) reserve(2 * entries_.size() + 1);
        std::uint32_t& slot = index_[probe(key)];
        if (slot != 0) return false;
        entries_.push_back({key, view});
        slot = static_cast<std::uint32_t>(entries_.size());
        if (sunk) ++sunk_;
        return true;
    }

    /// A staging buffer of `bytes`, drawn from `pool` (see staging_buffer)
    /// and held until clear().
    ByteSpan stage(std::size_t bytes, BufferPool* pool) {
        owned_.push_back(staging_buffer(bytes, pool));
        return owned_.back().span().first(bytes);
    }
    /// Hold `buffer` until clear().
    void hold(PooledBuffer buffer) { owned_.push_back(std::move(buffer)); }

    std::size_t size() const { return entries_.size(); }
    /// Elements stored as views of the caller's destination.
    std::size_t sunk() const { return sunk_; }

    /// Forget every element and release the held buffers; capacity stays.
    void clear() {
        // Zero only the slots in use, so a table that once held a whole
        // file clears in O(elements held), not O(index size).
        const std::size_t mask = index_.size() - 1;
        for (std::size_t e = 0; e < entries_.size(); ++e) {
            std::size_t i = hash(entries_[e].key) & mask;
            while (index_[i] != e + 1) i = (i + 1) & mask;
            index_[i] = 0;
        }
        entries_.clear();
        owned_.clear();
        sunk_ = 0;
    }

  private:
    struct Entry {
        Key key;
        ByteSpan view;
    };

    /// The slot holding `key`, or the empty slot where it would go.
    std::size_t probe(const Key& key) const {
        const std::size_t mask = index_.size() - 1;
        for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            const std::uint32_t slot = index_[i];
            if (slot == 0 || entries_[slot - 1].key == key) return i;
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
            index_[probe(entries_[e].key)] = static_cast<std::uint32_t>(e + 1);
        }
    }

    std::vector<Entry> entries_;
    std::vector<std::uint32_t> index_;  // 0: empty, else entry ordinal + 1
    std::vector<PooledBuffer> owned_;   // staging behind some entries' views
    std::size_t sunk_ = 0;
};

}  // namespace ecfrm::exec
