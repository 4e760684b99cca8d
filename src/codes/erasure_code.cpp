#include "codes/erasure_code.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <mutex>
#include <set>

#include "gf/gf256.h"
#include "gf/kernels.h"
#include "gf/region.h"

namespace ecfrm::codes {

using gf::Gf256;
using matrix::Matrix;

/// Solved repairs, null for an unsolvable (target, sources) pair. Entries
/// are never erased, so the repairs they own never move.
struct ErasureCode::RepairCache {
    std::uint64_t id = 0;
    std::mutex mu;
    RepairMap<std::unique_ptr<const ElementRepair>> repairs;
};

ErasureCode::ErasureCode() : repair_cache_(std::make_unique<RepairCache>()) {
    static std::atomic<std::uint64_t> next_id{1};
    repair_cache_->id = next_id.fetch_add(1, std::memory_order_relaxed);
}

ErasureCode::~ErasureCode() = default;

std::uint64_t ErasureCode::repair_cache_id() const { return repair_cache_->id; }

const ElementRepair* ErasureCode::cached_repair(int target, std::span<const int> sources) const {
    RepairCache& cache = *repair_cache_;
    std::lock_guard<std::mutex> lock(cache.mu);
    if (auto it = cache.repairs.find(RepairKeyView{target, sources}); it != cache.repairs.end()) {
        return it->second.get();
    }
    std::vector<int> key(sources.begin(), sources.end());
    auto solved = solve_repair(target, key);
    auto repair = solved.ok() ? std::make_unique<const ElementRepair>(std::move(solved).take())
                              : nullptr;
    const ElementRepair* out = repair.get();
    cache.repairs.emplace(RepairKey{target, std::move(key)}, std::move(repair));
    return out;
}

int ErasureCode::node_of(int position) const {
    assert(position >= 0 && position < n());
    if (position < k()) return position % data_nodes();
    return data_nodes() + (position - k()) % parity_nodes();
}

int ErasureCode::substripe_of(int position) const {
    assert(position >= 0 && position < n());
    if (position < k()) return position / data_nodes();
    return (position - k()) / parity_nodes();
}

int ErasureCode::position_of(int node, int substripe) const {
    assert(node >= 0 && node < nodes());
    assert(substripe >= 0 && substripe < sub_packetization());
    if (node < data_nodes()) return substripe * data_nodes() + node;
    return k() + substripe * parity_nodes() + (node - data_nodes());
}

std::int64_t ErasureCode::repair_elements_bound(int node) const {
    assert(node >= 0 && node < nodes());
    std::set<int> reads;
    bool generic = false;
    for (int s = 0; s < sub_packetization(); ++s) {
        const int p = position_of(node, s);
        const RepairSpec spec = repair_spec(p);
        if (spec.preferred.empty()) {
            generic = true;
            continue;
        }
        for (int src : spec.preferred) {
            if (node_of(src) != node) reads.insert(src);
        }
    }
    // A position without a structured set falls back to a k-survivor read;
    // the structured fetches can ride along for free (plan dedup).
    if (generic) return std::max<std::int64_t>(k(), static_cast<std::int64_t>(reads.size()));
    return static_cast<std::int64_t>(reads.size());
}

RepairSpec ErasureCode::repair_spec(int position) const {
    (void)position;
    // Conservative default: no structured repair, no MDS promise. Codes
    // override this; the generic decoder still works without hints.
    return RepairSpec{};
}

void ErasureCode::encode(const std::vector<ConstByteSpan>& data, const std::vector<ByteSpan>& parity,
                         ThreadPool* pool) const {
    assert(static_cast<int>(data.size()) == k());
    assert(static_cast<int>(parity.size()) == m());
    // Rows k..n-1 of the row-major generator are contiguous — exactly the
    // m x k coefficient block the fused kernel wants.
    gf::encode_regions(data, parity, generator().row(k()), pool);
}

bool ErasureCode::decodable(const std::vector<int>& available) const {
    return generator().select_rows(available).rank() == k();
}

Result<ElementRepair> ErasureCode::solve_repair(int target, const std::vector<int>& sources) const {
    const Matrix& g = generator();
    const int kk = k();
    const int s = static_cast<int>(sources.size());

    // Solve c^T * G_S = G_target, i.e. G_S^T c = g_target^T: a kk x s system.
    // Augmented Gaussian elimination over GF(2^8).
    Matrix aug(kk, s + 1);
    for (int r = 0; r < kk; ++r) {
        for (int j = 0; j < s; ++j) aug.at(r, j) = g.at(sources[static_cast<std::size_t>(j)], r);
        aug.at(r, s) = g.at(target, r);
    }

    std::vector<int> pivot_col_of_row(static_cast<std::size_t>(kk), -1);
    int row = 0;
    for (int col = 0; col < s && row < kk; ++col) {
        int pivot = -1;
        for (int r = row; r < kk; ++r) {
            if (aug.at(r, col) != 0) {
                pivot = r;
                break;
            }
        }
        if (pivot < 0) continue;
        aug.swap_rows(row, pivot);
        const std::uint8_t pinv = Gf256::inv(aug.at(row, col));
        const std::uint8_t* prow = Gf256::mul_row(pinv);
        for (int j = 0; j <= s; ++j) aug.at(row, j) = prow[aug.at(row, j)];
        for (int r = 0; r < kk; ++r) {
            if (r == row) continue;
            const std::uint8_t f = aug.at(r, col);
            if (f == 0) continue;
            const std::uint8_t* mrow = Gf256::mul_row(f);
            for (int j = 0; j <= s; ++j) aug.at(r, j) ^= mrow[aug.at(row, j)];
        }
        pivot_col_of_row[static_cast<std::size_t>(row)] = col;
        ++row;
    }

    // Consistency: rows below the pivot rows must have zero RHS.
    for (int r = row; r < kk; ++r) {
        if (aug.at(r, s) != 0) {
            return Error::undecodable("target element is not in the span of the given sources");
        }
    }

    ElementRepair repair;
    repair.target_position = target;
    repair.terms.reserve(static_cast<std::size_t>(row));
    for (int r = 0; r < row; ++r) {
        const int col = pivot_col_of_row[static_cast<std::size_t>(r)];
        const std::uint8_t c = aug.at(r, s);
        if (c != 0) repair.terms.push_back({sources[static_cast<std::size_t>(col)], c});
    }
    return repair;
}

Result<DecodePlan> ErasureCode::plan_decode(const std::vector<int>& available, const std::vector<int>& wanted) const {
    std::vector<bool> have(static_cast<std::size_t>(n()), false);
    for (int a : available) have[static_cast<std::size_t>(a)] = true;

    DecodePlan plan;
    for (int w : wanted) {
        if (have[static_cast<std::size_t>(w)]) continue;
        auto repair = solve_repair(w, available);
        if (!repair.ok()) {
            return Error::undecodable("position " + std::to_string(w) + " unrecoverable from available set");
        }
        plan.repairs.push_back(std::move(repair).take());
    }
    return plan;
}

void ErasureCode::apply_repair(const ElementRepair& repair, std::span<const ByteSpan> buffers,
                               ThreadPool* pool) {
    // One fused single-destination pass (the target never appears among
    // its own sources, so in-place repair is safe). Source tables up to
    // kInlineTerms stay on the stack.
    constexpr std::size_t kInlineTerms = 64;
    const std::size_t k = repair.terms.size();
    ConstByteSpan inline_srcs[kInlineTerms];
    std::uint8_t inline_coeffs[kInlineTerms];
    std::vector<ConstByteSpan> big_srcs;
    std::vector<std::uint8_t> big_coeffs;
    ConstByteSpan* srcs = inline_srcs;
    std::uint8_t* coeffs = inline_coeffs;
    if (k > kInlineTerms) {
        big_srcs.resize(k);
        big_coeffs.resize(k);
        srcs = big_srcs.data();
        coeffs = big_coeffs.data();
    }
    for (std::size_t j = 0; j < k; ++j) {
        srcs[j] = buffers[static_cast<std::size_t>(repair.terms[j].source_position)];
        coeffs[j] = repair.terms[j].coeff;
    }
    const ByteSpan dst = buffers[static_cast<std::size_t>(repair.target_position)];
    gf::encode_regions(std::span<const ConstByteSpan>(srcs, k), std::span<const ByteSpan>(&dst, 1),
                       coeffs, pool);
}

void ErasureCode::apply_plan(const DecodePlan& plan, std::span<const ByteSpan> buffers,
                             ThreadPool* pool) {
    for (const auto& repair : plan.repairs) apply_repair(repair, buffers, pool);
}

}  // namespace ecfrm::codes
