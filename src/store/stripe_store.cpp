#include "store/stripe_store.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "common/aligned_buffer.h"
#include "gf/kernels.h"
#include "gf/region.h"
#include "store/io_backend.h"

namespace ecfrm::store {

using core::AccessPlan;
using core::WritePlan;
using layout::GroupCoord;

namespace {

/// Finish a store request's trace (a no-op when untraced). A success
/// closes the root on its last phase's boundary, so the phase durations
/// sum exactly to the request's end-to-end latency; a failure closes it
/// now, with the error on the root.
void finish_request(obs::RequestForensics* forensics,
                    const std::shared_ptr<obs::RequestTrace>& rt, const Status& status) {
    if (rt == nullptr) return;
    if (status.ok()) {
        forensics->finish_at(rt, true, rt->phase_cursor_us());
        return;
    }
    rt->attr(obs::RequestTrace::kRoot, "error", status.error().message);
    forensics->finish(rt, false);
}

}  // namespace

StripeStore::StripeStore(core::Scheme scheme, std::int64_t element_bytes, ThreadPool* pool)
    : scheme_(std::move(scheme)),
      element_bytes_(element_bytes),
      pool_(pool),
      executor_(&scheme_, element_bytes, pool) {
    disks_.reserve(static_cast<std::size_t>(scheme_.disks()));
    for (int d = 0; d < scheme_.disks(); ++d) {
        disks_.push_back(std::make_unique<Disk>(element_bytes_));
    }
    rebuilding_.assign(static_cast<std::size_t>(scheme_.disks()), 0);
    bind_executor();
}

Result<std::unique_ptr<StripeStore>> StripeStore::open(core::Scheme scheme, std::int64_t element_bytes,
                                                       const DeviceFactory& factory, ThreadPool* pool) {
    auto store = std::unique_ptr<StripeStore>(new StripeStore(std::move(scheme), element_bytes, pool));
    store->disks_.clear();
    for (int d = 0; d < store->scheme_.disks(); ++d) {
        auto device = factory(d);
        if (!device.ok()) return device.error();
        if (device.value()->element_bytes() != element_bytes) {
            return Error::invalid("device " + std::to_string(d) + " has mismatched element size");
        }
        store->disks_.push_back(std::move(device).take());
    }
    store->bind_executor();
    return store;
}

void StripeStore::bind_executor() {
    std::vector<BlockDevice*> devices;
    devices.reserve(disks_.size());
    for (auto& disk : disks_) devices.push_back(disk.get());
    executor_.bind(std::move(devices));
    // Staging buffers come from the process-lifetime element arena: when
    // the devices are uring-backed the same arena is registered with
    // their rings, so staged reads are READ_FIXED-eligible, and orphaned
    // hedge queues can hold arena buffers past this store's lifetime.
    arena_ = element_arena(element_bytes_);
    executor_.set_buffer_pool(arena_);
}

void StripeStore::attach_observability(obs::MetricRegistry* metrics,
                                       obs::RequestForensics* forensics,
                                       obs::DiskHeatModel* heat) {
    StoreObs fresh;
    exec::ExecutorMetrics exec_metrics;
    fresh.forensics = forensics;
    fresh.heat = heat;
    if (metrics == nullptr) {
        for (auto& disk : disks_) disk->attach_io_stats({});
    } else {
        for (int d = 0; d < scheme_.disks(); ++d) {
            disks_[static_cast<std::size_t>(d)]->attach_io_stats(metrics->disk_io_stats(d));
        }
        fresh.reads_total = &metrics->counter("ecfrm_store_reads_total");
        fresh.degraded_reads_total = &metrics->counter("ecfrm_store_degraded_reads_total");
        fresh.read_elements_total = &metrics->counter("ecfrm_store_read_elements_total");
        fresh.writes_total = &metrics->counter("ecfrm_store_writes_total");
        fresh.overwrites_total = &metrics->counter("ecfrm_store_overwrites_total");
        fresh.read_fanout = &metrics->histogram("ecfrm_store_read_fanout_disks");
        fresh.read_max_load = &metrics->histogram("ecfrm_store_read_max_disk_load");
        fresh.write_max_load = &metrics->histogram("ecfrm_store_write_max_disk_load");
        exec_metrics.decodes = &metrics->counter("ecfrm_store_decodes_total");
        exec_metrics.retries = &metrics->counter("ecfrm_store_retries_total");
        exec_metrics.timeouts = &metrics->counter("ecfrm_store_timeouts_total");
        exec_metrics.replans = &metrics->counter("ecfrm_store_replans_total");
        exec_metrics.hedged_reads = &metrics->counter("ecfrm_store_hedged_reads_total");
        exec_metrics.writes = &metrics->counter("ecfrm_store_write_elements_total");
        exec_metrics.degraded_writes = &metrics->counter("ecfrm_store_degraded_write_elements_total");
    }
    executor_.attach(exec_metrics, heat);
    auto bundle = std::make_unique<const StoreObs>(fresh);
    const StoreObs* published = bundle.get();
    {
        std::lock_guard<std::mutex> lock(obs_mu_);
        retired_obs_.push_back(std::move(bundle));
    }
    obs_.store(published, std::memory_order_release);
}

std::shared_lock<std::shared_mutex> StripeStore::reader_lock() const {
    // Hold back only while an exclusive acquirer is announced: the gate
    // turns the pthread rwlock's reader preference into bounded-wait
    // writer preference without touching the common (uncontended) path.
    if (writers_waiting_.load(std::memory_order_acquire) > 0) {
        std::unique_lock<std::mutex> gate(gate_mu_);
        gate_cv_.wait(gate, [this] {
            return writers_waiting_.load(std::memory_order_acquire) == 0;
        });
    }
    return std::shared_lock<std::shared_mutex>(mu_);
}

std::unique_lock<std::shared_mutex> StripeStore::exclusive_lock() const {
    writers_waiting_.fetch_add(1, std::memory_order_acq_rel);
    std::unique_lock<std::shared_mutex> lk(mu_);
    // Lift the gate as soon as the lock is held: late readers queue on
    // mu_ itself and flow the moment this window closes.
    if (writers_waiting_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> gate(gate_mu_);
        gate_cv_.notify_all();
    }
    return lk;
}

Status StripeStore::restore(std::vector<Extent> extents, StripeId stripes) {
    std::lock_guard<std::mutex> wl(writer_mu_);
    auto lk = exclusive_lock();
    return restore_locked(std::move(extents), stripes);
}

Status StripeStore::restore_locked(std::vector<Extent> extents, StripeId stripes) {
    if (stripes < 0) return Error::invalid("negative stripe count");
    if (!pending_.empty()) return Error::invalid("restore on a store with buffered writes");
    if (!unencoded_.empty()) return Error::invalid("restore on a store with pending parity");
    const std::int64_t capacity_elems = stripes * scheme_.layout().data_per_stripe();

    std::int64_t logical = 0;
    ElementId min_element = 0;
    for (const auto& e : extents) {
        if (e.logical_start != logical || e.bytes < 0 || e.element_start < min_element) {
            return Error::invalid("extents must be non-negative, logically contiguous and non-overlapping");
        }
        const std::int64_t elems = (e.bytes + element_bytes_ - 1) / element_bytes_;
        if (e.element_start + elems > capacity_elems) {
            return Error::invalid("extent exceeds stripe capacity");
        }
        logical += e.bytes;
        min_element = e.element_start + elems;
    }
    extents_ = std::move(extents);
    logical_bytes_ = logical;
    stripes_ = stripes;
    return Status::success();
}

Status StripeStore::restore(std::int64_t logical_bytes, StripeId stripes) {
    if (logical_bytes < 0) return Error::invalid("negative restore state");
    std::vector<Extent> extents;
    if (logical_bytes > 0) extents.push_back({0, 0, logical_bytes});
    std::lock_guard<std::mutex> wl(writer_mu_);
    auto lk = exclusive_lock();
    return restore_locked(std::move(extents), stripes);
}

std::int64_t StripeStore::logical_bytes() const {
    auto lk = reader_lock();
    return logical_bytes_;
}

std::int64_t StripeStore::committed_bytes() const {
    auto lk = reader_lock();
    return committed_bytes_locked();
}

std::int64_t StripeStore::stored_data_elements() const {
    auto lk = reader_lock();
    return stored_data_elements_locked();
}

std::int64_t StripeStore::unencoded_stripes() const {
    auto lk = reader_lock();
    return static_cast<std::int64_t>(unencoded_.size());
}

Status StripeStore::append(ConstByteSpan data) {
    std::lock_guard<std::mutex> wl(writer_mu_);
    const std::int64_t stripe_bytes = stripe_data_bytes();
    pending_.insert(pending_.end(), data.begin(), data.end());
    {
        auto lk = exclusive_lock();
        logical_bytes_ += static_cast<std::int64_t>(data.size());
    }
    while (static_cast<std::int64_t>(pending_.size()) >= stripe_bytes) {
        auto committed = commit_stripe(
            ConstByteSpan(pending_.data(), static_cast<std::size_t>(stripe_bytes)), stripe_bytes,
            /*with_parity=*/true);
        if (!committed.ok()) return committed.error();
        pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(stripe_bytes));
    }
    return Status::success();
}

Status StripeStore::flush() {
    std::lock_guard<std::mutex> wl(writer_mu_);
    if (pending_.empty()) return Status::success();
    const std::int64_t stripe_bytes = stripe_data_bytes();
    const auto user_bytes = static_cast<std::int64_t>(pending_.size());
    pending_.resize(static_cast<std::size_t>(stripe_bytes), 0);
    auto committed = commit_stripe(
        ConstByteSpan(pending_.data(), static_cast<std::size_t>(stripe_bytes)), user_bytes,
        /*with_parity=*/true);
    if (!committed.ok()) {
        // Trim the padding back off: a later append must land right
        // after the user's bytes, not after the zeros.
        pending_.resize(static_cast<std::size_t>(user_bytes));
        return committed.error();
    }
    pending_.clear();
    return Status::success();
}

Result<StripeId> StripeStore::commit_data_stripe(ConstByteSpan stripe_data, std::int64_t user_bytes) {
    if (static_cast<std::int64_t>(stripe_data.size()) != stripe_data_bytes()) {
        return Error::invalid("commit_data_stripe needs exactly one stripe of data");
    }
    if (user_bytes < 0 || user_bytes > stripe_data_bytes()) {
        return Error::invalid("user byte count out of range for one stripe");
    }
    std::lock_guard<std::mutex> wl(writer_mu_);
    if (!pending_.empty()) {
        return Error::invalid("commit_data_stripe on a store with a buffered tail");
    }
    {
        auto lk = exclusive_lock();
        logical_bytes_ += user_bytes;
    }
    auto committed = commit_stripe(stripe_data, user_bytes, /*with_parity=*/false);
    if (!committed.ok()) {
        auto lk = exclusive_lock();
        logical_bytes_ -= user_bytes;
    }
    return committed;
}

Status StripeStore::compute_stripe_parity(ConstByteSpan stripe_data,
                                          std::vector<AlignedBuffer>& parity_bufs) const {
    const auto& code = scheme_.code();
    const int groups = scheme_.layout().groups_per_stripe();
    const int k = code.k();
    const int m = code.m();
    parity_bufs.clear();
    parity_bufs.reserve(static_cast<std::size_t>(groups) * static_cast<std::size_t>(m));
    // encode() overwrites every parity byte, so the buffers start
    // uninitialised.
    for (int i = 0; i < groups * m; ++i) {
        parity_bufs.push_back(AlignedBuffer::uninitialized(static_cast<std::size_t>(element_bytes_)));
    }
    auto encode_group = [&](std::size_t g) {
        std::vector<ConstByteSpan> data(static_cast<std::size_t>(k));
        for (int t = 0; t < k; ++t) {
            const std::int64_t idx = static_cast<std::int64_t>(g) * k + t;
            data[static_cast<std::size_t>(t)] =
                stripe_data.subspan(static_cast<std::size_t>(idx * element_bytes_),
                                    static_cast<std::size_t>(element_bytes_));
        }
        std::vector<ByteSpan> parity(static_cast<std::size_t>(m));
        for (int p = 0; p < m; ++p) {
            parity[static_cast<std::size_t>(p)] = parity_bufs[g * static_cast<std::size_t>(m) +
                                                              static_cast<std::size_t>(p)]
                                                      .span();
        }
        code.encode(data, parity, pool_);
    };
    if (pool_ != nullptr && groups > 1) {
        parallel_for(*pool_, static_cast<std::size_t>(groups), encode_group);
        return Status::success();
    }
    for (int g = 0; g < groups; ++g) encode_group(static_cast<std::size_t>(g));
    return Status::success();
}

Result<StripeId> StripeStore::commit_stripe(ConstByteSpan stripe_data, std::int64_t user_bytes,
                                            bool with_parity) {
    // Caller holds writer_mu_ and NOT mu_. Only writers advance stripes_,
    // and they are serialised on writer_mu_, so reading it lock-free here
    // is race-free; readers never observe the stripe until the manifest
    // window below publishes it under the exclusive lock.
    const StripeId stripe = stripes_;
    const auto& code = scheme_.code();
    const int groups = scheme_.layout().groups_per_stripe();
    const int k = code.k();
    const int m = code.m();

    const StoreObs& o = store_obs();
    if (o.writes_total != nullptr) o.writes_total->add(1);

    std::shared_ptr<obs::RequestTrace> rt;
    if (o.forensics != nullptr) {
        rt = o.forensics->start(obs::RequestClass::write);
        rt->attr_all(obs::RequestTrace::kRoot,
                     {{"stripe", stripe}, {"user_bytes", user_bytes}});
        if (!with_parity) rt->attr(obs::RequestTrace::kRoot, "parity", "pending");
    }

    auto run = [&]() -> Status {
        std::vector<AlignedBuffer> parity_bufs;
        if (with_parity) {
            const std::uint32_t encode_node = rt != nullptr ? rt->begin_phase("encode") : 0;
            auto status = compute_stripe_parity(stripe_data, parity_bufs);
            if (rt != nullptr) {
                rt->end_with(encode_node, {{"groups", static_cast<std::int64_t>(groups)}});
            }
            if (!status.ok()) return status;
        }

        // One batched plan for the whole stripe: every data placement, and
        // (when encoding inline) every parity placement, grouped per disk
        // by the executor's submission queues.
        WritePlan plan(scheme_.disks());
        std::vector<ConstByteSpan> payloads;
        payloads.reserve(static_cast<std::size_t>(groups) *
                         static_cast<std::size_t>(with_parity ? k + m : k));
        for (int g = 0; g < groups; ++g) {
            for (int t = 0; t < k; ++t) {
                const GroupCoord coord{stripe, g, t};
                const std::int64_t idx = static_cast<std::int64_t>(g) * k + t;
                plan.add_write({scheme_.layout().locate(coord), coord, payloads.size(), false});
                payloads.push_back(stripe_data.subspan(static_cast<std::size_t>(idx * element_bytes_),
                                                       static_cast<std::size_t>(element_bytes_)));
            }
        }
        if (with_parity) {
            for (int g = 0; g < groups; ++g) {
                for (int p = 0; p < m; ++p) {
                    const GroupCoord coord{stripe, g, k + p};
                    plan.add_write({scheme_.layout().locate(coord), coord, payloads.size(), true});
                    payloads.push_back(parity_bufs[static_cast<std::size_t>(g) *
                                                       static_cast<std::size_t>(m) +
                                                   static_cast<std::size_t>(p)]
                                           .span());
                }
            }
        }
        if (o.write_max_load != nullptr) o.write_max_load->record(plan.max_load());

        const std::uint32_t write_node = rt != nullptr ? rt->begin_phase("write") : 0;
        auto wrote = executor_.write(plan, payloads, {rt.get(), write_node},
                                     /*allow_degraded=*/true);
        if (rt != nullptr) {
            rt->end_with(write_node,
                         {{"elements", wrote.ok() ? wrote.value().elements_written : 0},
                          {"skipped", wrote.ok() ? wrote.value().elements_skipped : 0}});
        }
        if (!wrote.ok()) return wrote.error();

        // Manifest window: the only slice of a commit that excludes
        // readers.
        const std::uint32_t commit_node = rt != nullptr ? rt->begin_phase("commit") : 0;
        {
            auto lk = exclusive_lock();
            const ElementId first = stripe * scheme_.layout().data_per_stripe();
            // Extend the previous extent when it ends exactly on this
            // stripe's first element (no padding gap in between).
            bool extended = false;
            if (!extents_.empty()) {
                Extent& last = extents_.back();
                if (last.bytes % element_bytes_ == 0 &&
                    last.element_start + last.bytes / element_bytes_ == first) {
                    last.bytes += user_bytes;
                    extended = true;
                }
            }
            if (!extended) extents_.push_back({committed_bytes_locked(), first, user_bytes});
            ++stripes_;
            if (!with_parity) unencoded_.insert(stripe);
        }
        if (rt != nullptr) rt->end(commit_node);
        return Status::success();
    };

    auto status = run();
    finish_request(o.forensics, rt, status);
    if (!status.ok()) return status.error();
    return stripe;
}

Status StripeStore::encode_stripe_parity(StripeId stripe, ConstByteSpan stripe_data) {
    if (static_cast<std::int64_t>(stripe_data.size()) != stripe_data_bytes()) {
        return Error::invalid("encode_stripe_parity needs exactly one stripe of data");
    }
    {
        auto lk = reader_lock();
        if (stripe < 0 || stripe >= stripes_) return Error::range("no such stripe");
        if (unencoded_.count(stripe) == 0) {
            return Error::invalid("stripe " + std::to_string(stripe) + " parity is not pending");
        }
    }
    const auto& code = scheme_.code();
    const int groups = scheme_.layout().groups_per_stripe();
    const int k = code.k();
    const int m = code.m();

    const StoreObs& o = store_obs();
    if (o.writes_total != nullptr) o.writes_total->add(1);

    std::shared_ptr<obs::RequestTrace> rt;
    if (o.forensics != nullptr) {
        rt = o.forensics->start(obs::RequestClass::write);
        rt->attr(obs::RequestTrace::kRoot, "stripe", stripe);
        rt->attr(obs::RequestTrace::kRoot, "parity", "flush");
    }

    auto run = [&]() -> Status {
        std::vector<AlignedBuffer> parity_bufs;
        {
            const std::uint32_t encode_node = rt != nullptr ? rt->begin_phase("encode") : 0;
            auto status = compute_stripe_parity(stripe_data, parity_bufs);
            if (rt != nullptr) {
                rt->end_with(encode_node, {{"groups", static_cast<std::int64_t>(groups)}});
            }
            if (!status.ok()) return status;
        }

        // Parity rows of a pending stripe are unreachable by every read
        // plan (degraded reads needing them fail typed at the guard), so
        // this write needs no reader exclusion at all.
        WritePlan plan(scheme_.disks());
        std::vector<ConstByteSpan> payloads;
        payloads.reserve(static_cast<std::size_t>(groups) * static_cast<std::size_t>(m));
        for (int g = 0; g < groups; ++g) {
            for (int p = 0; p < m; ++p) {
                const GroupCoord coord{stripe, g, k + p};
                plan.add_write({scheme_.layout().locate(coord), coord, payloads.size(), true});
                payloads.push_back(parity_bufs[static_cast<std::size_t>(g) *
                                                   static_cast<std::size_t>(m) +
                                               static_cast<std::size_t>(p)]
                                       .span());
            }
        }
        if (o.write_max_load != nullptr) o.write_max_load->record(plan.max_load());

        const std::uint32_t write_node = rt != nullptr ? rt->begin_phase("write") : 0;
        auto wrote = executor_.write(plan, payloads, {rt.get(), write_node},
                                     /*allow_degraded=*/true);
        if (rt != nullptr) {
            rt->end_with(write_node,
                         {{"elements", wrote.ok() ? wrote.value().elements_written : 0},
                          {"skipped", wrote.ok() ? wrote.value().elements_skipped : 0}});
        }
        if (!wrote.ok()) return wrote.error();

        const std::uint32_t commit_node = rt != nullptr ? rt->begin_phase("commit") : 0;
        {
            auto lk = exclusive_lock();
            unencoded_.erase(stripe);
        }
        if (rt != nullptr) rt->end(commit_node);
        return Status::success();
    };

    auto status = run();
    finish_request(o.forensics, rt, status);
    return status;
}

Status StripeStore::overwrite(std::int64_t offset, ConstByteSpan data) {
    // Overwrite mutates committed rows and their parities in place, so it
    // is the one write that excludes readers end to end.
    std::lock_guard<std::mutex> wl(writer_mu_);
    auto lk = exclusive_lock();
    const auto length = static_cast<std::int64_t>(data.size());
    if (offset < 0) return Error::range("negative offset");
    if (offset + length > committed_bytes_locked()) {
        return Error::range("overwrite must stay within committed bytes");
    }
    if (length == 0) return Status::success();
    const auto& code = scheme_.code();
    const auto& gen = code.generator();
    const int k = code.k();
    const int n = code.n();

    // Walk the committed extents and collect every touched element. Each
    // element appears at most once: extents are element-disjoint and the
    // walk advances a full chunk per step.
    struct Touch {
        GroupCoord coord;
        Location loc;
        std::int64_t in_elem = 0;  // first dirty byte within the element
        std::int64_t chunk = 0;    // dirty byte count
        std::int64_t src = 0;      // offset into `data`
    };
    std::vector<Touch> touches;
    std::int64_t consumed = 0;
    for (const Extent& e : extents_) {
        const std::int64_t e_end = e.logical_start + e.bytes;
        if (e_end <= offset) continue;
        if (e.logical_start >= offset + length) break;

        const std::int64_t lo = std::max(offset, e.logical_start) - e.logical_start;
        const std::int64_t hi = std::min(offset + length, e_end) - e.logical_start;
        for (std::int64_t pos = lo; pos < hi;) {
            const ElementId elem = e.element_start + pos / element_bytes_;
            const std::int64_t in_elem = pos % element_bytes_;
            const std::int64_t chunk = std::min(element_bytes_ - in_elem, hi - pos);
            const GroupCoord coord = scheme_.layout().coord_of_data(elem);
            touches.push_back({coord, scheme_.layout().locate(coord), in_elem, chunk, consumed});
            pos += chunk;
            consumed += chunk;
        }
    }
    if (consumed != length) return Error::internal("overwrite extent walk consumed wrong byte count");
    if (touches.empty()) return Status::success();

    // The parity set per touched group: every parity position with a
    // nonzero generator coefficient over some touched data position.
    std::map<std::pair<StripeId, int>, std::set<int>> group_parities;
    for (const Touch& t : touches) {
        auto& used = group_parities[{t.coord.stripe, t.coord.group}];
        for (int p = k; p < n; ++p) {
            if (gen.at(p, t.coord.position) != 0) used.insert(p);
        }
    }

    // RMW folds deltas into live parity, so the touched stripes' parity
    // must exist, and every participating disk must be writable.
    for (const Touch& t : touches) {
        if (unencoded_.count(t.coord.stripe) != 0) {
            return Error::invalid("overwrite requires encoded parity; stripe " +
                                  std::to_string(t.coord.stripe) +
                                  " is parity-pending (online encode backlog)");
        }
    }
    std::vector<DiskId> unavailable_disks;
    unavailable_disks_locked(unavailable_disks);
    std::vector<char> unavailable(static_cast<std::size_t>(scheme_.disks()), 0);
    for (DiskId d : unavailable_disks) unavailable[static_cast<std::size_t>(d)] = 1;
    auto writable = [&](const Location& loc) { return unavailable[static_cast<std::size_t>(loc.disk)] == 0; };
    for (const Touch& t : touches) {
        if (!writable(t.loc)) {
            return Error::disk_failed("overwrite touches unavailable disk " +
                                      std::to_string(t.loc.disk));
        }
    }
    for (const auto& [sg, positions] : group_parities) {
        for (int p : positions) {
            const Location ploc = scheme_.layout().locate({sg.first, sg.second, p});
            if (!writable(ploc)) {
                return Error::disk_failed("overwrite parity lives on unavailable disk " +
                                          std::to_string(ploc.disk));
            }
        }
    }

    const StoreObs& o = store_obs();
    if (o.overwrites_total != nullptr) o.overwrites_total->add(1);

    std::shared_ptr<obs::RequestTrace> rt;
    if (o.forensics != nullptr) {
        rt = o.forensics->start(obs::RequestClass::write);
        rt->attr_all(obs::RequestTrace::kRoot,
                     {{"offset", offset},
                      {"bytes", length},
                      {"elements", static_cast<std::int64_t>(touches.size())}});
    }

    auto run = [&]() -> Status {
        // FETCH: old data and touched parities, one batched plan. The
        // fixed replanner refuses recovery rounds — a disk dying
        // mid-overwrite aborts the RMW rather than folding into a moved
        // parity set.
        auto replanner = [&](const std::vector<DiskId>& excl, AccessPlan& rplan) -> Status {
            if (!excl.empty()) {
                return Error::disk_failed("disk failed mid-overwrite; read-modify-write aborted");
            }
            rplan.reset(scheme_.disks());
            for (const Touch& t : touches) rplan.add_fetch({t.loc, t.coord, true});
            for (const auto& [sg, positions] : group_parities) {
                for (int p : positions) {
                    const GroupCoord coord{sg.first, sg.second, p};
                    rplan.add_fetch({scheme_.layout().locate(coord), coord, false});
                }
            }
            rplan.set_requested(static_cast<std::int64_t>(touches.size()));
            return Status::success();
        };
        exec::ScratchLease scratch;
        auto fetched = executor_.fetch(*scratch, replanner, rt.get());
        if (!fetched.ok()) return fetched;
        const exec::ElementTable& elements = scratch->elements;
        auto element_of = [&](const GroupCoord& coord) {
            return elements.find(exec::PlanExecutor::key_of(coord));
        };

        // FOLD: new_data = old patched with the dirty bytes; per group,
        // delta_j = old_j ^ new_j and parity_p ^= sum_j coeff_pj * delta_j
        // via one fused multi-source pass into scratch, XORed into the
        // fetched parity in place.
        const std::uint32_t fold_node = rt != nullptr ? rt->begin_phase("fold") : 0;
        std::vector<AlignedBuffer> new_data;
        new_data.reserve(touches.size());
        for (const Touch& t : touches) {
            const ByteSpan old_elem = element_of(t.coord);
            if (old_elem.empty()) return Error::internal("overwrite fetch missing data element");
            AlignedBuffer nd(static_cast<std::size_t>(element_bytes_));
            std::memcpy(nd.data(), old_elem.data(), static_cast<std::size_t>(element_bytes_));
            std::memcpy(nd.data() + t.in_elem, data.data() + t.src,
                        static_cast<std::size_t>(t.chunk));
            new_data.push_back(std::move(nd));
        }
        std::int64_t parity_folds = 0;
        for (const auto& [sg, positions] : group_parities) {
            std::vector<std::size_t> tidx;
            for (std::size_t i = 0; i < touches.size(); ++i) {
                if (touches[i].coord.stripe == sg.first && touches[i].coord.group == sg.second) {
                    tidx.push_back(i);
                }
            }
            std::vector<AlignedBuffer> deltas;
            std::vector<ConstByteSpan> delta_spans;
            deltas.reserve(tidx.size());
            delta_spans.reserve(tidx.size());
            for (std::size_t i : tidx) {
                const ByteSpan old_elem = element_of(touches[i].coord);
                AlignedBuffer d(static_cast<std::size_t>(element_bytes_));
                std::memcpy(d.data(), old_elem.data(), static_cast<std::size_t>(element_bytes_));
                gf::xor_region(d.span(), new_data[i].span());
                deltas.push_back(std::move(d));
            }
            for (const AlignedBuffer& d : deltas) delta_spans.push_back(d.span());
            std::vector<std::uint8_t> coeffs;
            coeffs.reserve(positions.size() * tidx.size());
            for (int p : positions) {
                for (std::size_t i : tidx) coeffs.push_back(gen.at(p, touches[i].coord.position));
            }
            std::vector<AlignedBuffer> scratch;
            std::vector<ByteSpan> scratch_spans;
            scratch.reserve(positions.size());
            for (std::size_t p = 0; p < positions.size(); ++p) {
                scratch.emplace_back(static_cast<std::size_t>(element_bytes_));
            }
            for (AlignedBuffer& s : scratch) scratch_spans.push_back(s.span());
            gf::encode_regions(delta_spans, scratch_spans, coeffs.data(), pool_);
            std::size_t pi = 0;
            for (int p : positions) {
                const ByteSpan parity = element_of({sg.first, sg.second, p});
                if (parity.empty()) return Error::internal("overwrite fetch missing parity element");
                gf::xor_region(parity, scratch[pi].span());
                ++pi;
                ++parity_folds;
            }
        }
        if (rt != nullptr) {
            rt->end_with(fold_node, {{"elements", static_cast<std::int64_t>(touches.size())},
                                     {"parities", parity_folds}});
        }

        // WRITE: new data and folded parities, one batched plan. No
        // degraded skips: availability was proven above, and a failure
        // now must surface (a silently skipped parity write would leave
        // the group inconsistent).
        WritePlan wplan(scheme_.disks());
        std::vector<ConstByteSpan> payloads;
        for (std::size_t i = 0; i < touches.size(); ++i) {
            wplan.add_write({touches[i].loc, touches[i].coord, payloads.size(), false});
            payloads.push_back(new_data[i].span());
        }
        for (const auto& [sg, positions] : group_parities) {
            for (int p : positions) {
                const GroupCoord coord{sg.first, sg.second, p};
                wplan.add_write({scheme_.layout().locate(coord), coord, payloads.size(), true});
                payloads.push_back(element_of(coord));
            }
        }
        if (o.write_max_load != nullptr) o.write_max_load->record(wplan.max_load());
        const std::uint32_t write_node = rt != nullptr ? rt->begin_phase("write") : 0;
        auto wrote = executor_.write(wplan, payloads, {rt.get(), write_node},
                                     /*allow_degraded=*/false);
        if (rt != nullptr) {
            rt->end_with(write_node,
                         {{"elements", wrote.ok() ? wrote.value().elements_written : 0}});
        }
        if (!wrote.ok()) return wrote.error();
        return Status::success();
    };

    auto status = run();
    finish_request(o.forensics, rt, status);
    return status;
}

Result<std::vector<std::uint8_t>> StripeStore::read_bytes(std::int64_t offset, std::int64_t length) {
    auto lk = reader_lock();
    if (offset < 0 || length < 0) return Error::range("negative read range");
    if (offset + length > committed_bytes_locked()) {
        if (offset + length <= logical_bytes_) {
            return Error::invalid("range still buffered; call flush() before reading");
        }
        return Error::range("read beyond logical size");
    }
    std::vector<std::uint8_t> out(static_cast<std::size_t>(length));
    if (length == 0) return out;

    // Walk the committed extents overlapping [offset, offset + length).
    // Whole elements are fetched (or decoded) straight into `out`; only
    // an element the range cuts — at most a head and a tail per extent —
    // lands in arena staging and has its wanted part copied across.
    const auto eb = static_cast<std::size_t>(element_bytes_);
    std::int64_t produced = 0;
    for (const Extent& e : extents_) {
        const std::int64_t e_end = e.logical_start + e.bytes;
        if (e_end <= offset) continue;
        if (e.logical_start >= offset + length) break;

        const std::int64_t lo = std::max(offset, e.logical_start) - e.logical_start;
        const std::int64_t hi = std::min(offset + length, e_end) - e.logical_start;
        const ElementId first = e.element_start + lo / element_bytes_;
        const ElementId last = e.element_start + (hi - 1) / element_bytes_;
        const std::int64_t count = last - first + 1;
        const std::int64_t skip = lo % element_bytes_;
        // Bytes of the last element the range keeps.
        const std::int64_t tail_bytes = hi - (last - e.element_start) * element_bytes_;

        ReadDest dest;
        dest.body = ByteSpan(out.data() + produced, static_cast<std::size_t>(hi - lo));
        dest.skip = skip;
        PooledBuffer head;
        PooledBuffer tail;
        if (skip != 0 || (count == 1 && tail_bytes < element_bytes_)) {
            head = staging_buffer(eb, arena_);
            dest.head = head.span().first(eb);
        }
        if (count > 1 && tail_bytes < element_bytes_) {
            tail = staging_buffer(eb, arena_);
            dest.tail = tail.span().first(eb);
        }
        auto status = read_elements_locked(first, count, dest);
        if (!status.ok()) return status.error();

        std::int64_t copies = 0;
        if (!dest.head.empty()) {
            const std::int64_t n = std::min(hi - lo, element_bytes_ - skip);
            std::memcpy(dest.body.data(), head.data() + skip, static_cast<std::size_t>(n));
            ++copies;
        }
        if (!dest.tail.empty()) {
            std::memcpy(dest.body.data() + dest.body.size() - static_cast<std::size_t>(tail_bytes),
                        tail.data(), static_cast<std::size_t>(tail_bytes));
            ++copies;
        }
        if (copies > 0) assemble_copies_.fetch_add(copies, std::memory_order_relaxed);
        produced += hi - lo;
    }
    if (produced != length) return Error::internal("extent walk produced wrong byte count");
    return out;
}

Status StripeStore::read_elements(ElementId start, std::int64_t count, ByteSpan out) {
    auto lk = reader_lock();
    if (start < 0 || count < 0 || start + count > stored_data_elements_locked()) {
        return Error::range("element range beyond stored data");
    }
    if (static_cast<std::int64_t>(out.size()) != count * element_bytes_) {
        return Error::invalid("output buffer size mismatch");
    }
    return read_elements_locked(start, count, ReadDest{out});
}

ByteSpan StripeStore::ReadDest::at(std::int64_t i, std::int64_t count,
                                   std::int64_t element_bytes) const {
    if (i == 0 && !head.empty()) return head;
    if (i == count - 1 && !tail.empty()) return tail;
    return body.subspan(static_cast<std::size_t>(i * element_bytes - skip),
                        static_cast<std::size_t>(element_bytes));
}

Status StripeStore::read_elements_locked(ElementId start, std::int64_t count, const ReadDest& dest) {
    if (count == 0) return Status::success();

    const StoreObs& o = store_obs();
    if (o.reads_total != nullptr) o.reads_total->add(1);
    if (o.read_elements_total != nullptr) o.read_elements_total->add(count);

    return execute_read(start, count, dest);
}

Status StripeStore::execute_read(ElementId start, std::int64_t count, const ReadDest& dest) {
    const StoreObs& o = store_obs();
    exec::ScratchLease scratch;
    const std::vector<DiskId>& excluded = scratch->excluded;
    unavailable_disks_locked(scratch->excluded);

    // Request forensics: give the read a traced identity. The executor
    // appends contiguous plan/fetch phase spans per round; decode and
    // assemble are added below, so the root's direct children tile the
    // request end to end and phase attribution sums to its latency.
    std::shared_ptr<obs::RequestTrace> rt;
    if (o.forensics != nullptr) {
        rt = o.forensics->start(excluded.empty() ? obs::RequestClass::normal
                                                 : obs::RequestClass::degraded);
        rt->attr_all(obs::RequestTrace::kRoot, {{"start", start}, {"count", count}});
        if (!excluded.empty()) {
            rt->attr(obs::RequestTrace::kRoot, "excluded",
                     static_cast<std::int64_t>(excluded.size()));
        }
    }
    auto status = execute_read_traced(start, count, dest, *scratch, rt.get());
    finish_request(o.forensics, rt, status);
    return status;
}

Status StripeStore::execute_read_traced(ElementId start, std::int64_t count, const ReadDest& dest,
                                        exec::RequestScratch& s, obs::RequestTrace* rt) {
    const StoreObs& o = store_obs();

    // A degraded read of an element whose stripe is still parity-pending
    // cannot be decoded — there is no parity yet. Fail typed before
    // planning (and re-check whenever the exclusion set grows mid-flight;
    // unencoded_ cannot change under us, its mutations take mu_
    // exclusively and reads hold it shared).
    auto pending_guard = [&](const std::vector<DiskId>& excl) -> Status {
        if (excl.empty() || unencoded_.empty()) return Status::success();
        std::vector<char> mask(static_cast<std::size_t>(scheme_.disks()), 0);
        for (DiskId d : excl) mask[static_cast<std::size_t>(d)] = 1;
        for (std::int64_t i = 0; i < count; ++i) {
            const GroupCoord coord = scheme_.layout().coord_of_data(start + i);
            if (unencoded_.count(coord.stripe) == 0) continue;
            const Location loc = scheme_.layout().locate(coord);
            if (mask[static_cast<std::size_t>(loc.disk)] != 0) {
                return Error::beyond_tolerance(
                    "element on unavailable disk " + std::to_string(loc.disk) +
                    " cannot be decoded: stripe " + std::to_string(coord.stripe) +
                    " parity is pending (online encode backlog)");
            }
        }
        return Status::success();
    };

    // Plan against the current exclusion set; a pattern the code cannot
    // decode is the read path's terminal "beyond tolerance" diagnosis.
    // Load-shape histograms describe the intended plan (first round);
    // the recovery rounds are accounted by the executor's
    // retry/replan counters.
    bool first_plan = true;
    auto replanner = [&](const std::vector<DiskId>& excl, AccessPlan& plan) -> Status {
        auto guarded = pending_guard(excl);
        if (!guarded.ok()) return guarded;
        if (excl.empty()) {
            core::plan_normal_read(scheme_, start, count, plan);
        } else {
            if (o.degraded_reads_total != nullptr) o.degraded_reads_total->add(1);
            // Health-aware planning: flagged stragglers lose repair-source
            // ties, so degraded reads drift off slow disks as the heat
            // window observes them.
            std::span<const char> stragglers;
            if (o.heat != nullptr) {
                s.stragglers.resize(static_cast<std::size_t>(scheme_.disks()));
                o.heat->straggler_mask(obs::DiskHeatModel::now_seconds(), s.stragglers);
                stragglers = s.stragglers;
            }
            auto planned = core::plan_degraded_read(scheme_, start, count, excl,
                                                    core::DegradedPolicy::local_first, stragglers,
                                                    s.planner, plan);
            if (!planned.ok()) {
                if (planned.error().code == Error::Code::undecodable) {
                    return Error::beyond_tolerance(
                        "read cannot be planned around " + std::to_string(excl.size()) +
                        " unavailable disks: " + planned.error().message);
                }
                return planned;
            }
        }
        if (first_plan) {
            first_plan = false;
            if (o.read_max_load != nullptr) o.read_max_load->record(plan.max_load());
            if (o.read_fanout != nullptr) o.read_fanout->record(plan.fanout());
        }
        return Status::success();
    };

    // Zero-copy sink: a requested data element lands directly in its
    // destination — fetched there by the device, or decoded there — so
    // the healthy path's assemble stage has nothing to copy. Requested
    // means a data position whose logical id falls in the range. Repair
    // sources, parities and hedge-owned buffers stay in executor staging
    // (the sink returns an empty span for them).
    const layout::Layout& layout = scheme_.layout();
    const int k = layout.data_per_group();
    const std::int64_t per_stripe = layout.data_per_stripe();
    auto sink = [&](const exec::PlanExecutor::Key& key) -> ByteSpan {
        const auto [stripe, group, position] = key;
        if (position >= k) return {};
        // layout.data_id(), with the per-stripe count hoisted out.
        const ElementId id = stripe * per_stripe + static_cast<std::int64_t>(group) * k + position;
        if (id < start || id >= start + count) return {};
        return dest.at(id - start, count, element_bytes_);
    };

    auto fetched = executor_.fetch(s, replanner, rt, sink);
    if (!fetched.ok()) return fetched;

    // A read that grew its exclusion set mid-flight (or started with
    // one) is a degraded read, whatever class it started as.
    if (rt != nullptr && (!s.excluded.empty() || rt->replans() > 0)) {
        rt->set_class(obs::RequestClass::degraded);
    }

    // Run the decode recipes to materialise failed elements. Phase spans
    // (decode, assemble) chain off the previous phase's end via
    // begin_phase, so attribution tiles the request even when the thread
    // is preempted between two spans.
    {
        const std::uint32_t decode_node = rt != nullptr ? rt->begin_phase("decode") : 0;
        auto status = executor_.decode(s, {rt, decode_node}, sink);
        if (rt != nullptr) {
            rt->end_with(decode_node,
                         {{"decodes", static_cast<std::int64_t>(s.plan.decodes().size())}});
        }
        if (!status.ok()) return status;
    }

    // Assemble the user range in logical order. Elements routed through
    // the sink already sit in place — when all of them did, there is
    // nothing to walk; otherwise staged elements (hedged reads, elements
    // a recovery round landed in executor buffers) still copy.
    const std::uint32_t assemble_node = rt != nullptr ? rt->begin_phase("assemble") : 0;
    std::int64_t copies = 0;
    if (static_cast<std::int64_t>(s.elements.sunk()) != count) {
        for (std::int64_t i = 0; i < count; ++i) {
            const GroupCoord coord = layout.coord_of_data(start + i);
            const ByteSpan elem = s.elements.find(exec::PlanExecutor::key_of(coord));
            if (elem.empty()) {
                if (rt != nullptr) rt->end(assemble_node);
                return Error::internal("requested element missing after decode");
            }
            const ByteSpan to = dest.at(i, count, element_bytes_);
            if (elem.data() != to.data()) {
                std::memcpy(to.data(), elem.data(), to.size());
                ++copies;
            }
        }
    }
    if (copies > 0) assemble_copies_.fetch_add(copies, std::memory_order_relaxed);
    if (rt != nullptr) {
        rt->end_with(assemble_node, {{"elements", count}, {"staging_copies", copies}});
    }
    return Status::success();
}

Status StripeStore::fail_disk(DiskId disk) {
    if (disk < 0 || disk >= scheme_.disks()) return Error::range("no such disk");
    auto lk = exclusive_lock();
    disks_[static_cast<std::size_t>(disk)]->fail();
    return Status::success();
}

std::vector<DiskId> StripeStore::failed_disks() const {
    auto lk = reader_lock();
    return failed_disks_locked();
}

std::vector<DiskId> StripeStore::failed_disks_locked() const {
    std::vector<DiskId> failed;
    for (int d = 0; d < scheme_.disks(); ++d) {
        if (disks_[static_cast<std::size_t>(d)]->failed()) failed.push_back(d);
    }
    return failed;
}

void StripeStore::unavailable_disks_locked(std::vector<DiskId>& out) const {
    out.clear();
    for (int d = 0; d < scheme_.disks(); ++d) {
        if (disks_[static_cast<std::size_t>(d)]->failed() || rebuilding_[static_cast<std::size_t>(d)] != 0) {
            out.push_back(d);
        }
    }
}

std::vector<DiskId> StripeStore::rebuilding_disks() const {
    auto lk = reader_lock();
    std::vector<DiskId> out;
    for (int d = 0; d < scheme_.disks(); ++d) {
        if (rebuilding_[static_cast<std::size_t>(d)] != 0) out.push_back(d);
    }
    return out;
}

Status StripeStore::begin_rebuild(DiskId disk) {
    if (disk < 0 || disk >= scheme_.disks()) return Error::range("no such disk");
    // Serialising with writers means no stripe commit is mid-I/O while
    // the replacement swaps in: stripes committed after this window write
    // to the replacement directly, stripes committed before are fully
    // inside the row snapshot.
    std::lock_guard<std::mutex> wl(writer_mu_);
    auto lk = exclusive_lock();
    if (!disks_[static_cast<std::size_t>(disk)]->failed()) {
        return Error::invalid("disk is not failed; nothing to reconstruct");
    }
    if (rebuilds_.count(disk) != 0) {
        return Error::invalid("rebuild already in flight for disk " + std::to_string(disk));
    }
    if (!unencoded_.empty()) {
        return Error::invalid("begin_rebuild with parity-pending stripes; drain the encode backlog first");
    }
    disks_[static_cast<std::size_t>(disk)]->replace();
    if (disks_[static_cast<std::size_t>(disk)]->failed()) {
        return Error::disk_failed("replacement for disk " + std::to_string(disk) +
                                  " could not be brought online");
    }
    rebuilding_[static_cast<std::size_t>(disk)] = 1;
    rebuilds_[disk] = scheme_.rows_for(stripes_);
    return Status::success();
}

Result<RowId> StripeStore::rebuild_target_rows(DiskId disk) const {
    auto lk = reader_lock();
    auto it = rebuilds_.find(disk);
    if (it == rebuilds_.end()) {
        return Error::invalid("no rebuild in flight for disk " + std::to_string(disk));
    }
    return it->second;
}

Result<ReconstructStats> StripeStore::rebuild_rows(DiskId disk, RowId first, RowId count) {
    if (disk < 0 || disk >= scheme_.disks()) return Error::range("no such disk");
    if (first < 0 || count < 0) return Error::range("negative row range");
    auto lk = reader_lock();
    auto it = rebuilds_.find(disk);
    if (it == rebuilds_.end()) {
        return Error::invalid("no rebuild in flight for disk " + std::to_string(disk));
    }
    const RowId lo = std::min(first, it->second);
    const RowId hi = std::min(first + count, it->second);

    // Rounds end on stripe boundaries, so no group's rows (and the
    // sources they share) straddle two rounds.
    const int rows_per_stripe = scheme_.layout().rows_per_stripe();
    const StripeId stripes_per_round = rebuild_round_stripes();
    exec::ScratchLease scratch;
    ReconstructStats stats;
    for (RowId row = lo; row < hi;) {
        const RowId end = std::min(hi, (row / rows_per_stripe + stripes_per_round) * rows_per_stripe);
        auto status = rebuild_round(disk, row, end - row, *scratch);
        if (!status.ok()) return status.error();
        stats.elements_rebuilt += end - row;
        stats.elements_read += scratch->plan.total_fetched();
        row = end;
    }
    return stats;
}

StripeId StripeStore::rebuild_round_stripes() const {
    // A row stages at most n elements: its sources and itself.
    const std::int64_t rows = static_cast<std::int64_t>(arena_->capacity()) / scheme_.code().n();
    return std::max<StripeId>(1, rows / scheme_.layout().rows_per_stripe());
}

Status StripeStore::rebuild_round(DiskId disk, RowId first, RowId rows, exec::RequestScratch& s) {
    // Each round is one rebuild-class request. The executor appends its
    // plan/fetch phases per replan round; decode and write follow, so the
    // root's direct children tile the round like a read's.
    const StoreObs& o = store_obs();
    std::shared_ptr<obs::RequestTrace> rt;
    if (o.forensics != nullptr) {
        rt = o.forensics->start(obs::RequestClass::rebuild);
        rt->attr_all(obs::RequestTrace::kRoot, {{"disk", disk}, {"first_row", first}, {"rows", rows}});
    }
    auto status = rebuild_round_traced(disk, first, rows, s, rt.get());
    finish_request(o.forensics, rt, status);
    return status;
}

Status StripeStore::rebuild_round_traced(DiskId disk, RowId first, RowId rows,
                                         exec::RequestScratch& s, obs::RequestTrace* rt) {
    // Plan the rows' reconstruction around every unavailable disk (the
    // target among them), fetch with one queue per disk under the
    // retry/replan policy, and decode into executor staging.
    unavailable_disks_locked(s.excluded);
    auto replanner = [&](const std::vector<DiskId>& excl, AccessPlan& plan) -> Status {
        auto planned = core::plan_reconstruction(scheme_, disk, first, rows, excl, s.planner, plan);
        if (!planned.ok() && planned.error().code == Error::Code::undecodable) {
            return Error::beyond_tolerance("rebuild of disk " + std::to_string(disk) +
                                           " cannot be planned around " +
                                           std::to_string(excl.size()) +
                                           " unavailable disks: " + planned.error().message);
        }
        return planned;
    };
    auto fetched = executor_.fetch(s, replanner, rt);
    if (!fetched.ok()) return fetched;
    {
        const std::uint32_t decode_node = rt != nullptr ? rt->begin_phase("decode") : 0;
        auto decoded = executor_.decode(s, {rt, decode_node});
        if (rt != nullptr) {
            rt->end_with(decode_node,
                         {{"decodes", static_cast<std::int64_t>(s.plan.decodes().size())}});
        }
        if (!decoded.ok()) return decoded;
    }

    // Flush the rebuilt rows onto the replacement straight from staging,
    // as one batched plan (a single queue: all rows live on one disk).
    // The replacement dying here must surface — no degraded skip.
    const std::uint32_t write_node = rt != nullptr ? rt->begin_phase("write") : 0;
    const int k = scheme_.code().k();
    WritePlan plan(scheme_.disks());
    plan.reserve(static_cast<std::size_t>(rows));
    std::vector<ConstByteSpan> payloads;
    payloads.reserve(static_cast<std::size_t>(rows));
    for (RowId row = first; row < first + rows; ++row) {
        const GroupCoord coord = scheme_.layout().coord_at({disk, row});
        const ByteSpan rebuilt = s.elements.find(exec::PlanExecutor::key_of(coord));
        if (rebuilt.empty()) {
            if (rt != nullptr) rt->end(write_node);
            return Error::internal("rebuilt element missing after decode");
        }
        plan.add_write({{disk, row}, coord, payloads.size(), coord.position >= k});
        payloads.push_back(rebuilt);
    }
    auto wrote = executor_.write(plan, payloads, {rt, write_node}, /*allow_degraded=*/false);
    if (rt != nullptr) rt->end_with(write_node, {{"elements", rows}});
    if (!wrote.ok()) return wrote.error();
    return Status::success();
}

Status StripeStore::finish_rebuild(DiskId disk) {
    if (disk < 0 || disk >= scheme_.disks()) return Error::range("no such disk");
    std::lock_guard<std::mutex> wl(writer_mu_);
    auto lk = exclusive_lock();
    auto it = rebuilds_.find(disk);
    if (it == rebuilds_.end()) {
        return Error::invalid("no rebuild in flight for disk " + std::to_string(disk));
    }
    if (disks_[static_cast<std::size_t>(disk)]->failed()) {
        return Error::disk_failed("replacement disk failed mid-rebuild; abort_rebuild and retry");
    }
    rebuilding_[static_cast<std::size_t>(disk)] = 0;
    rebuilds_.erase(it);
    return Status::success();
}

Status StripeStore::abort_rebuild(DiskId disk) {
    if (disk < 0 || disk >= scheme_.disks()) return Error::range("no such disk");
    std::lock_guard<std::mutex> wl(writer_mu_);
    auto lk = exclusive_lock();
    auto it = rebuilds_.find(disk);
    if (it == rebuilds_.end()) {
        return Error::invalid("no rebuild in flight for disk " + std::to_string(disk));
    }
    disks_[static_cast<std::size_t>(disk)]->fail();
    rebuilding_[static_cast<std::size_t>(disk)] = 0;
    rebuilds_.erase(it);
    return Status::success();
}

Result<ReconstructStats> StripeStore::reconstruct_disk(DiskId disk) {
    auto began = begin_rebuild(disk);
    if (!began.ok()) return began.error();

    auto rows = rebuild_target_rows(disk);
    if (!rows.ok()) {
        (void)abort_rebuild(disk);
        return rows.error();
    }
    auto stats = rebuild_rows(disk, 0, rows.value());
    if (!stats.ok()) {
        (void)abort_rebuild(disk);
        return stats.error();
    }
    auto finished = finish_rebuild(disk);
    if (!finished.ok()) return finished.error();
    return stats;
}

Status StripeStore::corrupt_element(DiskId disk, RowId row, std::size_t byte_offset) {
    if (disk < 0 || disk >= scheme_.disks()) return Error::range("no such disk");
    auto lk = exclusive_lock();
    return disks_[static_cast<std::size_t>(disk)]->corrupt_byte(row, byte_offset);
}

namespace {

/// True when the group's parity equations all hold for these buffers
/// (buffers[i] = payload of code position i).
bool group_consistent(const codes::ErasureCode& code, const std::vector<AlignedBuffer>& bufs,
                      std::int64_t element_bytes) {
    std::vector<ConstByteSpan> data(static_cast<std::size_t>(code.k()));
    for (int j = 0; j < code.k(); ++j) data[static_cast<std::size_t>(j)] = bufs[static_cast<std::size_t>(j)].span();
    std::vector<AlignedBuffer> expect_bufs;
    std::vector<ByteSpan> expect(static_cast<std::size_t>(code.m()));
    for (int p = 0; p < code.m(); ++p) {
        expect_bufs.emplace_back(static_cast<std::size_t>(element_bytes));
        expect[static_cast<std::size_t>(p)] = expect_bufs.back().span();
    }
    code.encode(data, expect);
    for (int p = 0; p < code.m(); ++p) {
        if (std::memcmp(expect_bufs[static_cast<std::size_t>(p)].data(),
                        bufs[static_cast<std::size_t>(code.k() + p)].data(),
                        static_cast<std::size_t>(element_bytes)) != 0) {
            return false;
        }
    }
    return true;
}

}  // namespace

Result<ScrubReport> StripeStore::scrub() {
    std::lock_guard<std::mutex> wl(writer_mu_);
    auto lk = exclusive_lock();
    if (!failed_disks_locked().empty()) return Error::disk_failed("scrub requires all disks online");
    if (!rebuilds_.empty()) return Error::invalid("scrub requires no rebuild in flight");

    // A scrub pass is one scrub-class request: the whole scan is its
    // single phase, with a span per inconsistent group under it.
    const StoreObs& o = store_obs();
    std::shared_ptr<obs::RequestTrace> rt;
    std::uint32_t scan_node = 0;
    if (o.forensics != nullptr) {
        rt = o.forensics->start(obs::RequestClass::scrub);
        scan_node = rt->begin_phase("scan");
    }
    auto result = scrub_locked(rt.get(), scan_node);
    if (rt != nullptr) {
        if (result.ok()) {
            rt->attr(scan_node, "groups", result.value().groups_scanned);
            rt->attr(scan_node, "inconsistent", result.value().groups_inconsistent);
            rt->attr(scan_node, "repaired", result.value().elements_repaired);
        }
        rt->end(scan_node);
    }
    finish_request(o.forensics, rt, result.ok() ? Status::success() : Status(result.error()));
    return result;
}

Result<ScrubReport> StripeStore::scrub_locked(obs::RequestTrace* rt, std::uint32_t scan_node) {
    const auto& code = scheme_.code();
    ScrubReport report;

    for (StripeId s = 0; s < stripes_; ++s) {
        if (unencoded_.count(s) != 0) continue;  // parity-pending: nothing to audit yet
        for (int g = 0; g < scheme_.layout().groups_per_stripe(); ++g) {
            ++report.groups_scanned;

            std::vector<AlignedBuffer> bufs;
            std::vector<ByteSpan> spans(static_cast<std::size_t>(code.n()));
            bufs.reserve(static_cast<std::size_t>(code.n()));
            for (int p = 0; p < code.n(); ++p) {
                bufs.emplace_back(static_cast<std::size_t>(element_bytes_));
                spans[static_cast<std::size_t>(p)] = bufs.back().span();
            }
            auto status = executor_.read_group(s, g, spans);
            if (!status.ok()) return status.error();
            if (group_consistent(code, bufs, element_bytes_)) continue;
            ++report.groups_inconsistent;
            const double repair_t0 = rt != nullptr ? obs::forensic_now_us() : 0.0;

            // Hypothesis test: rebuild each position from the other n-1
            // and accept the unique hypothesis that restores consistency.
            // (Unique for a single corruption because our codes have
            // element-level distance >= 3.)
            bool repaired = false;
            for (int z = 0; z < code.n() && !repaired; ++z) {
                std::vector<int> sources;
                for (int p = 0; p < code.n(); ++p) {
                    if (p != z) sources.push_back(p);
                }
                auto repair = code.solve_repair(z, sources);
                if (!repair.ok()) continue;

                std::vector<AlignedBuffer> trial = bufs;
                std::vector<ByteSpan> trial_spans(static_cast<std::size_t>(code.n()));
                for (int p = 0; p < code.n(); ++p) trial_spans[static_cast<std::size_t>(p)] = trial[static_cast<std::size_t>(p)].span();
                codes::ErasureCode::apply_repair(repair.value(), trial_spans);

                if (!group_consistent(code, trial, element_bytes_)) continue;

                // Hypothesis accepted: persist the corrected element
                // through the executor's write path.
                const GroupCoord coord{s, g, z};
                WritePlan plan(scheme_.disks());
                plan.add_write({scheme_.layout().locate(coord), coord, 0, z >= code.k()});
                const ConstByteSpan payload[] = {trial[static_cast<std::size_t>(z)].span()};
                auto wrote = executor_.write(plan, payload, {}, /*allow_degraded=*/false);
                if (!wrote.ok()) return wrote.error();
                ++report.elements_repaired;
                repaired = true;
            }
            if (!repaired) ++report.unrecoverable_groups;
            if (rt != nullptr) {
                rt->complete(scan_node, "scrub.repair", repair_t0,
                             obs::forensic_now_us() - repair_t0,
                             {{"stripe", std::to_string(s)},
                              {"group", std::to_string(g)},
                              {"repaired", repaired ? "true" : "false"}});
            }
        }
    }
    return report;
}

Status StripeStore::verify_parity() {
    auto lk = reader_lock();
    const auto& code = scheme_.code();
    for (StripeId s = 0; s < stripes_; ++s) {
        if (unencoded_.count(s) != 0) continue;  // parity-pending: nothing to verify yet
        for (int g = 0; g < scheme_.layout().groups_per_stripe(); ++g) {
            std::vector<AlignedBuffer> bufs;
            std::vector<ByteSpan> spans(static_cast<std::size_t>(code.n()));
            std::vector<ConstByteSpan> data(static_cast<std::size_t>(code.k()));
            bufs.reserve(static_cast<std::size_t>(code.n()));
            for (int p = 0; p < code.n(); ++p) {
                bufs.emplace_back(static_cast<std::size_t>(element_bytes_));
                spans[static_cast<std::size_t>(p)] = bufs.back().span();
            }
            auto status = executor_.read_group(s, g, spans);
            if (!status.ok()) return status;
            for (int p = 0; p < code.k(); ++p) data[static_cast<std::size_t>(p)] = bufs[static_cast<std::size_t>(p)].span();
            std::vector<AlignedBuffer> expect_bufs;
            std::vector<ByteSpan> expect(static_cast<std::size_t>(code.m()));
            for (int p = 0; p < code.m(); ++p) {
                expect_bufs.emplace_back(static_cast<std::size_t>(element_bytes_));
                expect[static_cast<std::size_t>(p)] = expect_bufs.back().span();
            }
            code.encode(data, expect);
            for (int p = 0; p < code.m(); ++p) {
                const auto& stored = bufs[static_cast<std::size_t>(code.k() + p)];
                if (std::memcmp(stored.data(), expect_bufs[static_cast<std::size_t>(p)].data(),
                                static_cast<std::size_t>(element_bytes_)) != 0) {
                    return Error::internal("parity mismatch at stripe " + std::to_string(s) + " group " +
                                           std::to_string(g) + " parity " + std::to_string(p));
                }
            }
        }
    }
    return Status::success();
}

}  // namespace ecfrm::store
