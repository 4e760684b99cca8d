// StripeStore: an in-memory erasure-coded storage node array holding real
// bytes, exercising the full write/encode, normal-read, degraded-read and
// reconstruction paths of a Scheme.
//
// Write model matches the paper's cloud-storage assumption: append-only,
// buffered until a full stripe is available, then erasure-coded as a full
// stripe write (Section I). The store owns the only tail buffer and the
// only stripe commit: each full stripe commits either inline (data and
// parity in one WritePlan round) or, when the caller's CommitHook allows
// it, deferred (data only, parity pending, the stripe's bytes kept here
// until encode_stripe_parity writes the parity). Both directions of
// device I/O flow through exec::PlanExecutor: reads execute an
// AccessPlan, writes execute a WritePlan — so stripe commits, parity
// writes, overwrites, rebuild and scrub repairs all get batched
// submission, the retry policy, the per-disk I/O account and
// request-trace spans from one engine.
//
// Concurrency: mutators serialise on a writer mutex, but hold the
// reader/writer lock exclusively only for the manifest/commit window —
// encode compute and device I/O of a stripe commit run with readers
// admitted, because writers only touch rows no committed plan can reach.
// Overwrite is the exception (it mutates committed rows and their
// parities in place) and excludes readers for its whole, now batched,
// read-modify-write. Online rebuild is chunked: begin_rebuild swaps in
// the replacement and keeps the disk out of read planning, rebuild_rows
// restores row ranges under the shared lock (readers proceed, planning
// around the mid-rebuild disk), finish_rebuild re-admits it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/read_planner.h"
#include "core/scheme.h"
#include "core/write_plan.h"
#include "exec/plan_executor.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "store/block_device.h"
#include "store/disk.h"
#include "store/extent.h"

namespace ecfrm::store {

struct ReconstructStats {
    std::int64_t elements_rebuilt = 0;
    std::int64_t elements_read = 0;
};

/// Self-healing knobs now live with the execution engine; the alias keeps
/// the store-level spelling working.
using RecoveryOptions = exec::RecoveryOptions;

struct ScrubReport {
    std::int64_t groups_scanned = 0;
    std::int64_t groups_inconsistent = 0;
    std::int64_t elements_repaired = 0;
    std::int64_t unrecoverable_groups = 0;

    bool clean() const { return groups_inconsistent == 0; }
};

class StripeStore {
  public:
    /// Builds one BlockDevice per disk index. Used to plug in persistent
    /// file devices (store::open_file_device) or anything else instead of
    /// the default in-memory Disk.
    using DeviceFactory = std::function<Result<std::unique_ptr<BlockDevice>>(int index)>;

    /// In-memory store. `pool` may be null (serial execution); when
    /// provided, encode, reconstruction and fetch queues parallelise.
    StripeStore(core::Scheme scheme, std::int64_t element_bytes, ThreadPool* pool = nullptr);

    /// Orphaned hedge queues (straggling fetches abandoned at their hedge
    /// deadline) still reference the devices; drain them before the
    /// devices are destroyed.
    ~StripeStore() { executor_.drain_orphans(); }

    /// Store over caller-provided devices. Fails if any device cannot be
    /// built or reports the wrong element size.
    static Result<std::unique_ptr<StripeStore>> open(core::Scheme scheme, std::int64_t element_bytes,
                                                     const DeviceFactory& factory,
                                                     ThreadPool* pool = nullptr);

    /// Adopt pre-existing content (reopening a persistent store): declares
    /// that `stripes` full stripes are already on the devices, with user
    /// bytes laid out as described by `extents`.
    Status restore(std::vector<Extent> extents, StripeId stripes);

    /// Single-extent convenience: all `logical_bytes` user bytes stored
    /// contiguously from element 0 (one append run, one final flush).
    Status restore(std::int64_t logical_bytes, StripeId stripes);

    const core::Scheme& scheme() const { return scheme_; }
    std::int64_t element_bytes() const { return element_bytes_; }
    /// User-data bytes per full stripe.
    std::int64_t stripe_data_bytes() const {
        return scheme_.layout().data_per_stripe() * element_bytes_;
    }

    /// How append/flush commit each full stripe. Without a hook every
    /// stripe commits inline: data and parity in one WritePlan round.
    /// With one, a stripe commits deferred while fewer than `max_pending`
    /// stripes are parity-pending, and inline otherwise. A deferred
    /// stripe's data elements are written and published (healthy reads
    /// serve it at once; degraded reads that would need its parity fail
    /// typed, beyond_tolerance) and the store keeps its bytes for
    /// encode_stripe_parity. `on_commit` (may be empty) hears of every
    /// committed stripe, in stripe order, with the writer lock held: it
    /// must not call back into the store's mutators.
    struct CommitHook {
        std::size_t max_pending = 0;
        std::function<void(StripeId stripe, bool deferred)> on_commit;
    };

    /// Append user bytes. Full stripes commit eagerly (see CommitHook);
    /// the tail is buffered until flush(). Readers are only excluded
    /// during each committed stripe's manifest window, not its encode or
    /// device I/O. Bytes leave the tail only once their stripe commits,
    /// so after a failure a retried append or flush commits each byte
    /// exactly once.
    Status append(ConstByteSpan data, const CommitHook* hook = nullptr);

    /// Commit every whole stripe still in the tail, then the remainder
    /// zero-padded to a stripe boundary.
    Status flush(const CommitHook* hook = nullptr);

    /// Encode and write the parity of a deferred stripe from the bytes
    /// the store kept for it, then clear its pending mark. Safe
    /// concurrently with appends and reads (parity rows of a pending
    /// stripe are unreachable by any read plan); fails invalid when the
    /// stripe is not pending or another call is encoding it. A failed
    /// encode leaves the stripe pending for a retry.
    Status encode_stripe_parity(StripeId stripe);

    /// encode_stripe_parity for every parity-pending stripe no other call
    /// is encoding, in stripe order; stops at the first failure.
    Status encode_pending_parity();

    /// Stripes committed deferred whose parity is still pending.
    std::int64_t unencoded_stripes() const;

    /// Overwrite committed bytes in place with read-modify-write parity
    /// updates: old data and touched parities are fetched as one batched
    /// executor plan, parity deltas are folded with the fused GF kernels
    /// (parity_p ^= sum_j coeff_pj * delta_j per group, one cache-blocked
    /// pass), and new data + updated parities go back out as one batched
    /// WritePlan — no full stripe re-encode and no per-element serial
    /// I/O. Requires every touched element's home disk and all its group
    /// parities to be online and not mid-rebuild, and the touched
    /// stripes' parity to be encoded.
    Status overwrite(std::int64_t offset, ConstByteSpan data);

    /// User bytes appended so far (committed + buffered tail).
    std::int64_t logical_bytes() const;

    /// User bytes already encoded onto the devices and thus readable.
    std::int64_t committed_bytes() const;

    /// Committed extents, in logical order. The reference is only stable
    /// while no writer (append/flush/restore) runs.
    const std::vector<Extent>& extents() const { return extents_; }

    /// Data elements stored (after flush; includes padding elements).
    std::int64_t stored_data_elements() const;

    /// Read `length` bytes at `offset` of the logical byte stream,
    /// transparently decoding around failed disks. Only committed bytes
    /// are readable; flush() first to read a buffered tail. Thread-safe:
    /// any number of reads may run concurrently.
    Result<std::vector<std::uint8_t>> read_bytes(std::int64_t offset, std::int64_t length);

    /// Element-granular read into `out` (size count * element_bytes).
    Status read_elements(ElementId start, std::int64_t count, ByteSpan out);

    /// Inject a disk failure (content dropped, reads fail).
    Status fail_disk(DiskId disk);

    /// Rebuild every element of a failed disk onto a replacement device.
    /// Composition of the chunked online API below; readers proceed
    /// concurrently, planning around the mid-rebuild disk.
    Result<ReconstructStats> reconstruct_disk(DiskId disk);

    /// Online rebuild, chunked. begin_rebuild swaps in an empty
    /// replacement but keeps the disk excluded from read planning;
    /// rebuild_rows (callable repeatedly, any order) restores `[first,
    /// first + count)` clamped to the row count snapshotted at begin;
    /// finish_rebuild re-admits the disk. rebuild_rows runs on the read
    /// engine: each round of whole stripes (as many as fit the element
    /// arena's staging) is planned by core::plan_reconstruction around
    /// every unavailable disk, fetched as one batched round with one
    /// queue per disk (on the pool, when there is one) under the
    /// executor's retry and replan policy, decoded, and written to the
    /// replacement straight from staging. A source disk that fails
    /// mid-round is planned around when the code tolerates its loss;
    /// otherwise the call fails typed (beyond_tolerance, or the device's
    /// error) and the replacement keeps only rows already written.
    /// ReconstructStats::elements_read is the planned, de-duplicated
    /// fetch count of the rounds' plans.
    ///
    /// A round covers the rest of the stripe it starts in and the next
    /// rebuild_round_stripes() - 1 stripes, clipped to the range: as many
    /// whole stripes as fit their staging, at most n elements a row, in
    /// the element arena's slabs.
    /// Stripes committed while a rebuild runs write to the replacement
    /// directly, so only the snapshot rows ever need rebuilding.
    /// abort_rebuild re-fails the disk and discards rebuild state (the
    /// recovery path when the replacement itself dies mid-rebuild).
    /// begin_rebuild fails with disk_failed when the replacement cannot
    /// be brought online.
    Status begin_rebuild(DiskId disk);
    Result<RowId> rebuild_target_rows(DiskId disk) const;
    Result<ReconstructStats> rebuild_rows(DiskId disk, RowId first, RowId count);
    StripeId rebuild_round_stripes() const;
    Status finish_rebuild(DiskId disk);
    Status abort_rebuild(DiskId disk);

    std::vector<DiskId> failed_disks() const;
    /// Disks online but mid-rebuild (excluded from read planning).
    std::vector<DiskId> rebuilding_disks() const;

    /// Recompute every parity element from data and compare with what is
    /// stored. Fails on the first mismatch; parity-pending stripes are
    /// skipped. Each group is read through the executor's one fetch path,
    /// so a transient read error is retried under the recovery policy; a
    /// read that still fails surfaces as a typed error. (Test/diagnostic
    /// hook.)
    Status verify_parity();

    /// Silent-corruption injection hook: flip a byte of the element at
    /// (disk, row) without any error signal from the device.
    Status corrupt_element(DiskId disk, RowId row, std::size_t byte_offset);

    /// Lifetime count of staging copies on the read path: elements the
    /// assemble stage had to copy out of executor staging, plus the
    /// partial head/tail elements read_bytes copies the wanted bytes out
    /// of (at most two per extent segment of an unaligned range).
    /// Zero-copy reads (element-aligned ranges on the healthy path, and
    /// degraded paths whose decode targets the caller buffer) leave it
    /// untouched; hedged or recovery-staged elements increment it.
    /// Test/diagnostic hook for the one-copy-per-byte guarantee.
    std::int64_t assemble_staging_copies() const {
        return assemble_copies_.load(std::memory_order_relaxed);
    }

    /// Configure the self-healing I/O behaviour (retries, timeouts,
    /// hedging, replans, queue depth). Takes effect for subsequent
    /// operations; safe to call while requests are in flight.
    void set_recovery(const RecoveryOptions& options) { executor_.set_recovery(options); }
    RecoveryOptions recovery() const { return executor_.recovery(); }

    /// Attach (or detach, with nulls) observability: per-disk I/O
    /// accounting under ecfrm_disk_*{disk=i}, counted by the executor's
    /// queues (the devices count nothing), and store-level counters
    /// under ecfrm_store_*. With a `forensics`, every read (and scrub
    /// pass) gets a per-request causal span tree (plan -> per-disk batch
    /// -> decode -> assemble), feeds the per-class SLO windows, and is
    /// captured when slow or recovery-active; stripe commits and
    /// overwrites record write-class requests with encode/write/commit
    /// phase spans, and each rebuild round a rebuild-class request with
    /// plan/fetch/decode/write phase spans. With a `heat` model, every
    /// fetch and write queue feeds the live per-disk scoreboard, the
    /// degraded planner's health tie-break consumes its straggler mask,
    /// and the executor's auto_hedge policy derives deadlines from its
    /// windowed p99s. Race-free against in-flight operations: sinks are
    /// published as atomically swapped bundles, so attaching mid-traffic
    /// is safe; detached paths cost an atomic load and a null check.
    void attach_observability(obs::MetricRegistry* metrics,
                              obs::RequestForensics* forensics = nullptr,
                              obs::DiskHeatModel* heat = nullptr);
    /// Compatibility form with the slot of the deleted span-ring tracer,
    /// which only ever took a null. It exists only because perfbench
    /// calls attach_observability(&metrics, nullptr, &forensics) and is
    /// edited only together with the benchmark; every other caller uses
    /// the form above.
    void attach_observability(obs::MetricRegistry* metrics, std::nullptr_t,
                              obs::RequestForensics* forensics,
                              obs::DiskHeatModel* heat = nullptr) {
        attach_observability(metrics, forensics, heat);
    }

    /// Scrub pass: audit every group's parity equations and repair
    /// single-element silent corruptions. A corrupt element is identified
    /// by hypothesis testing — rebuild each candidate position from the
    /// others and accept the unique hypothesis that restores full
    /// consistency. Groups with more damage than the code can pin down are
    /// counted unrecoverable and left untouched. Parity-pending stripes
    /// are skipped. Requires all disks alive and no rebuild in flight.
    /// Groups are read as verify_parity reads them: retried under the
    /// recovery policy, and a read that still fails ends the scan with a
    /// typed error, never a clean report.
    Result<ScrubReport> scrub();

  private:
    /// Store-level observability sinks, bundled so attach_observability
    /// can swap them atomically under live traffic (the executor holds its
    /// own bundle).
    struct StoreObs {
        obs::RequestForensics* forensics = nullptr;
        obs::DiskHeatModel* heat = nullptr;
        obs::Counter* reads_total = nullptr;
        obs::Counter* degraded_reads_total = nullptr;
        obs::Counter* read_elements_total = nullptr;
        obs::Counter* writes_total = nullptr;
        obs::Counter* overwrites_total = nullptr;
        obs::Histogram* read_fanout = nullptr;
        obs::Histogram* read_max_load = nullptr;
        obs::Histogram* write_max_load = nullptr;
    };

    const StoreObs& store_obs() const { return *obs_.load(std::memory_order_acquire); }
    static const StoreObs* empty_obs() {
        static const StoreObs none;
        return &none;
    }

    void bind_executor();

    Status restore_locked(std::vector<Extent> extents, StripeId stripes);
    /// One rebuild_rows round: rebuild rows [first, first + rows) of
    /// `disk` through `s` (plan, fetch, decode, write). Caller holds mu_
    /// shared. On success s.plan is the plan that completed.
    /// Traced as one rebuild-class request when forensics is attached.
    Status rebuild_round(DiskId disk, RowId first, RowId rows, exec::RequestScratch& s);
    /// rebuild_round's body, appending its phases to `rt` (may be null).
    Status rebuild_round_traced(DiskId disk, RowId first, RowId rows, exec::RequestScratch& s,
                                obs::RequestTrace* rt);
    /// Compute every group's parity of one stripe (groups * m buffers,
    /// group-major), pool-parallel across groups.
    Status compute_stripe_parity(ConstByteSpan stripe_data,
                                 std::vector<AlignedBuffer>& parity_bufs) const;
    /// Commit the tail's whole stripes, and with `pad` its zero-padded
    /// remainder too. Caller holds writer_mu_.
    Status commit_tail(bool pad, const CommitHook* hook);
    /// What one write_stripe round puts on the devices.
    enum class StripeWrite {
        commit,           // data and parity of a new stripe
        commit_deferred,  // data of a new stripe; parity pending, bytes kept
        parity,           // the pending parity of a committed stripe
    };
    /// The one routine that builds a stripe's WritePlan: encode (unless
    /// commit_deferred), write the stripe's data and/or parity in one
    /// executor round, then publish it in the manifest window. Traced as
    /// one write-class request. The commits need writer_mu_ held and mu_
    /// not; only the manifest window takes mu_ exclusively.
    Status write_stripe(StripeId stripe, ConstByteSpan stripe_data, std::int64_t user_bytes,
                        StripeWrite what);
    /// Write the parity of a stripe this call claimed (its `encoding`
    /// mark); a failure drops the claim.
    Status encode_claimed(StripeId stripe, ConstByteSpan bytes);
    /// Where each element of a read lands. Element i of the range goes
    /// straight into the caller's buffer, at body[i * element_bytes -
    /// skip] — except a partial head (i == 0, when `head` is set) or tail
    /// (i == count - 1, when `tail` is set), which lands in its own
    /// one-element staging span for read_bytes to copy the wanted part
    /// out of.
    struct ReadDest {
        ByteSpan body{};
        std::int64_t skip = 0;
        ByteSpan head{};
        ByteSpan tail{};

        ByteSpan at(std::int64_t i, std::int64_t count, std::int64_t element_bytes) const;
    };

    /// Element range already validated by the caller.
    Status read_elements_locked(ElementId start, std::int64_t count, const ReadDest& dest);
    /// Lease this thread's request scratch and run the read in it.
    Status execute_read(ElementId start, std::int64_t count, const ReadDest& dest);
    Status execute_read_traced(ElementId start, std::int64_t count, const ReadDest& dest,
                               exec::RequestScratch& s, obs::RequestTrace* rt);
    Result<ScrubReport> scrub_locked(obs::RequestTrace* rt, std::uint32_t scan_node);
    /// The scan step of scrub and verify_parity: fetch group (stripe,
    /// group)'s n elements through the executor into s.elements — arena
    /// staging, the read path's retry policy — and point out[p] at
    /// position p. The read set is fixed: a disk the executor gives up
    /// on fails the fetch (disk_failed for a failed device, else
    /// io_error) instead of a replan.
    Status fetch_group(exec::RequestScratch& s, StripeId stripe, int group,
                       std::span<ByteSpan> out) const;
    std::vector<DiskId> failed_disks_locked() const;
    /// Disks a read plan must route around, failed plus mid-rebuild,
    /// into `out` (allocates only to grow it).
    void unavailable_disks_locked(std::vector<DiskId>& out) const;
    std::int64_t committed_bytes_locked() const {
        return extents_.empty() ? 0 : extents_.back().logical_start + extents_.back().bytes;
    }
    std::int64_t stored_data_elements_locked() const {
        return stripes_ * scheme_.layout().data_per_stripe();
    }

    core::Scheme scheme_;
    std::int64_t element_bytes_;
    ThreadPool* pool_;
    exec::PlanExecutor executor_;

    std::atomic<const StoreObs*> obs_{empty_obs()};
    std::mutex obs_mu_;  // guards retired_obs_
    std::vector<std::unique_ptr<const StoreObs>> retired_obs_;

    /// Serialises mutators (append/flush/overwrite/restore and the
    /// rebuild lifecycle) against each other. Held across a whole stripe
    /// commit — including encode and device I/O — WITHOUT excluding
    /// readers: a committing writer only touches rows beyond every
    /// committed plan's reach, so readers keep flowing until the
    /// manifest window below.
    std::mutex writer_mu_;

    /// Readers (read_bytes/read_elements and the const accessors) hold
    /// this shared; held exclusively only for windows that change what
    /// readers may observe: the manifest/commit update, overwrite's RMW,
    /// restore, failure/rebuild transitions and scrub. Device objects
    /// have their own internal locking, so holding the shared lock
    /// across device I/O is safe and keeps plans consistent with
    /// extents.
    mutable std::shared_mutex mu_;

    /// Writer-preference gate over mu_. The pthread-backed shared_mutex
    /// keeps admitting new readers while an exclusive acquirer waits, so
    /// a steady stream of overlapping readers (eight threads re-reading
    /// the committed prefix back to back) can starve the manifest window
    /// forever. Exclusive acquirers announce themselves here before
    /// blocking on mu_; incoming readers hold back until no writer is
    /// waiting, while readers already inside drain naturally — the
    /// writer's wait is then bounded by the in-flight reads.
    mutable std::atomic<int> writers_waiting_{0};
    mutable std::mutex gate_mu_;
    mutable std::condition_variable gate_cv_;

    /// Gated shared acquisition of mu_ (readers + const accessors).
    std::shared_lock<std::shared_mutex> reader_lock() const;
    /// Announced exclusive acquisition of mu_ (manifest windows).
    std::unique_lock<std::shared_mutex> exclusive_lock() const;

    std::atomic<std::int64_t> assemble_copies_{0};
    BufferPool* arena_ = nullptr;  // element staging (process-lifetime arena)

    std::vector<std::unique_ptr<BlockDevice>> disks_;
    std::vector<std::uint8_t> tail_;  // buffered user bytes; writers only (writer_mu_)
    std::vector<Extent> extents_;     // committed user-byte runs
    StripeId stripes_ = 0;
    std::int64_t logical_bytes_ = 0;
    /// A deferred stripe: its bytes, kept until its parity is written,
    /// and whether an encode_stripe_parity call is writing it (that call
    /// alone then reads the bytes and erases the entry).
    struct PendingParity {
        std::vector<std::uint8_t> bytes;
        bool encoding = false;
    };
    std::map<StripeId, PendingParity> unencoded_;  // committed deferred, parity pending
    std::vector<char> rebuilding_;            // online but mid-rebuild, by DiskId
    std::map<DiskId, RowId> rebuilds_;        // active chunked rebuilds: rows snapshotted at begin
};

}  // namespace ecfrm::store
