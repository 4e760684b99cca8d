// FaultDevice: a BlockDevice decorator that injects faults from a seeded,
// scriptable schedule. Campaigns describe WHAT goes wrong in a FaultPlan
// (JSON-serialisable, replayable from a single seed); the decorator decides
// WHEN, deterministically, by counting the device's own read/write ops.
//
// Five fault kinds model the degraded realities of cloud disks:
//   fail_stop   — the device trips permanently (reads/writes return
//                 disk_failed, failed() reports true) until replace()d;
//   transient   — one op returns EIO, the retry sees a healthy device;
//   torn_write  — only a prefix of the payload lands before the write
//                 errors (a crash mid-write / partial sector run);
//   bit_flip    — a stored byte of the addressed row is flipped in place.
//                 Silent by default (the read still succeeds, scrub's
//                 problem); with detected=true the device's EDC catches it
//                 and every read of the row returns Error::corrupt;
//   latency     — the op completes correctly but only after a real
//                 wall-clock stall (exercises timeouts and hedged reads).
//
// Determinism: each device consumes its own Rng stream seeded from
// (plan.seed, disk), and rules trigger on per-device op sequence numbers
// (read rules count reads, write rules count writes, `any` rules count
// both). Run the store serially (no thread pool) and the whole fault
// sequence — including probabilistic rules — replays exactly from the
// seed. `max_burst` caps consecutive probabilistic injections per device
// so bounded retries are guaranteed to make progress.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/types.h"
#include "store/block_device.h"

namespace ecfrm::store {

enum class FaultKind { fail_stop, transient, torn_write, bit_flip, latency };

const char* to_string(FaultKind kind);
Result<FaultKind> parse_fault_kind(std::string_view name);

/// Which ops a rule's trigger window counts and matches.
enum class FaultOp { any, read, write };

const char* to_string(FaultOp op);

/// One scripted fault: fire `kind` on ops [first_op, first_op + count) of
/// the matching per-device op counter, each with `probability`.
struct FaultRule {
    FaultKind kind = FaultKind::transient;
    DiskId disk = -1;             // -1: applies to every disk
    FaultOp op = FaultOp::any;    // torn_write only matches writes,
                                  // bit_flip only reads, regardless
    std::int64_t first_op = 0;    // window start (op sequence number)
    std::int64_t count = 1;       // window length; fail_stop trips once
    double probability = 1.0;     // per-op chance inside the window
    double latency_ms = 0.0;      // latency: injected stall
    double torn_fraction = 0.5;   // torn_write: payload fraction that lands
    std::int64_t flip_offset = 0; // bit_flip: byte offset within the element
    bool detected = false;        // bit_flip: device EDC reports corrupt

    friend bool operator==(const FaultRule&, const FaultRule&) = default;
};

/// A replayable fault campaign: seed + rules ("ecfrm.faultplan.v1").
struct FaultPlan {
    std::uint64_t seed = 0;
    int max_burst = 0;  // >0: cap on consecutive probabilistic faults/device
    std::vector<FaultRule> rules;

    bool empty() const { return rules.empty(); }

    std::string to_json() const;
    static Result<FaultPlan> from_json(std::string_view text);

    friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

class FaultDevice final : public BlockDevice {
  public:
    /// One injected fault, as observed (test / campaign evidence log).
    struct Event {
        std::int64_t op = 0;  // matching-op sequence number that fired
        FaultKind kind = FaultKind::transient;
        bool is_read = false;
        RowId row = -1;
    };

    /// Wraps `inner`; only rules whose `disk` is -1 or equals `disk` apply.
    FaultDevice(std::unique_ptr<BlockDevice> inner, const FaultPlan& plan, DiskId disk);

    std::int64_t element_bytes() const override { return inner_->element_bytes(); }
    Status write(RowId row, ConstByteSpan data) override;
    Status read(RowId row, ByteSpan out) const override;

    /// Batch ops deliberately take the base-class per-element path: every
    /// element must pass through decide() as its own op so fault schedules
    /// stay keyed to per-device op sequence numbers and a FaultPlan replays
    /// byte-identically whether callers batch or not. (The inner device's
    /// native batching is bypassed on this decorated path by design.)
    Status read_batch(std::span<const RowId> rows, std::span<const ByteSpan> outs,
                      std::size_t* completed = nullptr) const override {
        return BlockDevice::read_batch(rows, outs, completed);
    }
    Status write_batch(std::span<const RowId> rows, std::span<const ConstByteSpan> payloads,
                       std::size_t* completed = nullptr) override {
        return BlockDevice::write_batch(rows, payloads, completed);
    }

    void fail() override;
    void replace() override;
    bool failed() const override;
    RowId rows() const override { return inner_->rows(); }
    Status corrupt_byte(RowId row, std::size_t offset) override {
        return inner_->corrupt_byte(row, offset);
    }

    /// Every fault injected so far, in op order.
    std::vector<Event> events() const;

    std::int64_t read_ops() const;
    std::int64_t write_ops() const;

  private:
    /// The injection decided for one op (kind only meaningful when fired).
    struct Decision {
        bool fired = false;
        FaultKind kind = FaultKind::transient;
        const FaultRule* rule = nullptr;
    };

    Decision decide(bool is_read, RowId row, std::int64_t* op_seq) const;

    std::unique_ptr<BlockDevice> inner_;
    DiskId disk_;
    std::vector<FaultRule> rules_;
    int max_burst_;

    mutable std::mutex mu_;
    mutable Rng rng_;
    mutable std::int64_t read_ops_ = 0;
    mutable std::int64_t write_ops_ = 0;
    mutable int burst_ = 0;
    /// fail_stop fired (cleared by replace()). Written under mu_;
    /// failed() reads it without the lock.
    mutable std::atomic<bool> tripped_{false};
    mutable std::set<RowId> detected_rows_;  // EDC-flagged rows
    mutable std::vector<Event> events_;
};

/// Convenience StripeStore::DeviceFactory: an in-memory Disk per index,
/// wrapped in a FaultDevice driven by `plan`.
std::function<Result<std::unique_ptr<BlockDevice>>(int)> faulty_memory_factory(
    std::int64_t element_bytes, const FaultPlan& plan);

}  // namespace ecfrm::store
