#include "timing_device.h"

#include "alloc_counter.h"
#include "span_log.h"

namespace perfbench {
namespace {

using ecfrm::Status;

// Times `call` and records it as a device span of `disk` moving
// `elements` elements. Without recording this is a plain call.
template <typename Call>
auto timed(const char* name, int disk, std::size_t elements, Call&& call) {
    if (!spans::enabled()) return call();
    const double start = now_us();
    auto result = call();
    spans::record(name, spans::next_id(), spans::current(), start, now_us(), disk,
                  static_cast<std::int64_t>(elements));
    return result;
}

class TimedBatch final : public ecfrm::store::BlockDevice::AsyncBatch {
  public:
    TimedBatch(std::unique_ptr<AsyncBatch> inner, int disk) : inner_(std::move(inner)), disk_(disk) {}

    Status await(std::size_t* completed) override {
        return timed("dev.await", disk_, 0, [&] { return inner_->await(completed); });
    }

  private:
    std::unique_ptr<AsyncBatch> inner_;
    int disk_;
};

}  // namespace

Status TimingDevice::write(ecfrm::RowId row, ecfrm::ConstByteSpan data) {
    return timed("dev.write", disk_, 1, [&] { return inner_->write(row, data); });
}

Status TimingDevice::read(ecfrm::RowId row, ecfrm::ByteSpan out) const {
    return timed("dev.read", disk_, 1, [&] { return inner_->read(row, out); });
}

Status TimingDevice::read_batch(std::span<const ecfrm::RowId> rows,
                                std::span<const ecfrm::ByteSpan> outs,
                                std::size_t* completed) const {
    return timed("dev.read_batch", disk_, rows.size(),
                 [&] { return inner_->read_batch(rows, outs, completed); });
}

std::unique_ptr<ecfrm::store::BlockDevice::AsyncBatch> TimingDevice::submit_read_batch(
    std::span<const ecfrm::RowId> rows, std::span<const ecfrm::ByteSpan> outs) const {
    auto batch = timed("dev.submit_read_batch", disk_, rows.size(),
                       [&] { return inner_->submit_read_batch(rows, outs); });
    // The wrapper is the decorator's own cost, not the device's.
    AllocPause pause;
    return std::make_unique<TimedBatch>(std::move(batch), disk_);
}

Status TimingDevice::write_batch(std::span<const ecfrm::RowId> rows,
                                 std::span<const ecfrm::ConstByteSpan> payloads,
                                 std::size_t* completed) {
    return timed("dev.write_batch", disk_, rows.size(),
                 [&] { return inner_->write_batch(rows, payloads, completed); });
}

}  // namespace perfbench
