// TimingDevice: a BlockDevice decorator that records one span per device
// call. The traced run installs it through StripeStore::open's
// DeviceFactory around the same devices the untraced run uses. It
// forwards every virtual, so the executor takes the same path as
// untraced: async_reads() is the inner device's answer, and
// submit_read_batch hands back the inner batch wrapped so its await()
// is timed too.
//
// Span names and counts (count = elements moved):
//   dev.read, dev.read_batch, dev.submit_read_batch   read calls
//   dev.await                                         completion wait (count 0)
//   dev.write, dev.write_batch                        write calls
#pragma once

#include <memory>

#include "store/block_device.h"

namespace perfbench {

class TimingDevice final : public ecfrm::store::BlockDevice {
  public:
    TimingDevice(std::unique_ptr<ecfrm::store::BlockDevice> inner, int disk)
        : inner_(std::move(inner)), disk_(disk) {}

    std::int64_t element_bytes() const override { return inner_->element_bytes(); }
    ecfrm::Status write(ecfrm::RowId row, ecfrm::ConstByteSpan data) override;
    ecfrm::Status read(ecfrm::RowId row, ecfrm::ByteSpan out) const override;
    ecfrm::Status read_batch(std::span<const ecfrm::RowId> rows,
                             std::span<const ecfrm::ByteSpan> outs,
                             std::size_t* completed = nullptr) const override;
    std::unique_ptr<AsyncBatch> submit_read_batch(
        std::span<const ecfrm::RowId> rows, std::span<const ecfrm::ByteSpan> outs) const override;
    bool async_reads() const override { return inner_->async_reads(); }
    ecfrm::Status write_batch(std::span<const ecfrm::RowId> rows,
                              std::span<const ecfrm::ConstByteSpan> payloads,
                              std::size_t* completed = nullptr) override;
    void fail() override { inner_->fail(); }
    void replace() override { inner_->replace(); }
    bool failed() const override { return inner_->failed(); }
    ecfrm::RowId rows() const override { return inner_->rows(); }
    ecfrm::Status corrupt_byte(ecfrm::RowId row, std::size_t offset) override {
        return inner_->corrupt_byte(row, offset);
    }

  private:
    std::unique_ptr<ecfrm::store::BlockDevice> inner_;
    int disk_;
};

}  // namespace perfbench
