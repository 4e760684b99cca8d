#include "store/io_backend.h"

#include <cstdlib>
#include <map>
#include <mutex>

#include "common/logging.h"
#include "store/uring_disk.h"

namespace ecfrm::store {

const char* to_string(IoBackend backend) {
    switch (backend) {
        case IoBackend::pread: return "pread";
        case IoBackend::uring: return "uring";
    }
    return "unknown";
}

std::optional<IoBackend> parse_io_backend(const std::string& name) {
    if (name == "pread") return IoBackend::pread;
    if (name == "uring") return IoBackend::uring;
    return std::nullopt;
}

IoBackend select_io_backend(const char* value) {
    const IoBackend detected = UringDisk::uring_available() ? IoBackend::uring : IoBackend::pread;
    if (value == nullptr) return detected;
    if (auto parsed = parse_io_backend(value)) return *parsed;
    log_warn(std::string("ECFRM_IO_BACKEND=") + value + " is not pread|uring; using " +
             to_string(detected));
    return detected;
}

IoBackend default_io_backend() {
    static const IoBackend backend = select_io_backend(std::getenv("ECFRM_IO_BACKEND"));
    return backend;
}

BufferPool* element_arena(std::int64_t element_bytes) {
    // Process-lifetime pools, one per element size: the arena address
    // must stay stable for as long as any ring has it registered, and
    // devices of different archives share registration-eligible memory.
    // 256 slabs covers several in-flight stripes of staging buffers; the
    // pool's heap fallback absorbs bursts beyond that.
    static std::mutex mu;
    static std::map<std::int64_t, std::unique_ptr<BufferPool>>* pools =
        new std::map<std::int64_t, std::unique_ptr<BufferPool>>();
    std::lock_guard lk(mu);
    auto& pool = (*pools)[element_bytes];
    if (pool == nullptr) {
        pool = std::make_unique<BufferPool>(static_cast<std::size_t>(element_bytes), 256);
    }
    return pool.get();
}

Result<std::unique_ptr<BlockDevice>> open_file_device(const std::string& dir, int index,
                                                      std::int64_t element_bytes,
                                                      std::optional<IoBackend> backend) {
    const IoBackend mode = backend.value_or(default_io_backend());
    auto disk = UringDisk::open(dir, index, element_bytes, mode,
                                mode == IoBackend::uring ? element_arena(element_bytes) : nullptr);
    if (!disk.ok()) return disk.error();
    return std::unique_ptr<BlockDevice>(std::move(disk.value()));
}

}  // namespace ecfrm::store
