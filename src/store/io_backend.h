// I/O backend selection for file-backed devices.
//
// Every file-backed device is a UringDisk; the backend picks its mode.
// Both modes share one on-disk format:
//   pread — positional syscalls (concurrent readers, coalesced preadv
//           batches); the portable path
//   uring — io_uring (batched SQE submission, fixed files, registered
//           buffers); degrades to pread when the kernel or build lacks
//           io_uring
//
// The default is uring-when-available, else pread. ECFRM_IO_BACKEND
// overrides it ("uring" | "pread") — one knob flips every file-backed
// archive, which is how the differential tests and the bench compare
// backends on identical data.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/buffer_pool.h"
#include "store/block_device.h"

namespace ecfrm::store {

enum class IoBackend {
    pread,
    uring,
};

const char* to_string(IoBackend backend);

/// Parse a backend name; nullopt for unknown names.
std::optional<IoBackend> parse_io_backend(const std::string& name);

/// The backend an ECFRM_IO_BACKEND value selects (`value` null when the
/// variable is unset): the named backend, else uring when the kernel
/// provides it, else pread. An unrecognised name logs one warning naming
/// the backend used instead.
IoBackend select_io_backend(const char* value);

/// The process-wide backend: select_io_backend(ECFRM_IO_BACKEND), read
/// once.
IoBackend default_io_backend();

/// The shared element arena registered with every uring-backed device:
/// one BufferPool per element size, process-lifetime, so executor staging
/// buffers come from registered memory (READ_FIXED-eligible). Never
/// null; sized for a few concurrent stripes' worth of elements.
BufferPool* element_arena(std::int64_t element_bytes);

/// Open disk `index` under `dir` as a UringDisk in the given backend's
/// mode (process default when omitted). Both modes read and write the
/// same files.
Result<std::unique_ptr<BlockDevice>> open_file_device(
    const std::string& dir, int index, std::int64_t element_bytes,
    std::optional<IoBackend> backend = std::nullopt);

}  // namespace ecfrm::store
