#include "store/uring_disk.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <system_error>

#if defined(ECFRM_HAVE_URING)
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>

#include <atomic>
#endif

namespace ecfrm::store {

namespace fs = std::filesystem;

namespace {

off_t element_offset(RowId row, std::int64_t element_bytes) {
    return static_cast<off_t>(row) * static_cast<off_t>(element_bytes);
}

/// Opt-in durability: with ECFRM_FSYNC=1 every write (batch) ends in an
/// fsync of both files. Unset, a write batch needs no flush at all: there
/// are no userspace buffers, so the page cache is the durability point.
bool fsync_enabled() {
    static const bool enabled = []() {
        const char* v = std::getenv("ECFRM_FSYNC");
        return v != nullptr && v[0] != '\0' && v[0] != '0';
    }();
    return enabled;
}

Status pread_full(int fd, std::uint8_t* dst, std::size_t len, off_t offset) {
    while (len > 0) {
        const ssize_t n = ::pread(fd, dst, len, offset);
        if (n < 0) {
            if (errno == EINTR) continue;
            return Error::io("pread failed on data file");
        }
        if (n == 0) return Error::io("short read on data file");
        dst += n;
        len -= static_cast<std::size_t>(n);
        offset += n;
    }
    return Status::success();
}

Status pwrite_full(int fd, const std::uint8_t* src, std::size_t len, off_t offset) {
    while (len > 0) {
        const ssize_t n = ::pwrite(fd, src, len, offset);
        if (n < 0) {
            if (errno == EINTR) continue;
            return Error::io("pwrite failed on data file");
        }
        src += n;
        len -= static_cast<std::size_t>(n);
        offset += n;
    }
    return Status::success();
}

/// Vectored positional read that finishes every iovec (advances the list
/// across partial transfers). Mutates `iov`.
Status preadv_full(int fd, std::span<::iovec> iov, off_t offset) {
    std::size_t idx = 0;
    while (idx < iov.size()) {
        const int cnt = static_cast<int>(std::min<std::size_t>(iov.size() - idx, IOV_MAX));
        ssize_t n = ::preadv(fd, iov.data() + idx, cnt, offset);
        if (n < 0) {
            if (errno == EINTR) continue;
            return Error::io("preadv failed on data file");
        }
        if (n == 0) return Error::io("short read on data file");
        offset += n;
        while (n > 0 && idx < iov.size()) {
            if (static_cast<std::size_t>(n) >= iov[idx].iov_len) {
                n -= static_cast<ssize_t>(iov[idx].iov_len);
                ++idx;
            } else {
                iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + n;
                iov[idx].iov_len -= static_cast<std::size_t>(n);
                n = 0;
            }
        }
    }
    return Status::success();
}

}  // namespace

namespace uring_detail {

#if defined(ECFRM_HAVE_URING)

namespace {

int sys_io_uring_setup(unsigned entries, io_uring_params* p) {
    return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete, unsigned flags) {
    return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags,
                                      nullptr, std::size_t{0}));
}

int sys_io_uring_register(int fd, unsigned opcode, const void* arg, unsigned nr_args) {
    return static_cast<int>(::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

unsigned load_acquire(unsigned* p) {
    return std::atomic_ref<unsigned>(*p).load(std::memory_order_acquire);
}

void store_release(unsigned* p, unsigned v) {
    std::atomic_ref<unsigned>(*p).store(v, std::memory_order_release);
}

}  // namespace

/// One io_uring instance: raw-syscall setup, mmap'd SQ/CQ rings, the data
/// fd registered as fixed file 0 and (when possible) the BufferPool arena
/// registered as fixed buffer 0. No liburing — the ring protocol is small
/// enough that this shim is the whole dependency.
///
/// A Ring is driven by ONE batch at a time (leased from the RingPool), so
/// SQ tail advancement needs no userspace synchronization; the atomics
/// order the shared head/tail words against the kernel's view.
class Ring {
  public:
    static constexpr unsigned kEntries = 128;

    ~Ring() {
        if (sqe_mem_ != nullptr) ::munmap(sqe_mem_, sqe_len_);
        if (cq_mem_ != nullptr && cq_mem_ != sq_mem_) ::munmap(cq_mem_, cq_len_);
        if (sq_mem_ != nullptr) ::munmap(sq_mem_, sq_len_);
        if (fd_ >= 0) ::close(fd_);
    }

    /// nullptr when the kernel refuses the ring. File/buffer registration
    /// failures are NOT fatal — the ring degrades to plain-fd / plain-READ
    /// ops (RLIMIT_MEMLOCK commonly forbids buffer registration).
    static std::unique_ptr<Ring> create(int data_fd, const BufferPool* arena) {
        auto ring = std::unique_ptr<Ring>(new Ring);
        io_uring_params p{};
        ring->fd_ = sys_io_uring_setup(kEntries, &p);
        if (ring->fd_ < 0) return nullptr;

        ring->sq_len_ = p.sq_off.array + p.sq_entries * sizeof(unsigned);
        ring->cq_len_ = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
        const bool single_mmap = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
        if (single_mmap) ring->sq_len_ = ring->cq_len_ = std::max(ring->sq_len_, ring->cq_len_);

        ring->sq_mem_ = ::mmap(nullptr, ring->sq_len_, PROT_READ | PROT_WRITE,
                               MAP_SHARED | MAP_POPULATE, ring->fd_, IORING_OFF_SQ_RING);
        if (ring->sq_mem_ == MAP_FAILED) {
            ring->sq_mem_ = nullptr;
            return nullptr;
        }
        if (single_mmap) {
            ring->cq_mem_ = ring->sq_mem_;
        } else {
            ring->cq_mem_ = ::mmap(nullptr, ring->cq_len_, PROT_READ | PROT_WRITE,
                                   MAP_SHARED | MAP_POPULATE, ring->fd_, IORING_OFF_CQ_RING);
            if (ring->cq_mem_ == MAP_FAILED) {
                ring->cq_mem_ = nullptr;
                return nullptr;
            }
        }
        ring->sqe_len_ = p.sq_entries * sizeof(io_uring_sqe);
        ring->sqe_mem_ = ::mmap(nullptr, ring->sqe_len_, PROT_READ | PROT_WRITE,
                                MAP_SHARED | MAP_POPULATE, ring->fd_, IORING_OFF_SQES);
        if (ring->sqe_mem_ == MAP_FAILED) {
            ring->sqe_mem_ = nullptr;
            return nullptr;
        }

        auto* sq = static_cast<std::uint8_t*>(ring->sq_mem_);
        auto* cq = static_cast<std::uint8_t*>(ring->cq_mem_);
        ring->sq_entries_ = p.sq_entries;
        ring->cq_entries_ = p.cq_entries;
        ring->sq_head_ = reinterpret_cast<unsigned*>(sq + p.sq_off.head);
        ring->sq_tail_ = reinterpret_cast<unsigned*>(sq + p.sq_off.tail);
        ring->sq_mask_ = *reinterpret_cast<unsigned*>(sq + p.sq_off.ring_mask);
        ring->sq_array_ = reinterpret_cast<unsigned*>(sq + p.sq_off.array);
        ring->cq_head_ = reinterpret_cast<unsigned*>(cq + p.cq_off.head);
        ring->cq_tail_ = reinterpret_cast<unsigned*>(cq + p.cq_off.tail);
        ring->cq_mask_ = *reinterpret_cast<unsigned*>(cq + p.cq_off.ring_mask);
        ring->cqes_ = reinterpret_cast<io_uring_cqe*>(cq + p.cq_off.cqes);
        ring->sqes_ = static_cast<io_uring_sqe*>(ring->sqe_mem_);

        const int fds[1] = {data_fd};
        ring->fixed_file_ = sys_io_uring_register(ring->fd_, IORING_REGISTER_FILES, fds, 1) == 0;
        if (arena != nullptr && arena->arena_bytes() > 0) {
            ::iovec iov{};
            iov.iov_base = const_cast<std::uint8_t*>(arena->arena());
            iov.iov_len = arena->arena_bytes();
            ring->fixed_buffers_ =
                sys_io_uring_register(ring->fd_, IORING_REGISTER_BUFFERS, &iov, 1) == 0;
            ring->arena_ = arena;
        }
        ring->data_fd_ = data_fd;
        return ring;
    }

    bool fixed_buffers() const { return fixed_buffers_; }
    bool fixed_file() const { return fixed_file_; }

    /// Queue one read of [dst, dst+len) at `offset`, tagged `user_data`.
    /// False when the SQ (or the CQ budget) is full — the caller must
    /// submit_and_wait() some completions first, then retry.
    bool prep_read(std::uint8_t* dst, std::size_t len, off_t offset, std::uint64_t user_data) {
        if (inflight_ + prepped_ >= cq_entries_) return false;
        const unsigned head = load_acquire(sq_head_);
        const unsigned tail = *sq_tail_;  // only this thread advances it
        if (tail - head >= sq_entries_) return false;
        const unsigned idx = tail & sq_mask_;
        io_uring_sqe* sqe = &sqes_[idx];
        std::memset(sqe, 0, sizeof(*sqe));
        const bool fixed_buf = fixed_buffers_ && arena_ != nullptr && arena_->contains(dst, len);
        sqe->opcode = fixed_buf ? IORING_OP_READ_FIXED : IORING_OP_READ;
        if (fixed_file_) {
            sqe->fd = 0;  // fixed-file table slot 0 = the data fd
            sqe->flags = IOSQE_FIXED_FILE;
        } else {
            sqe->fd = data_fd_;
        }
        sqe->addr = reinterpret_cast<std::uint64_t>(dst);
        sqe->len = static_cast<unsigned>(len);
        sqe->off = static_cast<std::uint64_t>(offset);
        sqe->buf_index = 0;  // the whole arena is registered buffer 0
        sqe->user_data = user_data;
        sq_array_[idx] = idx;
        store_release(sq_tail_, tail + 1);
        ++prepped_;
        return true;
    }

    /// Submit everything prepped and wait until at least `min_complete`
    /// completions are reapable. False on an errno-level io_uring_enter
    /// failure (ops may be lost; the Ring is considered poisoned for the
    /// rest of the batch).
    bool submit_and_wait(unsigned min_complete) {
        const unsigned to_submit = prepped_;
        inflight_ += prepped_;
        prepped_ = 0;
        while (true) {
            const int n = sys_io_uring_enter(fd_, to_submit, std::min(min_complete, inflight_),
                                             IORING_ENTER_GETEVENTS);
            if (n >= 0) return true;
            if (errno == EINTR) continue;
            inflight_ = 0;
            return false;
        }
    }

    /// Pop one completion. False when the CQ is empty.
    bool reap(std::uint64_t* user_data, std::int32_t* res) {
        const unsigned head = *cq_head_;
        const unsigned tail = load_acquire(cq_tail_);
        if (head == tail) return false;
        const io_uring_cqe& cqe = cqes_[head & cq_mask_];
        *user_data = cqe.user_data;
        *res = cqe.res;
        store_release(cq_head_, head + 1);
        --inflight_;
        return true;
    }

    unsigned inflight() const { return inflight_; }

  private:
    Ring() = default;

    int fd_ = -1;
    int data_fd_ = -1;
    void* sq_mem_ = nullptr;
    void* cq_mem_ = nullptr;
    void* sqe_mem_ = nullptr;
    std::size_t sq_len_ = 0;
    std::size_t cq_len_ = 0;
    std::size_t sqe_len_ = 0;
    unsigned sq_entries_ = 0;
    unsigned cq_entries_ = 0;
    unsigned* sq_head_ = nullptr;
    unsigned* sq_tail_ = nullptr;
    unsigned sq_mask_ = 0;
    unsigned* sq_array_ = nullptr;
    unsigned* cq_head_ = nullptr;
    unsigned* cq_tail_ = nullptr;
    unsigned cq_mask_ = 0;
    io_uring_sqe* sqes_ = nullptr;
    io_uring_cqe* cqes_ = nullptr;
    bool fixed_file_ = false;
    bool fixed_buffers_ = false;
    const BufferPool* arena_ = nullptr;
    unsigned prepped_ = 0;
    unsigned inflight_ = 0;
};

/// A small pool of rings per device so several concurrent batches can
/// each drive their own in-kernel queue. Acquisition is non-blocking: a
/// batch that finds every ring busy takes the blocking preadv path
/// instead of waiting (the contended case is exactly when the disk is
/// already saturated).
class RingPool {
  public:
    static constexpr std::size_t kRings = 4;

    static std::unique_ptr<RingPool> create(int data_fd, const BufferPool* arena) {
        auto pool = std::unique_ptr<RingPool>(new RingPool);
        for (std::size_t i = 0; i < kRings; ++i) {
            auto ring = Ring::create(data_fd, arena);
            if (ring == nullptr) break;
            pool->rings_.push_back(std::move(ring));
        }
        if (pool->rings_.empty()) return nullptr;
        pool->free_.reserve(pool->rings_.size());
        for (auto& r : pool->rings_) pool->free_.push_back(r.get());
        return pool;
    }

    Ring* try_acquire() {
        std::lock_guard lk(mu_);
        if (free_.empty()) return nullptr;
        Ring* r = free_.back();
        free_.pop_back();
        return r;
    }

    void release(Ring* r) {
        std::lock_guard lk(mu_);
        free_.push_back(r);
    }

  private:
    RingPool() = default;

    std::vector<std::unique_ptr<Ring>> rings_;
    std::mutex mu_;
    std::vector<Ring*> free_;
};

#else  // !ECFRM_HAVE_URING

/// Stub so UringDisk compiles (and degrades to the pread path) on
/// toolchains without io_uring headers.
class RingPool {
  public:
    static std::unique_ptr<RingPool> create(int /*data_fd*/, const BufferPool* /*arena*/) {
        return nullptr;
    }
};

#endif  // ECFRM_HAVE_URING

}  // namespace uring_detail

// ---------------------------------------------------------------------------
// UringDisk
// ---------------------------------------------------------------------------

UringDisk::UringDisk(std::string data_path, std::string map_path, std::string failed_path,
                     std::int64_t element_bytes, IoBackend mode, BufferPool* arena)
    : data_path_(std::move(data_path)),
      map_path_(std::move(map_path)),
      failed_path_(std::move(failed_path)),
      element_bytes_(element_bytes),
      mode_(mode),
      arena_(arena) {}

UringDisk::~UringDisk() {
    {
        std::lock_guard lk(io_.mu);
        io_.stop = true;
    }
    io_.work.notify_one();
    if (io_.thread.joinable()) io_.thread.join();
    close_files();
}

bool UringDisk::uring_available() {
#if defined(ECFRM_HAVE_URING)
    static const bool available = []() {
        io_uring_params p{};
        const int fd = uring_detail::sys_io_uring_setup(4, &p);
        if (fd < 0) return false;
        ::close(fd);
        return true;
    }();
    return available;
#else
    return false;
#endif
}

Result<std::unique_ptr<UringDisk>> UringDisk::open(const std::string& dir, int index,
                                                   std::int64_t element_bytes, IoBackend mode,
                                                   BufferPool* arena) {
    if (element_bytes <= 0) return Error::invalid("element_bytes must be positive");
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) return Error::io("not a directory: " + dir);

    const std::string stem = dir + "/disk_" + std::to_string(index);
    auto disk = std::unique_ptr<UringDisk>(
        new UringDisk(stem + ".dat", stem + ".map", stem + ".failed", element_bytes, mode, arena));
    disk->failed_ = fs::exists(disk->failed_path_, ec);
    if (!disk->failed_) {
        auto status = disk->open_files();
        if (!status.ok()) return status.error();
        status = disk->load_map();
        if (!status.ok()) return status.error();
    }
    return disk;
}

Status UringDisk::open_files() {
    data_fd_ = ::open(data_path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    map_fd_ = ::open(map_path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (data_fd_ < 0 || map_fd_ < 0) {
        close_files();
        return Error::io("cannot open device files under " + data_path_);
    }
    if (mode_ == IoBackend::uring && uring_available()) {
        rings_ = uring_detail::RingPool::create(data_fd_, arena_);
    }
    return Status::success();
}

void UringDisk::close_files() {
    rings_.reset();  // rings hold the registered data fd; tear down first
    if (data_fd_ >= 0) {
        ::close(data_fd_);
        data_fd_ = -1;
    }
    if (map_fd_ >= 0) {
        ::close(map_fd_);
        map_fd_ = -1;
    }
}

Status UringDisk::load_map() {
    written_.clear();
    struct stat st{};
    if (::fstat(map_fd_, &st) != 0) return Error::io("stat failed on map file");
    const auto size = static_cast<std::size_t>(st.st_size);
    std::vector<std::uint8_t> raw(size);
    if (size > 0) {
        auto status = pread_full(map_fd_, raw.data(), size, 0);
        if (!status.ok()) return Error::io("short read on map file");
    }
    written_.resize(size, false);
    for (std::size_t i = 0; i < size; ++i) written_[i] = raw[i] != 0;
    return Status::success();
}

Status UringDisk::flush_files() {
    // fd-based backend: nothing is buffered in userspace, so the page
    // cache is already the durability point; only the opt-in fsync costs
    // anything.
    if (!fsync_enabled()) return Status::success();
    if (::fsync(data_fd_) != 0 || ::fsync(map_fd_) != 0) {
        return Error::io("fsync failed on device files");
    }
    return Status::success();
}

Status UringDisk::write(RowId row, ConstByteSpan data) {
    if (row < 0) return Error::range("negative row");
    if (static_cast<std::int64_t>(data.size()) != element_bytes_) {
        return Error::invalid("element size mismatch on write");
    }
    std::lock_guard lk(mu_);
    if (failed_) return Error::disk_failed("write to failed disk");
    auto st = pwrite_full(data_fd_, data.data(), data.size(), element_offset(row, element_bytes_));
    if (!st.ok()) return st;
    // pwrite past EOF zero-fills the gap, so skipped map rows read back
    // as 0 with no explicit padding writes.
    const std::uint8_t one = 1;
    st = pwrite_full(map_fd_, &one, 1, static_cast<off_t>(row));
    if (!st.ok()) return Error::io("write failed on map file");
    if (static_cast<std::size_t>(row) >= written_.size()) {
        written_.resize(static_cast<std::size_t>(row) + 1, false);
    }
    written_[static_cast<std::size_t>(row)] = true;
    return flush_files();
}

Status UringDisk::read(RowId row, ByteSpan out) const {
    if (row < 0) return Error::range("negative row");
    if (static_cast<std::int64_t>(out.size()) != element_bytes_) {
        return Error::invalid("element size mismatch on read");
    }
    std::shared_lock lk(mu_);
    if (failed_) return Error::disk_failed("read from failed disk");
    if (static_cast<std::size_t>(row) >= written_.size() ||
        !written_[static_cast<std::size_t>(row)]) {
        return Error::range("row never written");
    }
    return pread_full(data_fd_, out.data(), out.size(), element_offset(row, element_bytes_));
}

Status UringDisk::check_batch(std::span<const RowId> rows, std::span<const ByteSpan> outs) const {
    if (rows.size() != outs.size()) return Error::invalid("batch rows/buffers size mismatch");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (rows[i] < 0) return Error::range("negative row");
        if (static_cast<std::int64_t>(outs[i].size()) != element_bytes_) {
            return Error::invalid("element size mismatch on read");
        }
    }
    return Status::success();
}

void UringDisk::plan_reads(std::span<const RowId> rows, std::span<const ByteSpan> outs,
                           ReadPlan& plan) const {
    auto adjacent = [&](std::size_t i) { return i > 0 && rows[i] == rows[i - 1] + 1; };
    auto contiguous = [&](std::size_t i) {
        return adjacent(i) && outs[i - 1].data() + outs[i - 1].size() == outs[i].data();
    };
    // Size both lists exactly: one small allocation each.
    std::size_t runs = 0;
    std::size_t iovs = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        runs += adjacent(i) ? 0 : 1;
        iovs += contiguous(i) ? 0 : 1;
    }
    plan.runs.reserve(runs);
    plan.iov.reserve(iovs);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!adjacent(i)) {
            plan.runs.push_back({0, element_offset(rows[i], element_bytes_), plan.iov.size(), 0});
        }
        Run& run = plan.runs.back();
        ++run.count;
        if (contiguous(i)) {
            plan.iov.back().iov_len += outs[i].size();
        } else {
            plan.iov.push_back({outs[i].data(), outs[i].size()});
            ++run.iov_count;
        }
    }
}

Status UringDisk::read_run(const Run& run, std::span<::iovec> iov) const {
    if (run.iov_count == 1) {
        // One destination: plain pread, which costs the kernel less than
        // importing a one-entry iovec (it shows at small elements).
        const ::iovec& dst = iov[run.iov_first];
        return pread_full(data_fd_, static_cast<std::uint8_t*>(dst.iov_base), dst.iov_len,
                          static_cast<off_t>(run.offset));
    }
    return preadv_full(data_fd_, iov.subspan(run.iov_first, run.iov_count),
                       static_cast<off_t>(run.offset));
}

Status UringDisk::transfer(std::span<const RowId> rows, ReadPlan& plan, std::size_t& done) const {
    done = 0;
    std::shared_lock lk(mu_);
    if (failed_) return Error::disk_failed("read from failed disk");
    for (const RowId row : rows) {
        const auto r = static_cast<std::size_t>(row);
        if (r >= written_.size() || !written_[r]) return Error::range("row never written");
    }
#if defined(ECFRM_HAVE_URING)
    if (rings_ != nullptr && !plan.runs.empty()) {
        if (uring_detail::Ring* ring = rings_->try_acquire()) {
            Status status = ring_read(*ring, plan);
            rings_->release(ring);
            for (const Run& run : plan.runs) {
                if (!run.ok) break;
                done += run.count;
            }
            return status;
        }
    }
#endif
    // pread mode, uring unavailable, or every ring busy (the contended
    // case is exactly when the disk is already saturated).
    for (const Run& run : plan.runs) {
        auto status = read_run(run, plan.iov);
        if (!status.ok()) return status;
        done += run.count;
    }
    return Status::success();
}

#if defined(ECFRM_HAVE_URING)

Status UringDisk::ring_read(uring_detail::Ring& ring, ReadPlan& plan) const {
    Status error = Status::success();
    auto note = [&](Status status) {
        if (!status.ok() && error.ok()) error = std::move(status);
    };
    auto complete = [&](std::uint64_t tag, std::int32_t res) {
        Run& run = plan.runs[static_cast<std::size_t>(tag)];
        if (res >= 0 && static_cast<std::size_t>(res) == plan.iov[run.iov_first].iov_len) {
            run.ok = true;
        } else if (res > 0) {
            // Short read (signal, racing truncate): redo the run with the
            // blocking path — re-reading the whole run is idempotent.
            Status status = read_run(run, plan.iov);
            run.ok = status.ok();
            note(std::move(status));
        } else {
            note(res == 0 ? Error::io("short read on data file")
                          : Error::io("io_uring read failed on data file"));
        }
    };
    // Submit everything prepped, wait for `min` completions (capped at
    // what is in flight) and settle every reapable one.
    auto drain = [&](unsigned min) {
        if (!ring.submit_and_wait(min)) {
            note(Error::io("io_uring_enter failed"));
            return false;
        }
        std::uint64_t tag = 0;
        std::int32_t res = 0;
        while (ring.reap(&tag, &res)) complete(tag, res);
        return true;
    };
    for (std::size_t r = 0; r < plan.runs.size(); ++r) {
        Run& run = plan.runs[r];
        run.ok = false;
        if (run.iov_count != 1) {
            // A scattered run is one preadv, not an SQE per element.
            Status status = read_run(run, plan.iov);
            run.ok = status.ok();
            note(std::move(status));
            continue;
        }
        const ::iovec& dst = plan.iov[run.iov_first];
        // Batches larger than the ring still work: drain completions
        // whenever the SQ/CQ budget fills, then keep pushing.
        while (!ring.prep_read(static_cast<std::uint8_t*>(dst.iov_base), dst.iov_len,
                               static_cast<off_t>(run.offset), r)) {
            if (!drain(1)) return error;
        }
    }
    // Submit the rest and wait until every completion has settled.
    while (drain(~0u) && ring.inflight() > 0) {
    }
    return error;
}

#endif  // ECFRM_HAVE_URING

/// One submitted batch. It sits in its disk's FIFO while queued, until
/// claimed — by the disk's I/O thread, or by await() when the thread has
/// not reached it yet. Both claims are made under the FIFO's mutex and
/// take the job out of the FIFO, so the thread never touches a job an
/// awaiter took, and a claimed job can be freed as soon as it is served.
/// Served, it holds the device lock only while it runs.
class UringDisk::ReadJob final : public BlockDevice::AsyncBatch {
  public:
    /// A batch refused at submit: settled already.
    explicit ReadJob(Status status) : status_(std::move(status)) {}

    ReadJob(const UringDisk* disk, std::span<const RowId> rows, std::span<const ByteSpan> outs)
        : disk_(disk), rows_(rows) {
        disk->plan_reads(rows, outs, plan_);
    }

    // The FIFO and the I/O thread hold the job's address.
    ReadJob(const ReadJob&) = delete;
    ReadJob& operator=(const ReadJob&) = delete;

    ~ReadJob() override {
        // An abandoned batch still has a transfer targeting caller
        // buffers; finish it before those buffers can die.
        if (!awaited_) settle();
    }

    Status await(std::size_t* completed) override {
        settle();
        awaited_ = true;
        if (completed != nullptr) *completed = done_;
        return std::move(status_);
    }

  private:
    friend class UringDisk;

    void serve() {
        try {
            status_ = disk_->transfer(rows_, plan_, done_);
        } catch (...) {
            // Only a failing allocation or lock throws here, and an
            // exception escaping the I/O thread would end the process:
            // the batch reports it instead.
            status_ = Error{Error::Code::internal, {}};
        }
    }

    /// Runs once per job: from await(), or from the destructor of a job
    /// never awaited.
    void settle() {
        if (disk_ == nullptr) return;  // refused at submit
        IoThread& io = disk_->io_;
        std::unique_lock lk(io.mu);
        if (claimed_) {
            io.done.wait(lk, [this] { return served_; });
            return;
        }
        // Not started: serve it here rather than wait for the thread.
        ReadJob** link = &io.head;
        ReadJob* prev = nullptr;
        while (*link != this) {
            prev = *link;
            link = &prev->next_;
        }
        *link = next_;
        if (io.tail == this) io.tail = prev;
        claimed_ = true;
        lk.unlock();
        serve();
    }

    const UringDisk* disk_ = nullptr;
    std::span<const RowId> rows_;
    ReadPlan plan_;
    Status status_ = Status::success();
    std::size_t done_ = 0;
    // Under IoThread::mu:
    ReadJob* next_ = nullptr;  // FIFO link
    bool claimed_ = false;     // out of the FIFO, being served
    bool served_ = false;      // served by the I/O thread
    bool awaited_ = false;     // the owner's alone
};

void UringDisk::serve_jobs() const {
    std::unique_lock lk(io_.mu);
    for (;;) {
        io_.work.wait(lk, [this] { return io_.head != nullptr || io_.stop; });
        ReadJob* job = io_.head;
        if (job == nullptr) return;  // stopped, FIFO drained
        io_.head = job->next_;
        if (io_.head == nullptr) io_.tail = nullptr;
        job->claimed_ = true;
        lk.unlock();
        job->serve();
        lk.lock();
        job->served_ = true;
        io_.done.notify_all();
    }
}

std::unique_ptr<BlockDevice::AsyncBatch> UringDisk::submit_read_batch(
    std::span<const RowId> rows, std::span<const ByteSpan> outs) const {
    Status valid = check_batch(rows, outs);
    if (!valid.ok()) return std::make_unique<ReadJob>(std::move(valid));
    auto job = std::make_unique<ReadJob>(this, rows, outs);
    {
        std::lock_guard lk(io_.mu);
        if (!io_.thread.joinable()) {
            try {
                io_.thread = std::thread([this] { serve_jobs(); });
            } catch (const std::system_error&) {
                // No thread to be had: the job waits in the FIFO and its
                // await() serves it, as read_batch would have.
            }
        }
        if (io_.tail != nullptr) {
            io_.tail->next_ = job.get();
        } else {
            io_.head = job.get();
        }
        io_.tail = job.get();
    }
    io_.work.notify_one();
    return job;
}

Status UringDisk::read_batch(std::span<const RowId> rows, std::span<const ByteSpan> outs,
                             std::size_t* completed) const {
    if (completed != nullptr) *completed = 0;
    Status valid = check_batch(rows, outs);
    if (!valid.ok()) return valid;
    ReadPlan plan;
    plan_reads(rows, outs, plan);
    std::size_t done = 0;
    Status status = transfer(rows, plan, done);
    if (completed != nullptr) *completed = done;
    return status;
}

bool UringDisk::async_reads() const { return true; }

bool UringDisk::uring_active() const {
    std::shared_lock lk(mu_);
    return rings_ != nullptr;
}

Status UringDisk::write_batch(std::span<const RowId> rows, std::span<const ConstByteSpan> payloads,
                              std::size_t* completed) {
    if (completed != nullptr) *completed = 0;
    if (rows.size() != payloads.size()) return Error::invalid("batch rows/payloads size mismatch");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (rows[i] < 0) return Error::range("negative row");
        if (static_cast<std::int64_t>(payloads[i].size()) != element_bytes_) {
            return Error::invalid("element size mismatch on write");
        }
    }
    std::lock_guard lk(mu_);
    if (failed_) return Error::disk_failed("write to failed disk");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        auto st = pwrite_full(data_fd_, payloads[i].data(), payloads[i].size(),
                              element_offset(rows[i], element_bytes_));
        if (!st.ok()) return st;
        const std::uint8_t one = 1;
        st = pwrite_full(map_fd_, &one, 1, static_cast<off_t>(rows[i]));
        if (!st.ok()) return Error::io("write failed on map file");
        const auto row = static_cast<std::size_t>(rows[i]);
        if (row >= written_.size()) written_.resize(row + 1, false);
        written_[row] = true;
        if (completed != nullptr) *completed = i + 1;
    }
    // One durability point per batch (an fsync only under ECFRM_FSYNC).
    return flush_files();
}

void UringDisk::fail() {
    std::lock_guard lk(mu_);
    failed_ = true;
    close_files();
    std::error_code ec;
    fs::remove(data_path_, ec);
    fs::remove(map_path_, ec);
    std::FILE* marker = std::fopen(failed_path_.c_str(), "wb");
    if (marker != nullptr) std::fclose(marker);
    written_.clear();
}

void UringDisk::replace() {
    std::lock_guard lk(mu_);
    std::error_code ec;
    fs::remove(data_path_, ec);
    fs::remove(map_path_, ec);
    written_.clear();
    close_files();
    // A replacement whose files cannot be created (its directory is gone,
    // say) stays failed, so callers see disk_failed rather than an
    // io_error on every op.
    if (!open_files().ok()) {
        failed_ = true;
        return;
    }
    fs::remove(failed_path_, ec);
    failed_ = false;
}

bool UringDisk::failed() const { return failed_.load(std::memory_order_acquire); }

RowId UringDisk::rows() const {
    std::shared_lock lk(mu_);
    return static_cast<RowId>(written_.size());
}

Status UringDisk::corrupt_byte(RowId row, std::size_t offset) {
    std::lock_guard lk(mu_);
    if (failed_) return Error::disk_failed("corrupting a failed disk");
    if (row < 0 || static_cast<std::size_t>(row) >= written_.size() ||
        !written_[static_cast<std::size_t>(row)]) {
        return Error::range("row never written");
    }
    if (offset >= static_cast<std::size_t>(element_bytes_)) {
        return Error::range("offset beyond element");
    }
    const off_t pos = element_offset(row, element_bytes_) + static_cast<off_t>(offset);
    std::uint8_t byte = 0;
    auto st = pread_full(data_fd_, &byte, 1, pos);
    if (!st.ok()) return Error::io("read failed during corruption");
    byte ^= 0xff;
    st = pwrite_full(data_fd_, &byte, 1, pos);
    if (!st.ok()) return Error::io("write failed during corruption");
    return Status::success();
}

}  // namespace ecfrm::store
