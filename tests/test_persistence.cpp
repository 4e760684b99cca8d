// Manifest and persistent StripeStore: data survives close and reopen;
// failed disks persist; corruption hooks work on files too. The file
// device itself is covered per backend in test_file_io.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "codes/factory.h"
#include "common/rng.h"
#include "store/io_backend.h"
#include "store/manifest.h"
#include "store/stripe_store.h"

namespace ecfrm::store {
namespace {

namespace fs = std::filesystem;
using layout::LayoutKind;

class TempDir {
  public:
    explicit TempDir(const std::string& tag) {
        path_ = (fs::temp_directory_path() / ("ecfrm_test_" + tag + "_" +
                                              std::to_string(::getpid())))
                    .string();
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> data(size);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
    return data;
}

core::Scheme make_scheme(const std::string& spec, LayoutKind kind) {
    auto code = codes::make_code(spec);
    EXPECT_TRUE(code.ok());
    return core::Scheme(code.value(), kind);
}

StripeStore::DeviceFactory file_factory(const std::string& dir, std::int64_t element_bytes) {
    return [dir, element_bytes](int index) -> Result<std::unique_ptr<BlockDevice>> {
        return open_file_device(dir, index, element_bytes);
    };
}

TEST(Manifest, SaveLoadRoundTrip) {
    TempDir dir("manifest");
    Manifest m;
    m.code_spec = "lrc:6,2,2";
    m.kind = LayoutKind::ecfrm;
    m.element_bytes = 4096;
    m.logical_bytes = 123456;
    m.stripes = 7;
    ASSERT_TRUE(m.save(dir.path()).ok());

    auto loaded = Manifest::load(dir.path());
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->code_spec, "lrc:6,2,2");
    EXPECT_EQ(loaded->kind, LayoutKind::ecfrm);
    EXPECT_EQ(loaded->element_bytes, 4096);
    EXPECT_EQ(loaded->logical_bytes, 123456);
    EXPECT_EQ(loaded->stripes, 7);
}

TEST(Manifest, LoadRejectsMissingOrMalformed) {
    TempDir dir("manifest_bad");
    EXPECT_FALSE(Manifest::load(dir.path()).ok());  // no file

    std::ofstream(dir.path() + "/MANIFEST") << "code=rs:6,3\nlayout=ecfrm\n";  // missing keys
    EXPECT_FALSE(Manifest::load(dir.path()).ok());

    std::ofstream(dir.path() + "/MANIFEST", std::ios::trunc)
        << "code=rs:6,3\nlayout=ecfrm\nelement_bytes=zap\nlogical_bytes=0\nstripes=0\n";
    EXPECT_FALSE(Manifest::load(dir.path()).ok());
}

TEST(Manifest, ObjectRecordsRoundTrip) {
    TempDir dir("manifest_objects");
    Manifest m;
    m.code_spec = "rs:6,3";
    m.kind = LayoutKind::standard;
    m.element_bytes = 64;
    m.logical_bytes = 5000;
    m.stripes = 20;
    m.extents.push_back({0, 0, 5000});
    m.objects.push_back({"songs/track01.mp3", 0, 3000});
    m.objects.push_back({"track02", 3000, 2000});
    ASSERT_TRUE(m.save(dir.path()).ok());

    auto loaded = Manifest::load(dir.path());
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->objects.size(), 2u);
    EXPECT_EQ(loaded->objects[0], m.objects[0]);
    EXPECT_EQ(loaded->objects[1], m.objects[1]);
    ASSERT_NE(loaded->find_object("track02"), nullptr);
    EXPECT_EQ(loaded->find_object("track02")->offset, 3000);
    EXPECT_EQ(loaded->find_object("missing"), nullptr);
}

TEST(Manifest, RejectsColonInObjectName) {
    TempDir dir("manifest_badname");
    Manifest m;
    m.code_spec = "rs:6,3";
    m.kind = LayoutKind::standard;
    m.element_bytes = 64;
    m.objects.push_back({"bad:name", 0, 10});
    EXPECT_FALSE(m.save(dir.path()).ok());
}

TEST(Manifest, ParseLayoutKind) {
    EXPECT_TRUE(parse_layout_kind("standard").ok());
    EXPECT_TRUE(parse_layout_kind("rotated").ok());
    EXPECT_TRUE(parse_layout_kind("ecfrm").ok());
    EXPECT_FALSE(parse_layout_kind("diagonal").ok());
}

TEST(PersistentStore, SurvivesCloseAndReopen) {
    TempDir dir("pstore");
    const std::int64_t elem = 64;
    const auto data = random_bytes(64 * 75, 42);

    {
        auto st = StripeStore::open(make_scheme("lrc:6,2,2", LayoutKind::ecfrm), elem,
                                    file_factory(dir.path(), elem));
        ASSERT_TRUE(st.ok());
        ASSERT_TRUE(st.value()->append(ConstByteSpan(data.data(), data.size())).ok());
        ASSERT_TRUE(st.value()->flush().ok());

        Manifest m;
        m.code_spec = "lrc:6,2,2";
        m.kind = LayoutKind::ecfrm;
        m.element_bytes = elem;
        m.logical_bytes = st.value()->logical_bytes();
        m.stripes = st.value()->stored_data_elements() / st.value()->scheme().layout().data_per_stripe();
        ASSERT_TRUE(m.save(dir.path()).ok());
    }

    // Reopen in a fresh store object and read everything back.
    auto manifest = Manifest::load(dir.path());
    ASSERT_TRUE(manifest.ok());
    auto st = StripeStore::open(make_scheme(manifest->code_spec, manifest->kind), manifest->element_bytes,
                                file_factory(dir.path(), manifest->element_bytes));
    ASSERT_TRUE(st.ok());
    ASSERT_TRUE(st.value()->restore(manifest->logical_bytes, manifest->stripes).ok());
    EXPECT_TRUE(st.value()->verify_parity().ok());

    auto out = st.value()->read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);
}

TEST(PersistentStore, DegradedReadAndReconstructOnFiles) {
    TempDir dir("pstore_degraded");
    const std::int64_t elem = 64;
    const auto data = random_bytes(64 * 75, 43);

    auto st = StripeStore::open(make_scheme("rs:6,3", LayoutKind::ecfrm), elem,
                                file_factory(dir.path(), elem));
    ASSERT_TRUE(st.ok());
    ASSERT_TRUE(st.value()->append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(st.value()->flush().ok());

    ASSERT_TRUE(st.value()->fail_disk(4).ok());
    auto out = st.value()->read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);

    ASSERT_TRUE(st.value()->reconstruct_disk(4).ok());
    EXPECT_TRUE(st.value()->verify_parity().ok());
}

TEST(PersistentStore, ScrubRepairsFileBackedCorruption) {
    TempDir dir("pstore_scrub");
    const std::int64_t elem = 64;
    const auto data = random_bytes(64 * 36, 44);

    auto st = StripeStore::open(make_scheme("rs:6,3", LayoutKind::standard), elem,
                                file_factory(dir.path(), elem));
    ASSERT_TRUE(st.ok());
    ASSERT_TRUE(st.value()->append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(st.value()->flush().ok());

    const Location loc = st.value()->scheme().layout().locate_data(10);
    ASSERT_TRUE(st.value()->corrupt_element(loc.disk, loc.row, 7).ok());
    auto report = st.value()->scrub();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->elements_repaired, 1);

    auto out = st.value()->read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);
}

TEST(PersistentStore, MultiExtentArchiveSurvivesReopen) {
    // Two separate put-like sessions (append + flush each) create two
    // extents; the manifest must carry them and reads must stay contiguous.
    TempDir dir("pstore_extents");
    const std::int64_t elem = 64;
    const auto part1 = random_bytes(64 * 4 + 9, 51);
    const auto part2 = random_bytes(64 * 20 + 3, 52);

    {
        auto st = StripeStore::open(make_scheme("rs:6,3", LayoutKind::ecfrm), elem,
                                    file_factory(dir.path(), elem));
        ASSERT_TRUE(st.ok());
        ASSERT_TRUE(st.value()->append(ConstByteSpan(part1.data(), part1.size())).ok());
        ASSERT_TRUE(st.value()->flush().ok());
        ASSERT_TRUE(st.value()->append(ConstByteSpan(part2.data(), part2.size())).ok());
        ASSERT_TRUE(st.value()->flush().ok());
        ASSERT_EQ(st.value()->extents().size(), 2u);

        Manifest m;
        m.code_spec = "rs:6,3";
        m.kind = LayoutKind::ecfrm;
        m.element_bytes = elem;
        m.logical_bytes = st.value()->logical_bytes();
        m.stripes = st.value()->stored_data_elements() / st.value()->scheme().layout().data_per_stripe();
        m.extents = st.value()->extents();
        ASSERT_TRUE(m.save(dir.path()).ok());
    }

    auto manifest = Manifest::load(dir.path());
    ASSERT_TRUE(manifest.ok());
    ASSERT_EQ(manifest->extents.size(), 2u);
    auto st = StripeStore::open(make_scheme(manifest->code_spec, manifest->kind), manifest->element_bytes,
                                file_factory(dir.path(), manifest->element_bytes));
    ASSERT_TRUE(st.ok());
    ASSERT_TRUE(st.value()->restore(manifest->extents, manifest->stripes).ok());

    std::vector<std::uint8_t> expect = part1;
    expect.insert(expect.end(), part2.begin(), part2.end());
    auto out = st.value()->read_bytes(0, static_cast<std::int64_t>(expect.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), expect);
}

TEST(PersistentStore, RestoreRejectsNonsense) {
    TempDir dir("pstore_restore");
    auto st = StripeStore::open(make_scheme("rs:6,3", LayoutKind::ecfrm), 64,
                                file_factory(dir.path(), 64));
    ASSERT_TRUE(st.ok());
    EXPECT_FALSE(st.value()->restore(-1, 0).ok());
    EXPECT_FALSE(st.value()->restore(1000000, 1).ok());  // exceeds capacity of 1 stripe
    EXPECT_TRUE(st.value()->restore(0, 0).ok());

    // Overlapping element ranges (a corrupted manifest) are rejected.
    std::vector<Extent> overlapping{{0, 0, 64 * 4}, {64 * 4, 2, 64 * 2}};
    EXPECT_FALSE(st.value()->restore(std::move(overlapping), 2).ok());
    // A legitimate gap (padding) is fine.
    std::vector<Extent> gapped{{0, 0, 64 * 4}, {64 * 4, 18, 64 * 2}};
    EXPECT_TRUE(st.value()->restore(std::move(gapped), 2).ok());
}

}  // namespace
}  // namespace ecfrm::store
