// Encode/decode throughput for the shipped codes (google-benchmark).
// Demonstrates that coding compute (GB/s) dwarfs disk bandwidth (~125 MB/s
// per spindle), the paper's justification for focusing on I/O layout.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "codes/factory.h"
#include "common/aligned_buffer.h"
#include "common/rng.h"

namespace {

using namespace ecfrm;

struct CodecFixture {
    std::shared_ptr<codes::ErasureCode> code;
    std::vector<AlignedBuffer> bufs;
    std::vector<ConstByteSpan> data;
    std::vector<ByteSpan> parity;

    CodecFixture(const std::string& spec, std::size_t elem_bytes) {
        auto made = codes::make_code(spec);
        if (!made.ok()) std::abort();
        code = made.value();
        bufs.resize(static_cast<std::size_t>(code->n()));
        Rng rng(1);
        for (auto& b : bufs) {
            b = AlignedBuffer(elem_bytes);
            for (std::size_t i = 0; i < elem_bytes; ++i) b[i] = static_cast<std::uint8_t>(rng.next_below(256));
        }
        for (int i = 0; i < code->k(); ++i) data.push_back(bufs[static_cast<std::size_t>(i)].span());
        for (int p = 0; p < code->m(); ++p) parity.push_back(bufs[static_cast<std::size_t>(code->k() + p)].span());
    }
};

void BM_Encode(benchmark::State& state, const std::string& spec) {
    CodecFixture fx(spec, 1 << 20);
    for (auto _ : state) {
        fx.code->encode(fx.data, fx.parity);
        benchmark::DoNotOptimize(fx.bufs.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * fx.code->k() * (1 << 20));
}
BENCHMARK_CAPTURE(BM_Encode, rs63, std::string("rs:6,3"));
BENCHMARK_CAPTURE(BM_Encode, rs105, std::string("rs:10,5"));
BENCHMARK_CAPTURE(BM_Encode, lrc622, std::string("lrc:6,2,2"));
BENCHMARK_CAPTURE(BM_Encode, lrc1024, std::string("lrc:10,2,4"));

void BM_DecodeWorstCase(benchmark::State& state, const std::string& spec) {
    CodecFixture fx(spec, 1 << 20);
    fx.code->encode(fx.data, fx.parity);
    // Erase the first `tolerance` positions and rebuild them.
    const int f = fx.code->fault_tolerance();
    std::vector<int> available;
    std::vector<int> wanted;
    for (int i = 0; i < fx.code->n(); ++i) {
        if (i < f) {
            wanted.push_back(i);
        } else {
            available.push_back(i);
        }
    }
    auto plan = fx.code->plan_decode(available, wanted);
    if (!plan.ok()) std::abort();
    std::vector<ByteSpan> spans;
    for (auto& b : fx.bufs) spans.push_back(b.span());
    for (auto _ : state) {
        codes::ErasureCode::apply_plan(plan.value(), spans);
        benchmark::DoNotOptimize(fx.bufs.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * f * (1 << 20));
}
BENCHMARK_CAPTURE(BM_DecodeWorstCase, rs63, std::string("rs:6,3"));
BENCHMARK_CAPTURE(BM_DecodeWorstCase, lrc622, std::string("lrc:6,2,2"));

void BM_LocalRepair(benchmark::State& state) {
    CodecFixture fx("lrc:6,2,2", 1 << 20);
    fx.code->encode(fx.data, fx.parity);
    const auto spec = fx.code->repair_spec(0);
    auto repair = fx.code->solve_repair(0, spec.preferred);
    if (!repair.ok()) std::abort();
    codes::DecodePlan plan;
    plan.repairs.push_back(repair.value());
    std::vector<ByteSpan> spans;
    for (auto& b : fx.bufs) spans.push_back(b.span());
    for (auto _ : state) {
        codes::ErasureCode::apply_plan(plan, spans);
        benchmark::DoNotOptimize(fx.bufs.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * (1 << 20));
}
BENCHMARK(BM_LocalRepair);

}  // namespace

#include "gbench_main.h"  // artifact-aware BENCHMARK_MAIN replacement
