// google-benchmark microbenches for the performance-critical kernels:
// blocked GEMM (the fully-connected workhorse), ring all-reduce and
// broadcast over the in-process comm substrate, the data-store exchange,
// a full CycleGAN training step, the tournament score against the full
// evaluation, and the JAG simulator itself.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <vector>

#include "bench_telemetry.hpp"
#include "comm/communicator.hpp"
#include "data/data_reader.hpp"
#include "data/dataset.hpp"
#include "datastore/data_store.hpp"
#include "gan/cyclegan.hpp"
#include "jag/jag_model.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "util/compute_pool.hpp"
#include "util/rng.hpp"

namespace {

using namespace ltfb;

void fill_random(tensor::Tensor& t, std::uint64_t seed) {
  util::Rng rng(seed);
  for (auto& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Tensor a(n, n), b(n, n), c(n, n);
  fill_random(a, 1);
  fill_random(b, 2);
  for (auto _ : state) {
    tensor::matmul(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      tensor::gemm_flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
// Real time, not CPU time: pooled GEMMs run partly on workers, so the
// calling thread's CPU clock under-counts the work.
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->UseRealTime();

// GEMM thread scaling at a fixed shape: pool size is pinned per run so the
// numbers are comparable regardless of LTFB_COMPUTE_THREADS in the
// environment.
void BM_GemmPool(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  util::ComputePool::instance().resize(threads);
  tensor::Tensor a(n, n), b(n, n), c(n, n);
  fill_random(a, 1);
  fill_random(b, 2);
  for (auto _ : state) {
    tensor::matmul(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      tensor::gemm_flops(n, n, n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
  util::ComputePool::instance().resize(util::ComputePool::env_threads());
}
// Real time, not CPU time: the work runs on pool workers, so the calling
// thread's CPU clock under-counts by ~the thread count.
BENCHMARK(BM_GemmPool)->Args({512, 1})->Args({512, 4})->UseRealTime();

void BM_GemmTransposed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Tensor a(n, n), b(n, n), c(n, n);
  fill_random(a, 3);
  fill_random(b, 4);
  for (auto _ : state) {
    tensor::gemm(tensor::Op::Transpose, tensor::Op::None, 1.0f, a, b, 0.0f,
                 c);
    benchmark::DoNotOptimize(c.raw());
  }
}
BENCHMARK(BM_GemmTransposed)->Arg(128)->UseRealTime();

// GEMM shapes of one training step of the perfbench CycleGANs, plus 128^3.
// For a dense layer in->out at batch B: forward (B, out, in) NN, weight
// gradient (in, out, B) TN, input gradient (B, in, out) NT.
//   - dp-skinny (default widths, image width 192, per-rank batch 64): the
//     layers with a GEMM wider than one 64x128 macro-block — the only GEMMs
//     the pool can split; the single-block ones run inline at any pool size.
//     These readings set kParallelMnkThreshold in src/tensor/gemm.cpp: the
//     smallest m*n*k at which pool 2 beats serial.
//   - tournament-wide (image width 3072 + 15 scalars, batch 128): the
//     3087-wide first encoder layer (whose input gradient is never
//     computed) and last decoder layer, where most of a step's FLOPs are.
//   - the narrow outputs (batch 128): the critic's logit (16 -> 1), G's
//     parameter estimate (32 -> 5) and the encoder's latent (64 -> 20),
//     whose column counts are below one register tile.
struct GemmShape {
  const char* label;
  tensor::Op op_a, op_b;
  std::size_t m, n, k;
};
constexpr std::size_t kShapeBatch = 64;
constexpr std::size_t kWideBatch = 128;
constexpr std::size_t kWideWidth = 3087;
const GemmShape kGemmShapes[] = {
    {"enc1_fwd", tensor::Op::None, tensor::Op::None, kShapeBatch, 128, 207},
    {"enc1_wgrad", tensor::Op::Transpose, tensor::Op::None, 207, 128,
     kShapeBatch},
    {"enc1_dgrad", tensor::Op::None, tensor::Op::Transpose, kShapeBatch, 207,
     128},
    {"enc2_fwd", tensor::Op::None, tensor::Op::None, kShapeBatch, 64, 128},
    {"enc2_wgrad", tensor::Op::Transpose, tensor::Op::None, 128, 64,
     kShapeBatch},
    {"enc2_dgrad", tensor::Op::None, tensor::Op::Transpose, kShapeBatch, 128,
     64},
    {"dec3_fwd", tensor::Op::None, tensor::Op::None, kShapeBatch, 207, 128},
    {"dec3_wgrad", tensor::Op::Transpose, tensor::Op::None, 128, 207,
     kShapeBatch},
    {"dec3_dgrad", tensor::Op::None, tensor::Op::Transpose, kShapeBatch, 128,
     207},
    {"cube", tensor::Op::None, tensor::Op::None, 128, 128, 128},
    {"tw_e1_fwd", tensor::Op::None, tensor::Op::None, kWideBatch, 128,
     kWideWidth},
    {"tw_e1_wgrad", tensor::Op::Transpose, tensor::Op::None, kWideWidth, 128,
     kWideBatch},
    {"tw_dec3_fwd", tensor::Op::None, tensor::Op::None, kWideBatch,
     kWideWidth, 128},
    {"tw_dec3_wgrad", tensor::Op::Transpose, tensor::Op::None, 128,
     kWideWidth, kWideBatch},
    {"tw_dec3_dgrad", tensor::Op::None, tensor::Op::Transpose, kWideBatch,
     128, kWideWidth},
    {"d_out_fwd", tensor::Op::None, tensor::Op::None, kWideBatch, 1, 16},
    {"d_out_wgrad", tensor::Op::Transpose, tensor::Op::None, 16, 1,
     kWideBatch},
    {"d_out_dgrad", tensor::Op::None, tensor::Op::Transpose, kWideBatch, 16,
     1},
    {"g_out_fwd", tensor::Op::None, tensor::Op::None, kWideBatch, 5, 32},
    {"g_out_wgrad", tensor::Op::Transpose, tensor::Op::None, 32, 5,
     kWideBatch},
    {"g_out_dgrad", tensor::Op::None, tensor::Op::Transpose, kWideBatch, 32,
     5},
    {"e3_fwd", tensor::Op::None, tensor::Op::None, kWideBatch, 20, 64},
    {"e3_wgrad", tensor::Op::Transpose, tensor::Op::None, 64, 20, kWideBatch},
    {"e3_dgrad", tensor::Op::None, tensor::Op::Transpose, kWideBatch, 64, 20},
};

void BM_GemmShapes(benchmark::State& state) {
  const GemmShape& shape = kGemmShapes[static_cast<std::size_t>(state.range(0))];
  util::ComputePool::instance().resize(static_cast<std::size_t>(state.range(1)));
  tensor::Tensor a(shape.op_a == tensor::Op::None
                       ? tensor::Shape{shape.m, shape.k}
                       : tensor::Shape{shape.k, shape.m});
  tensor::Tensor b(shape.op_b == tensor::Op::None
                       ? tensor::Shape{shape.k, shape.n}
                       : tensor::Shape{shape.n, shape.k});
  tensor::Tensor c(shape.m, shape.n);
  fill_random(a, 5);
  fill_random(b, 6);
  for (auto _ : state) {
    tensor::gemm(shape.op_a, shape.op_b, 1.0f, a, b, 0.0f, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetLabel(shape.label);
  state.counters["mnk"] =
      static_cast<double>(shape.m * shape.n * shape.k);
  state.counters["GFLOP/s"] = benchmark::Counter(
      tensor::gemm_flops(shape.m, shape.n, shape.k) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
  util::ComputePool::instance().resize(util::ComputePool::env_threads());
}
BENCHMARK(BM_GemmShapes)
    ->ArgsProduct({benchmark::CreateDenseRange(
                       0, std::size(kGemmShapes) - 1, 1),
                   {1, 2, 4}})
    ->UseRealTime();

void BM_Allreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto elements = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    comm::World::run(ranks, [&](comm::Communicator& comm) {
      std::vector<float> data(elements,
                              static_cast<float>(comm.rank() + 1));
      comm.allreduce(data, comm::ReduceOp::Sum);
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.counters["bytes"] =
      static_cast<double>(elements) * sizeof(float);
}
BENCHMARK(BM_Allreduce)->Args({2, 1 << 14})->Args({4, 1 << 14});

void BM_Broadcast(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    comm::World::run(ranks, [&](comm::Communicator& comm) {
      std::vector<float> data(1 << 12, 1.0f);
      comm.broadcast(0, std::span<float>(data));
      benchmark::DoNotOptimize(data.data());
    });
  }
}
BENCHMARK(BM_Broadcast)->Arg(4);

void BM_JagSimulation(benchmark::State& state) {
  jag::JagConfig config;
  config.image_size = static_cast<std::size_t>(state.range(0));
  const jag::JagModel model(config);
  util::Rng rng(7);
  for (auto _ : state) {
    std::array<double, jag::kNumInputs> point{};
    for (auto& c : point) c = rng.uniform();
    const auto out = model.run(point);
    benchmark::DoNotOptimize(out.scalars.data());
  }
}
BENCHMARK(BM_JagSimulation)->Arg(16)->Arg(64);

void BM_CycleGanTrainStep(benchmark::State& state) {
  jag::JagConfig jag_config;
  jag_config.image_size = 8;
  jag_config.num_channels = 1;
  const jag::JagModel jag_model(jag_config);
  data::Dataset dataset = data::generate_jag_dataset(jag_model, 256, 5);
  const auto norms = data::fit_normalizers(dataset);
  data::normalize_dataset(dataset, norms);

  gan::CycleGanConfig config;
  config.image_width = jag_config.image_features();
  config.latent_width = 20;
  config.encoder_hidden = {64, 32};
  config.decoder_hidden = {32, 64};
  config.forward_hidden = {32, 32};
  config.inverse_hidden = {24};
  config.discriminator_hidden = {24, 12};
  gan::CycleGan model(config, 6);

  std::vector<std::size_t> view(dataset.size());
  std::iota(view.begin(), view.end(), 0);
  data::MiniBatchReader reader(dataset, view, 128, 7);
  // Argument 0 stands for env_threads(): the pool an unbound caller gets.
  const auto threads = static_cast<std::size_t>(state.range(0));
  util::ComputePool::instance().resize(
      threads == 0 ? util::ComputePool::env_threads() : threads);
  for (auto _ : state) {
    const auto metrics = model.train_step(reader.next());
    benchmark::DoNotOptimize(metrics.fidelity_loss);
  }
  state.counters["params"] = static_cast<double>(model.parameter_count());
  state.counters["threads"] =
      static_cast<double>(util::ComputePool::instance().size());
  util::ComputePool::instance().resize(util::ComputePool::env_threads());
}
// Serial versus the default pool: the real step at N threads should be no
// slower than at 1.
BENCHMARK(BM_CycleGanTrainStep)->Arg(1)->Arg(0)->UseRealTime();

// One pass of `pass` over a 128-row batch at the tournament-wide shape of
// perfbench: 16x16 images x 3 views x 4 channels (3087 output features),
// the default hidden widths, on one thread (a rank's share when four ranks
// split a 4-CPU host).
template <typename Pass>
void run_wide_gan_pass(benchmark::State& state, const Pass& pass) {
  jag::JagConfig jag_config;
  jag_config.image_size = 16;
  jag_config.num_views = 3;
  jag_config.num_channels = 4;
  const jag::JagModel jag_model(jag_config);
  data::Dataset dataset = data::generate_jag_dataset(jag_model, 128, 8);
  data::normalize_dataset(dataset, data::fit_normalizers(dataset));
  gan::CycleGanConfig config;
  config.image_width = jag_config.image_features();
  gan::CycleGan model(config, 9);
  std::vector<std::size_t> rows(dataset.size());
  std::iota(rows.begin(), rows.end(), 0);
  const data::Batch batch = data::make_batch(dataset, rows);
  util::ComputePool::instance().resize(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pass(model, batch));
  }
  util::ComputePool::instance().resize(util::ComputePool::env_threads());
}

// What a tournament score runs: F, Dec(F(x)) and G(F(x)).
void BM_GanScore(benchmark::State& state) {
  run_wide_gan_pass(state, [](gan::CycleGan& model, const data::Batch& b) {
    return model.score(b, /*adversarial=*/false).total();
  });
}
BENCHMARK(BM_GanScore)->UseRealTime();

// The full evaluation a report reads: the score plus E, a second Dec pass
// and the critic on real and predicted latents.
void BM_GanEvaluate(benchmark::State& state) {
  run_wide_gan_pass(state, [](gan::CycleGan& model, const data::Batch& b) {
    return model.evaluate(b).total();
  });
}
BENCHMARK(BM_GanEvaluate)->UseRealTime();

void BM_DataStoreFetch(benchmark::State& state) {
  const auto dir =
      std::filesystem::temp_directory_path() / "ltfb_bench_store";
  std::filesystem::remove_all(dir);
  data::SampleSchema schema;
  schema.input_width = 5;
  schema.scalar_width = 15;
  schema.image_width = 192;
  std::vector<data::Sample> samples;
  for (data::SampleId id = 0; id < 512; ++id) {
    data::Sample sample;
    sample.id = id;
    sample.input.assign(5, 1.0f);
    sample.scalars.assign(15, 2.0f);
    sample.images.assign(192, 3.0f);
    samples.push_back(std::move(sample));
  }
  const auto paths = data::write_bundle_set(dir, schema, samples, 8);
  datastore::BundleCatalog catalog(paths);

  for (auto _ : state) {
    comm::World::run(2, [&](comm::Communicator& comm) {
      datastore::DataStore store(comm, &catalog,
                                 datastore::PopulateMode::Preloaded);
      store.preload();
      util::Rng rng(static_cast<std::uint64_t>(comm.rank()) + 11);
      for (int step = 0; step < 8; ++step) {
        std::vector<data::SampleId> wanted(32);
        for (auto& id : wanted) id = rng.uniform_index(512);
        const auto got = store.fetch(wanted);
        benchmark::DoNotOptimize(got.data());
      }
    });
  }
}
BENCHMARK(BM_DataStoreFetch);

// Register-resident multiply-add throughput of one thread at this build's
// SIMD width: the ceiling a register-tiled GEMM kernel approaches. Twelve
// independent vector chains cover the multiply-add latency on two FMA
// ports; each step is acc = acc * x + y, which the compiler can neither
// hoist out of the loop nor fold. The unrolled chain loop keeps every
// accumulator index constant, so the chains live in registers.
double probe_mul_add_gflops() {
  using tensor::simd::vf;
  constexpr std::size_t kChains = 12;
  constexpr std::size_t kSteps = std::size_t{1} << 22;
  // Operands read through volatile: constants would become memory
  // operands of the multiply-adds.
  volatile float x_in = 0.999f, y_in = 1e-3f;
  const vf x = vf::broadcast(x_in);
  const vf y = vf::broadcast(y_in);
  vf acc[kChains];
#pragma GCC unroll 16
  for (std::size_t i = 0; i < kChains; ++i) {
    acc[i] = vf::broadcast(static_cast<float>(i));
  }
  const std::uint64_t start = telemetry::now_ns();
  for (std::size_t step = 0; step < kSteps; ++step) {
#pragma GCC unroll 16
    for (std::size_t i = 0; i < kChains; ++i) acc[i] = y.mul_add(acc[i], x);
  }
  const double seconds =
      static_cast<double>(telemetry::now_ns() - start) * 1e-9;
  float sink = 0.0f;
#pragma GCC unroll 16
  for (std::size_t i = 0; i < kChains; ++i) sink += acc[i].hsum();
  benchmark::DoNotOptimize(sink);
  return 2.0 * static_cast<double>(kChains * tensor::simd::kNativeWidth) *
         static_cast<double>(kSteps) / seconds / 1e9;
}

// Explicit GEMM thread-scaling measurement for the regression gate
// (tools/bench_check.py): GFLOP/s at 512^3 serial and with a 4-worker pool,
// recorded as gauges in BENCH_micro_kernels.json. Separate from the
// google-benchmark runs so the gate reads stable, purpose-named numbers.
// Also records the SIMD build configuration (bench/simd_width, which the
// gate maps to a per-configuration floor key like "simd=avx2") and the
// FLOP + bytes-moved totals each measurement pushed through the kernel.
void record_gemm_scaling_gauges() {
  constexpr std::size_t kN = 512;
  constexpr int kIters = 3;
  tensor::Tensor a(kN, kN), b(kN, kN), c(kN, kN);
  fill_random(a, 1);
  fill_random(b, 2);
  const double flops = tensor::gemm_flops(kN, kN, kN);
  // Logical traffic per GEMM call: read A and B once, write C once. The
  // blocked kernel re-reads packed tiles from cache, so this is the
  // algorithmic (compulsory) byte count, not the memory-bus count. Only
  // the gauges read it, and they compile away under LTFB_TELEMETRY=OFF.
  [[maybe_unused]] const double gemm_bytes = 3.0 * kN * kN * sizeof(float);
  auto measure = [&](std::size_t threads) {
    util::ComputePool::instance().resize(threads);
    tensor::matmul(a, b, c);  // warm-up (pack buffers, page faults)
    const std::uint64_t start = telemetry::now_ns();
    for (int i = 0; i < kIters; ++i) {
      tensor::matmul(a, b, c);
      benchmark::DoNotOptimize(c.raw());
    }
    const double seconds =
        static_cast<double>(telemetry::now_ns() - start) * 1e-9;
    return flops * kIters / seconds / 1e9;
  };
  const double serial = measure(1);
  const double pool4 = measure(4);
  // Kernel efficiency: serial 512^3 GFLOP/s over the multiply-add probe,
  // in back-to-back pairs so both sides of a ratio see the same clock and
  // machine load; the gauge is the median pair. Unlike the GFLOP/s floor it
  // does not move with the host's clock, so it can tell a kernel whose
  // register tile spills to the stack (0.23-0.33 of the probe on a 4-vCPU
  // AVX2 host) from one that keeps it in registers (0.59-0.77).
  std::vector<double> peaks, fracs;
  for (int pair = 0; pair < 5; ++pair) {
    peaks.push_back(probe_mul_add_gflops());
    fracs.push_back(measure(1) / peaks.back());
  }
  std::sort(peaks.begin(), peaks.end());
  std::sort(fracs.begin(), fracs.end());
  const double peak = peaks[peaks.size() / 2];
  const double peak_frac = fracs[fracs.size() / 2];
  util::ComputePool::instance().resize(util::ComputePool::env_threads());
  LTFB_GAUGE_SET("bench/simd_width",
                 static_cast<double>(tensor::simd::kNativeWidth));
  LTFB_GAUGE_SET("bench/gemm_serial_gflops", serial);
  LTFB_GAUGE_SET("bench/gemm_pool4_gflops", pool4);
  LTFB_GAUGE_SET("bench/gemm_speedup_4t", pool4 / serial);
  LTFB_GAUGE_SET("bench/mul_add_peak_gflops", peak);
  LTFB_GAUGE_SET("bench/gemm_peak_frac", peak_frac);
  LTFB_GAUGE_SET("bench/gemm_flops_per_call", flops);
  LTFB_GAUGE_SET("bench/gemm_bytes_moved_per_call", gemm_bytes);
  std::cout << "gemm 512^3 (simd width " << tensor::simd::kNativeWidth
            << "): serial " << serial << " GFLOP/s, pool(4) " << pool4
            << " GFLOP/s, speedup " << pool4 / serial << "x, "
            << peak_frac << " of the " << peak
            << " GFLOP/s multiply-add peak\n";
}

// Streaming-kernel bandwidth gauge: axpy moves 3 floats of traffic per
// element (read x, read y, write y); the SIMD rewrite should keep this at
// memory bandwidth regardless of width. Recorded as GB/s plus the
// bytes-moved total so the regression gate can sanity-check the rate.
void record_axpy_bandwidth_gauge() {
  constexpr std::size_t kElems = 1u << 22;  // 16 MiB per vector
  constexpr int kIters = 8;
  std::vector<float> x(kElems, 1.5f), y(kElems, 0.25f);
  util::ComputePool::instance().resize(1);
  tensor::axpy(0.5f, x, y);  // warm-up
  const std::uint64_t start = telemetry::now_ns();
  for (int i = 0; i < kIters; ++i) {
    tensor::axpy(0.5f, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  const double seconds =
      static_cast<double>(telemetry::now_ns() - start) * 1e-9;
  util::ComputePool::instance().resize(util::ComputePool::env_threads());
  const double bytes_moved =
      3.0 * kElems * sizeof(float) * static_cast<double>(kIters);
  LTFB_GAUGE_SET("bench/axpy_bytes_moved", bytes_moved);
  LTFB_GAUGE_SET("bench/axpy_gbps", bytes_moved / seconds / 1e9);
  std::cout << "axpy " << kElems << " elems: "
            << bytes_moved / seconds / 1e9 << " GB/s\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchTelemetry telemetry("micro_kernels");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  record_gemm_scaling_gauges();
  record_axpy_bandwidth_gauge();
  return 0;
}
