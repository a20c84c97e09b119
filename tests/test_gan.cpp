// Tests for the CycleGAN surrogate: construction, training dynamics,
// generator/discriminator exchange semantics, the data-parallel
// gradient-sync hook, and the pruned passes (lean score, backward sweeps
// that compute only the gradients a step reads).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "comm/communicator.hpp"
#include "data/data_reader.hpp"
#include "data/dataset.hpp"
#include "gan/cyclegan.hpp"
#include "nn/loss.hpp"
#include "nn/parallel.hpp"
#include "perf/model_cost.hpp"
#include "telemetry/telemetry.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace ltfb;
using namespace ltfb::gan;

CycleGanConfig tiny_config() {
  CycleGanConfig config;
  config.image_width = 48;  // e.g. 4x4 x 3 images
  config.latent_width = 8;
  config.encoder_hidden = {16};
  config.decoder_hidden = {16};
  config.forward_hidden = {12};
  config.inverse_hidden = {8};
  config.discriminator_hidden = {8};
  config.learning_rate = 2e-3f;
  return config;
}

data::Dataset tiny_dataset(std::size_t n, std::uint64_t seed) {
  jag::JagConfig jag_config;
  jag_config.image_size = 4;
  jag_config.num_views = 3;
  jag_config.num_channels = 1;
  const jag::JagModel model(jag_config);
  data::Dataset dataset = data::generate_jag_dataset(model, n, seed);
  const auto norms = data::fit_normalizers(dataset);
  data::normalize_dataset(dataset, norms);
  return dataset;
}

data::Batch batch_of(const data::Dataset& dataset, std::size_t n) {
  std::vector<std::size_t> positions(n);
  std::iota(positions.begin(), positions.end(), 0);
  return data::make_batch(dataset, positions);
}

TEST(CycleGan, ConstructionShapes) {
  const CycleGan model(tiny_config(), 1);
  EXPECT_GT(model.parameter_count(), 0u);
  EXPECT_GT(model.generator_parameter_count(), 0u);
  EXPECT_LT(model.generator_parameter_count(), model.parameter_count());
}

TEST(CycleGan, ParameterCountMatchesAnalyticModel) {
  // The perf cost model and the real network must agree exactly — this
  // pins the performance plane to the real implementation.
  const CycleGanConfig config = tiny_config();
  CycleGan model(config, 2);
  const perf::CycleGanCost cost = perf::analyze(config);
  EXPECT_DOUBLE_EQ(cost.total_params(),
                   static_cast<double>(model.parameter_count()));
  EXPECT_DOUBLE_EQ(cost.generator_params(),
                   static_cast<double>(model.generator_parameter_count()));
  EXPECT_DOUBLE_EQ(cost.encoder_params,
                   static_cast<double>(model.encoder().parameter_count()));
}

TEST(CycleGan, SameSeedSameWeights) {
  CycleGan a(tiny_config(), 7), b(tiny_config(), 7), c(tiny_config(), 8);
  EXPECT_EQ(a.generator_weights(), b.generator_weights());
  EXPECT_NE(a.generator_weights(), c.generator_weights());
}

TEST(CycleGan, InvalidConfigThrows) {
  CycleGanConfig config = tiny_config();
  config.scalar_width = 0;
  config.image_width = 0;
  EXPECT_THROW(CycleGan(config, 1), InvalidArgument);
}

TEST(CycleGan, PredictOutputsShape) {
  CycleGan model(tiny_config(), 3);
  const tensor::Tensor x(4, 5);
  const tensor::Tensor y = model.predict_outputs(x);
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), tiny_config().output_width());
  EXPECT_TRUE(tensor::all_finite(y.data()));
}

TEST(CycleGan, CycleAndInversionShapes) {
  CycleGan model(tiny_config(), 4);
  const tensor::Tensor x(3, 5);
  EXPECT_EQ(model.cycle_inputs(x).cols(), 5u);
  const tensor::Tensor y(3, tiny_config().output_width());
  EXPECT_EQ(model.invert_outputs(y).cols(), 5u);
}

TEST(CycleGan, AutoencoderPretrainingReducesReconstruction) {
  const data::Dataset dataset = tiny_dataset(128, 10);
  CycleGan model(tiny_config(), 5);
  const data::Batch batch = batch_of(dataset, 32);
  const double first = model.pretrain_autoencoder_step(batch);
  double last = first;
  for (int i = 0; i < 150; ++i) {
    last = model.pretrain_autoencoder_step(batch);
  }
  EXPECT_LT(last, 0.6 * first);
}

TEST(CycleGan, TrainingImprovesValidationMetrics) {
  const data::Dataset dataset = tiny_dataset(256, 11);
  CycleGan model(tiny_config(), 6);
  data::MiniBatchReader reader(
      dataset, [] {
        std::vector<std::size_t> v(192);
        std::iota(v.begin(), v.end(), 0);
        return v;
      }(),
      32, 12);
  std::vector<std::size_t> val_positions(64);
  std::iota(val_positions.begin(), val_positions.end(), 192);
  const data::Batch val = data::make_batch(dataset, val_positions);

  const EvalMetrics before = model.evaluate(val);
  for (int i = 0; i < 60; ++i) {
    model.pretrain_autoencoder_step(reader.next());
  }
  for (int i = 0; i < 250; ++i) {
    model.train_step(reader.next());
  }
  const EvalMetrics after = model.evaluate(val);
  EXPECT_LT(after.forward_loss, before.forward_loss);
  EXPECT_LT(after.inverse_loss, before.inverse_loss);
  EXPECT_LT(after.total(), 0.8 * before.total());
}

TEST(CycleGan, StepMetricsAreFinite) {
  const data::Dataset dataset = tiny_dataset(64, 12);
  CycleGan model(tiny_config(), 7);
  const data::Batch batch = batch_of(dataset, 16);
  for (int i = 0; i < 20; ++i) {
    const StepMetrics m = model.train_step(batch);
    EXPECT_TRUE(std::isfinite(m.reconstruction_loss));
    EXPECT_TRUE(std::isfinite(m.fidelity_loss));
    EXPECT_TRUE(std::isfinite(m.adversarial_loss));
    EXPECT_TRUE(std::isfinite(m.cycle_loss));
    EXPECT_TRUE(std::isfinite(m.discriminator_loss));
    EXPECT_GE(m.discriminator_loss, 0.0);
  }
  for (nn::Model* component : model.components()) {
    EXPECT_TRUE(tensor::all_finite(component->flatten_weights()));
  }
}

TEST(CycleGan, GeneratorExchangeRoundTrip) {
  CycleGan a(tiny_config(), 8), b(tiny_config(), 9);
  const std::vector<float> wa = a.generator_weights();
  b.load_generator_weights(wa);
  EXPECT_EQ(b.generator_weights(), wa);
  // After the exchange both generators predict identically.
  const tensor::Tensor x(2, 5);
  const tensor::Tensor ya = a.predict_outputs(x);
  const tensor::Tensor yb = b.predict_outputs(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya[i], yb[i]);
  }
}

TEST(CycleGan, GeneratorExchangeLeavesDiscriminatorLocal) {
  // The paper's LTFB-for-GANs rule: critics never travel.
  CycleGan a(tiny_config(), 10), b(tiny_config(), 11);
  const std::vector<float> disc_before = b.discriminator_weights();
  b.load_generator_weights(a.generator_weights());
  EXPECT_EQ(b.discriminator_weights(), disc_before);
}

TEST(CycleGan, WrongSizeExchangeThrows) {
  CycleGan model(tiny_config(), 12);
  std::vector<float> wrong(model.generator_parameter_count() + 1);
  EXPECT_THROW(model.load_generator_weights(wrong), InvalidArgument);
}

TEST(CycleGan, DiscriminatorLearnsToSeparate) {
  const data::Dataset dataset = tiny_dataset(128, 13);
  CycleGan model(tiny_config(), 14);
  const data::Batch batch = batch_of(dataset, 64);
  for (int i = 0; i < 40; ++i) {
    model.pretrain_autoencoder_step(batch);
  }
  for (int i = 0; i < 100; ++i) {
    model.train_step(batch);
  }
  const EvalMetrics m = model.evaluate(batch);
  // The critic should do at least somewhat better than chance while the
  // generator is still imperfect.
  EXPECT_GT(m.discriminator_accuracy, 0.5);
}

TEST(CycleGan, GradientSyncHookFiresPerPhase) {
  const data::Dataset dataset = tiny_dataset(32, 15);
  CycleGan model(tiny_config(), 16);
  int calls = 0;
  std::vector<std::size_t> sizes;
  model.set_gradient_sync([&](const std::vector<nn::Model*>& models) {
    ++calls;
    sizes.push_back(models.size());
  });
  model.train_step(batch_of(dataset, 8));
  // Three sync points: autoencoder (E+Dec), critic (D), generator (F+G).
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_EQ(sizes[1], 1u);
  EXPECT_EQ(sizes[2], 2u);
}

TEST(CycleGan, EvaluateDoesNotMutateWeights) {
  const data::Dataset dataset = tiny_dataset(32, 17);
  CycleGan model(tiny_config(), 18);
  const std::vector<float> before = model.generator_weights();
  const std::vector<float> disc_before = model.discriminator_weights();
  (void)model.evaluate(batch_of(dataset, 8));
  EXPECT_EQ(model.generator_weights(), before);
  EXPECT_EQ(model.discriminator_weights(), disc_before);
}

// ---- pruned passes ----------------------------------------------------------

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// CycleGan::train_step spelled out through the component models with every
/// backward computing weight AND input gradients — the unpruned sweep.
/// `hook` and `sync` wire a data-parallel trainer as train_step does.
void full_backward_step(CycleGan& gan, const data::Batch& batch,
                        const nn::Model::BackwardHook& hook,
                        const CycleGan::GradientSync& sync) {
  nn::Model& enc = gan.encoder();
  nn::Model& dec = gan.decoder();
  nn::Model& fwd = gan.forward_model();
  nn::Model& inv = gan.inverse_model();
  nn::Model& disc = gan.discriminator();
  auto out = [](const nn::Model& m) { return m.layer_count() - 1; };
  const CycleGanConfig& cfg = gan.config();

  enc.zero_gradients();
  dec.zero_gradients();
  enc.forward({&batch.outputs}, true);
  dec.forward({&enc.output(out(enc))}, true);
  tensor::Tensor grad;
  nn::mae_loss(dec.output(out(dec)), batch.outputs, &grad);
  dec.add_output_gradient(out(dec), grad);
  dec.backward(hook);
  enc.add_output_gradient(out(enc), dec.input_gradient(0));
  enc.backward(hook);
  if (sync) sync({&enc, &dec});
  enc.apply_optimizer_step();
  dec.apply_optimizer_step();

  enc.forward({&batch.outputs}, false);
  const tensor::Tensor real_latent = enc.output(out(enc));
  fwd.forward({&batch.inputs}, false);
  const tensor::Tensor fake_latent = fwd.output(out(fwd));
  disc.zero_gradients();
  tensor::Tensor d_grad;
  disc.forward({&real_latent}, true);
  nn::bce_with_logits(disc.output(out(disc)), 1.0f, &d_grad);
  disc.add_output_gradient(out(disc), d_grad);
  disc.backward();
  disc.forward({&fake_latent}, true);
  nn::bce_with_logits(disc.output(out(disc)), 0.0f, &d_grad);
  disc.add_output_gradient(out(disc), d_grad);
  disc.backward(hook);
  if (sync) sync({&disc});
  disc.apply_optimizer_step();

  fwd.zero_gradients();
  inv.zero_gradients();
  dec.zero_gradients();
  disc.zero_gradients();
  fwd.forward({&batch.inputs}, true);
  const tensor::Tensor& z = fwd.output(out(fwd));
  dec.forward({&z}, true);
  tensor::Tensor fid_grad;
  nn::mae_loss(dec.output(out(dec)), batch.outputs, &fid_grad);
  tensor::scale(cfg.lambda_fidelity, fid_grad.data());
  dec.add_output_gradient(out(dec), fid_grad);
  dec.backward();
  fwd.add_output_gradient(out(fwd), dec.input_gradient(0));
  disc.forward({&z}, true);
  tensor::Tensor adv_grad;
  nn::bce_with_logits(disc.output(out(disc)), 1.0f, &adv_grad);
  tensor::scale(cfg.lambda_adversarial, adv_grad.data());
  disc.add_output_gradient(out(disc), adv_grad);
  disc.backward();
  fwd.add_output_gradient(out(fwd), disc.input_gradient(0));
  if (cfg.lambda_latent > 0.0f) {
    tensor::Tensor lat_grad;
    nn::mae_loss(z, real_latent, &lat_grad);
    tensor::scale(cfg.lambda_latent, lat_grad.data());
    fwd.add_output_gradient(out(fwd), lat_grad);
  }
  inv.forward({&z}, true);
  tensor::Tensor cyc_grad;
  nn::mae_loss(inv.output(out(inv)), batch.inputs, &cyc_grad);
  tensor::scale(cfg.lambda_cycle, cyc_grad.data());
  inv.add_output_gradient(out(inv), cyc_grad);
  inv.backward(hook);
  fwd.add_output_gradient(out(fwd), inv.input_gradient(0));
  fwd.backward(hook);
  if (sync) sync({&fwd, &inv});
  fwd.apply_optimizer_step();
  inv.apply_optimizer_step();
}

/// Three train_steps (pruned backward) against three full-backward replays
/// on a trainer of `ranks` data-parallel ranks, each with the gradient
/// bucketer wired into both; true per rank when every weight and every
/// Adam moment matches bit for bit.
std::vector<int> pruned_matches_full_replay(int ranks) {
  CycleGanConfig config = tiny_config();
  config.mixed_precision = false;
  const data::Dataset dataset = tiny_dataset(96, 21);
  std::vector<int> matched(static_cast<std::size_t>(ranks), 0);
  comm::World::run(ranks, [&](comm::Communicator& comm) {
    // Small buckets, so each backward launches several all-reduces.
    nn::GradientBucketer bucketer(comm, /*bucket_bytes=*/512,
                                  nn::WireDtype::Fp32);
    const nn::Model::BackwardHook hook = [&](nn::Weights& w) {
      bucketer.on_layer_backward(w);
    };
    const CycleGan::GradientSync sync =
        [&](const std::vector<nn::Model*>& models) {
          bucketer.finish(models);
        };
    CycleGan pruned(config, 22);
    CycleGan full(config, 22);
    pruned.set_backward_hook(hook);
    pruned.set_gradient_sync(sync);
    const std::size_t rows = 16 / static_cast<std::size_t>(ranks);
    for (std::size_t step = 0; step < 3; ++step) {
      std::vector<std::size_t> positions(rows);
      std::iota(positions.begin(), positions.end(),
                step * 16 + static_cast<std::size_t>(comm.rank()) * rows);
      const data::Batch shard = data::make_batch(dataset, positions);
      pruned.train_step(shard);
      full_backward_step(full, shard, hook, sync);
    }
    matched[static_cast<std::size_t>(comm.rank())] =
        same_bits(pruned.generator_weights(), full.generator_weights()) &&
        same_bits(pruned.discriminator_weights(),
                  full.discriminator_weights()) &&
        same_bits(pruned.optimizer_state(), full.optimizer_state());
  });
  return matched;
}

TEST(CycleGan, PrunedBackwardMatchesFullReplayOneRank) {
  EXPECT_EQ(pruned_matches_full_replay(1), std::vector<int>({1}));
}

TEST(CycleGan, PrunedBackwardMatchesFullReplayTwoRanks) {
  EXPECT_EQ(pruned_matches_full_replay(2), std::vector<int>({1, 1}));
}

/// GEMM calls made by `fn`, read from the tensor/gemm timer.
template <typename Fn>
std::uint64_t gemm_calls(Fn&& fn) {
  auto& registry = telemetry::Registry::instance();
  const bool was_enabled = registry.is_enabled();
  registry.set_enabled(true);
  const telemetry::Timer gemm = registry.timer("tensor/gemm");
  const std::uint64_t before = gemm.count();
  fn();
  const std::uint64_t calls = gemm.count() - before;
  registry.set_enabled(was_enabled);
  return calls;
}

// The step computes only the gradients it reads: of the 75 GEMMs a full
// sweep makes on the default five-network model, it skips E's and F's
// input gradients (2), the critic's input gradient in its own update (2),
// and the frozen Dec and critic weight gradients in the generator update
// (6). A score runs F, Dec and G (and the critic on F(x)), not E.
TEST(CycleGan, StepAndScoreIssueOnlyTheGemmsTheyRead) {
#if !LTFB_TELEMETRY_ENABLED
  GTEST_SKIP() << "GEMM calls are counted by telemetry, compiled out here";
#endif
  CycleGanConfig config;
  config.image_width = 48;
  config.mixed_precision = false;
  const data::Dataset dataset = tiny_dataset(32, 23);
  const data::Batch batch = batch_of(dataset, 8);
  CycleGan model(config, 24);
  CycleGan replay(config, 24);
  EXPECT_EQ(gemm_calls([&] { model.train_step(batch); }), 65u);
  EXPECT_EQ(gemm_calls([&] { full_backward_step(replay, batch, {}, {}); }),
            75u);
  EXPECT_EQ(gemm_calls([&] { (void)model.score(batch, false); }), 8u);
  EXPECT_EQ(gemm_calls([&] { (void)model.score(batch, true); }), 11u);
  EXPECT_EQ(gemm_calls([&] { (void)model.evaluate(batch); }), 20u);
}

}  // namespace
