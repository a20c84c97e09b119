#include "core/gan_trainer.hpp"

#include <algorithm>

#include "core/tournament.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace ltfb::core {

namespace {

/// Rows [begin, begin + rows) of a batch.
data::Batch slice_batch(const data::Batch& batch, std::size_t begin,
                        std::size_t rows) {
  LTFB_CHECK(rows > 0 && begin + rows <= batch.size());
  data::Batch shard;
  auto slice = [&](const tensor::Tensor& src, tensor::Tensor& dst) {
    const std::size_t width = src.cols();
    dst.resize({rows, width});
    std::copy_n(src.raw() + begin * width, rows * width, dst.raw());
  };
  slice(batch.inputs, shard.inputs);
  slice(batch.scalars, shard.scalars);
  slice(batch.images, shard.images);
  slice(batch.outputs, shard.outputs);
  const auto first = batch.ids.begin() + static_cast<std::ptrdiff_t>(begin);
  shard.ids.assign(first, first + static_cast<std::ptrdiff_t>(rows));
  return shard;
}

/// Mean of `per_batch` over the mini-batches of `view` (the remainder
/// partial batch is included): the one batch loop behind evaluate_gan and
/// score_gan, so both average every field in the same order.
template <typename PerBatch>
gan::EvalMetrics mean_over_batches(const data::Dataset& dataset,
                                   const std::vector<std::size_t>& view,
                                   std::size_t batch_size,
                                   const PerBatch& per_batch) {
  LTFB_CHECK_MSG(!view.empty(), "evaluation view is empty");
  gan::EvalMetrics mean;
  std::size_t batches = 0;
  for (std::size_t begin = 0; begin < view.size(); begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, view.size());
    const std::vector<std::size_t> positions(
        view.begin() + static_cast<std::ptrdiff_t>(begin),
        view.begin() + static_cast<std::ptrdiff_t>(end));
    const gan::EvalMetrics m = per_batch(data::make_batch(dataset, positions));
    mean.forward_loss += m.forward_loss;
    mean.inverse_loss += m.inverse_loss;
    mean.reconstruction_loss += m.reconstruction_loss;
    mean.discriminator_accuracy += m.discriminator_accuracy;
    mean.generator_adversarial += m.generator_adversarial;
    ++batches;
  }
  const auto n = static_cast<double>(batches);
  mean.forward_loss /= n;
  mean.inverse_loss /= n;
  mean.reconstruction_loss /= n;
  mean.discriminator_accuracy /= n;
  mean.generator_adversarial /= n;
  return mean;
}

}  // namespace

gan::EvalMetrics evaluate_gan(gan::CycleGan& model,
                              const data::Dataset& dataset,
                              const std::vector<std::size_t>& view,
                              std::size_t batch_size) {
  LTFB_SPAN("trainer/evaluate");
  return mean_over_batches(
      dataset, view, batch_size,
      [&](const data::Batch& batch) { return model.evaluate(batch); });
}

double score_gan(gan::CycleGan& model, const data::Dataset& dataset,
                 const std::vector<std::size_t>& view, std::size_t batch_size,
                 bool adversarial) {
  LTFB_SPAN("trainer/score");
  const gan::EvalMetrics mean = mean_over_batches(
      dataset, view, batch_size, [&](const data::Batch& batch) {
        return model.score(batch, adversarial);
      });
  return adversarial ? mean.total() + mean.generator_adversarial
                     : mean.total();
}

GanTrainer::GanTrainer(int trainer_id, gan::CycleGanConfig model_config,
                       const data::Dataset& dataset,
                       std::vector<std::size_t> train_view,
                       std::vector<std::size_t> tournament_view,
                       std::size_t batch_size, std::uint64_t seed,
                       int shard_rank, int shard_count)
    : id_(trainer_id),
      model_(std::move(model_config),
             util::derive_seed(seed, "model",
                               static_cast<std::uint64_t>(trainer_id))),
      dataset_(&dataset),
      tournament_view_(std::move(tournament_view)),
      reader_(dataset, std::move(train_view), batch_size,
              util::derive_seed(seed, "reader",
                                static_cast<std::uint64_t>(trainer_id)),
              /*drop_last=*/true),
      batch_size_(batch_size),
      train_size_(reader_.batches_per_epoch() * batch_size) {
  LTFB_CHECK_MSG(!tournament_view_.empty(),
                 "trainer " << trainer_id << " has no tournament set");
  LTFB_CHECK_MSG(shard_count > 0 && shard_rank >= 0 &&
                     shard_rank < shard_count,
                 "shard rank " << shard_rank << " outside [0, " << shard_count
                               << ")");
  const auto count = static_cast<std::size_t>(shard_count);
  LTFB_CHECK_MSG(batch_size % count == 0,
                 "batch size must divide evenly across a trainer's ranks");
  shard_rows_ = batch_size / count;
  shard_begin_ = static_cast<std::size_t>(shard_rank) * shard_rows_;
}

data::Batch GanTrainer::next_batch() {
  data::Batch batch = reader_.next();
  if (shard_rows_ == batch_size_) return batch;
  return slice_batch(batch, shard_begin_, shard_rows_);
}

void GanTrainer::pretrain_autoencoder(std::size_t steps) {
  LTFB_SPAN("trainer/pretrain");
  for (std::size_t s = 0; s < steps; ++s) {
    model_.pretrain_autoencoder_step(next_batch());
  }
}

gan::StepMetrics GanTrainer::train_steps(std::size_t steps) {
  LTFB_SPAN("trainer/train_steps");
  gan::StepMetrics last{};
  for (std::size_t s = 0; s < steps; ++s) {
    LTFB_TIMED_SCOPE("trainer/step");
    last = model_.train_step(next_batch());
    ++steps_;
  }
  return last;
}

double GanTrainer::score_candidate_generator(
    std::span<const float> candidate) {
  const std::vector<float> saved = model_.generator_weights();
  model_.load_generator_weights(candidate);
  const double score =
      tournament_score(*this, TournamentMetric::ForwardInverse);
  model_.load_generator_weights(saved);
  return score;
}

GanTrainerState GanTrainer::capture_state() const {
  GanTrainerState state;
  state.trainer_id = id_;
  state.learning_rate = model_.learning_rate();
  state.steps = steps_;
  state.reader_epoch = reader_.epoch();
  state.reader_cursor = reader_.cursor();
  state.generator = model_.generator_weights();
  state.discriminator = model_.discriminator_weights();
  state.optimizer_state = model_.optimizer_state();
  return state;
}

void GanTrainer::restore_state(const GanTrainerState& state) {
  LTFB_CHECK_MSG(state.trainer_id == id_,
                 "checkpoint slot is for trainer " << state.trainer_id
                                                   << ", this is trainer "
                                                   << id_);
  model_.load_generator_weights(state.generator);
  model_.load_discriminator_weights(state.discriminator);
  model_.load_optimizer_state(state.optimizer_state);
  // Learning rate AFTER optimizer state: set_learning_rate writes through
  // to every component optimizer, which deserialize does not touch.
  model_.set_learning_rate(state.learning_rate);
  reader_.restore(static_cast<std::size_t>(state.reader_epoch),
                  static_cast<std::size_t>(state.reader_cursor));
  steps_ = static_cast<std::size_t>(state.steps);
}

}  // namespace ltfb::core
