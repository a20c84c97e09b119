// Tests for the LTFB core: tournament pairing, the lockstep driver's
// adoption semantics, the K-independent baseline, and the paper's headline
// algorithmic property (LTFB >= K-independent at equal budgets).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <string>

#include "core/ltfb.hpp"
#include "core/population.hpp"

namespace {

using namespace ltfb;
using namespace ltfb::core;

gan::CycleGanConfig tiny_config() {
  gan::CycleGanConfig config;
  config.image_width = 48;
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

// ---- pairing -------------------------------------------------------------------

TEST(Pairing, CoversAllTrainersWhenEven) {
  const auto pairs = tournament_pairs(8, 1, 0);
  EXPECT_EQ(pairs.size(), 4u);
  std::set<int> seen;
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(a, b);
    EXPECT_TRUE(seen.insert(a).second);
    EXPECT_TRUE(seen.insert(b).second);
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Pairing, OddTrainerSitsOut) {
  const auto pairs = tournament_pairs(5, 1, 0);
  EXPECT_EQ(pairs.size(), 2u);
}

TEST(Pairing, DeterministicPerRound) {
  EXPECT_EQ(tournament_pairs(6, 2, 3), tournament_pairs(6, 2, 3));
}

TEST(Pairing, VariesAcrossRounds) {
  // Over several rounds the pairings must not be constant.
  bool differs = false;
  const auto first = tournament_pairs(8, 2, 0);
  for (std::size_t round = 1; round < 5; ++round) {
    if (tournament_pairs(8, 2, round) != first) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Pairing, SingleTrainerHasNoPairs) {
  EXPECT_TRUE(tournament_pairs(1, 1, 0).empty());
}

// ---- population builder ----------------------------------------------------------

TEST(Population, BuildsDisjointPartitions) {
  const data::Dataset dataset = tiny_dataset(300, 20);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 21);
  PopulationConfig config;
  config.num_trainers = 3;
  config.batch_size = 16;
  config.model = tiny_config();
  config.seed = 22;
  const auto trainers = build_population(dataset, splits, config);
  ASSERT_EQ(trainers.size(), 3u);
  // Models differ (independent seeds); partition sizes are balanced.
  EXPECT_NE(trainers[0]->model().generator_weights(),
            trainers[1]->model().generator_weights());
  for (const auto& trainer : trainers) {
    EXPECT_GE(trainer->partition_size(), 64u);
    EXPECT_FALSE(trainer->tournament_view().empty());
  }
}

// ---- GanTrainer -----------------------------------------------------------------

TEST(GanTrainer, ScoreCandidateRestoresOwnModel) {
  const data::Dataset dataset = tiny_dataset(200, 23);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 24);
  PopulationConfig config;
  config.num_trainers = 2;
  config.batch_size = 16;
  config.model = tiny_config();
  config.seed = 25;
  auto trainers = build_population(dataset, splits, config);

  const std::vector<float> own = trainers[0]->model().generator_weights();
  const std::vector<float> other = trainers[1]->model().generator_weights();
  const double candidate_score =
      trainers[0]->score_candidate_generator(other);
  EXPECT_TRUE(std::isfinite(candidate_score));
  EXPECT_EQ(trainers[0]->model().generator_weights(), own);
}

TEST(GanTrainer, TrainStepsAdvanceCounter) {
  const data::Dataset dataset = tiny_dataset(100, 26);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 27);
  PopulationConfig config;
  config.num_trainers = 1;
  config.batch_size = 8;
  config.model = tiny_config();
  auto trainers = build_population(dataset, splits, config);
  trainers[0]->train_steps(5);
  EXPECT_EQ(trainers[0]->steps_taken(), 5u);
}

/// A one-trainer population trained a few steps, so the critic and the
/// generator losses are not at their initial values.
struct ScoredTrainer {
  data::Dataset dataset = tiny_dataset(200, 28);
  const data::SplitIndices splits =
      data::split_dataset(dataset.size(), 0.7, 0.15, 29);
  std::vector<std::unique_ptr<GanTrainer>> trainers = [this] {
    PopulationConfig config;
    config.num_trainers = 1;
    config.batch_size = 16;
    config.model = tiny_config();
    config.seed = 30;
    auto built = build_population(dataset, splits, config);
    built[0]->train_steps(4);
    return built;
  }();
  GanTrainer& trainer() { return *trainers[0]; }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(GanTrainer, LeanScoreMatchesFullEvaluationBitForBit) {
  ScoredTrainer fx;
  gan::CycleGan& model = fx.trainer().model();
  // The tournament view ends in a partial batch; validation is larger.
  for (const std::vector<std::size_t>* view :
       {&fx.trainer().tournament_view(), &fx.splits.validation}) {
    const gan::EvalMetrics full = evaluate_gan(model, fx.dataset, *view, 16);
    EXPECT_EQ(bits(score_gan(model, fx.dataset, *view, 16, false)),
              bits(full.total()));
    EXPECT_EQ(bits(score_gan(model, fx.dataset, *view, 16, true)),
              bits(full.total() + full.generator_adversarial));
  }
}

// The adversarial metric charges the generator the BCE it incurs against
// the local critic, on top of forward + inverse loss.
TEST(GanTrainer, AdversarialMetricAddsTheMeanCriticBce) {
  ScoredTrainer fx;
  GanTrainer& trainer = fx.trainer();
  const std::vector<std::size_t>& view = trainer.tournament_view();
  double bce_sum = 0.0;
  std::size_t batches = 0;
  for (std::size_t begin = 0; begin < view.size(); begin += 16) {
    const std::size_t end = std::min(begin + 16, view.size());
    const std::vector<std::size_t> positions(
        view.begin() + static_cast<std::ptrdiff_t>(begin),
        view.begin() + static_cast<std::ptrdiff_t>(end));
    bce_sum += trainer.model()
                   .evaluate(data::make_batch(fx.dataset, positions))
                   .generator_adversarial;
    ++batches;
  }
  ASSERT_GT(batches, 1u);
  const double mean_bce = bce_sum / static_cast<double>(batches);
  ASSERT_GT(mean_bce, 0.0);
  const double plain =
      tournament_score(trainer, TournamentMetric::ForwardInverse);
  const double adversarial =
      tournament_score(trainer, TournamentMetric::ForwardInverseAdversarial);
  EXPECT_NEAR(adversarial - plain, mean_bce, 1e-12 * (1.0 + adversarial));
}

// ---- LocalLtfbDriver ----------------------------------------------------------------

struct DriverFixture {
  data::Dataset dataset = tiny_dataset(400, 30);
  data::SplitIndices splits =
      data::split_dataset(dataset.size(), 0.7, 0.15, 31);

  LocalLtfbDriver make_driver(std::size_t trainers, LtfbConfig ltfb) {
    PopulationConfig config;
    config.num_trainers = trainers;
    config.batch_size = 16;
    config.model = tiny_config();
    config.seed = 32;
    return LocalLtfbDriver(build_population(dataset, splits, config), ltfb);
  }
};

TEST(LocalDriver, RoundRecordsPairings) {
  DriverFixture fx;
  LtfbConfig ltfb;
  ltfb.steps_per_round = 3;
  ltfb.rounds = 2;
  ltfb.pretrain_steps = 2;
  LocalLtfbDriver driver = fx.make_driver(4, ltfb);
  driver.pretrain();
  const RoundRecord& record = driver.run_round();
  EXPECT_EQ(record.round, 0u);
  ASSERT_EQ(record.stats.size(), 4u);
  int paired = 0;
  for (const auto& stat : record.stats) {
    if (stat.partner_id >= 0) {
      ++paired;
      EXPECT_TRUE(std::isfinite(stat.own_score));
      EXPECT_TRUE(std::isfinite(stat.partner_score));
      // Adoption must be consistent with the scores.
      EXPECT_EQ(stat.adopted_partner,
                stat.partner_score < stat.own_score);
    }
  }
  EXPECT_EQ(paired, 4);
}

TEST(LocalDriver, RoundRecordsCarryTimingColumns) {
  DriverFixture fx;
  LtfbConfig ltfb;
  ltfb.steps_per_round = 3;
  ltfb.rounds = 1;
  LtfbConfig config = ltfb;
  LocalLtfbDriver driver = fx.make_driver(2, config);
  const RoundRecord& record = driver.run_round();
  // Wall clock covers train + tournament, so it is strictly positive and
  // at least the straggler gap (gap = slowest - fastest train time, both
  // inside the same round).
  EXPECT_GT(record.wall_s, 0.0);
  EXPECT_GE(record.max_rank_gap_s, 0.0);
  EXPECT_LE(record.max_rank_gap_s, record.wall_s);

  const std::string path =
      (std::filesystem::temp_directory_path() / "ltfb_core_timing.csv")
          .string();
  ASSERT_TRUE(export_history_csv(driver.history(), path));
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("round_wall_s"), std::string::npos);
  EXPECT_NE(header.find("max_rank_gap_s"), std::string::npos);
  std::string row;
  std::getline(in, row);
  // The timing columns repeat per stat row of the round — both present.
  EXPECT_EQ(std::count(row.begin(), row.end(), ','), 9);
}

TEST(LocalDriver, AdoptionCopiesBetterGenerator) {
  DriverFixture fx;
  LtfbConfig ltfb;
  ltfb.steps_per_round = 2;
  ltfb.rounds = 1;
  LocalLtfbDriver driver = fx.make_driver(2, ltfb);
  const RoundRecord& record = driver.run_round();
  const auto& s0 = record.stats[0];
  const auto& s1 = record.stats[1];
  const auto w0 = driver.trainer(0).model().generator_weights();
  const auto w1 = driver.trainer(1).model().generator_weights();
  if (s0.adopted_partner != s1.adopted_partner) {
    // Exactly one side adopted: both now hold the same generator.
    EXPECT_EQ(w0, w1);
  } else if (!s0.adopted_partner) {
    // Both kept their own: generators stay distinct.
    EXPECT_NE(w0, w1);
  }
  // Both adopting (a swap) is legitimate: each local tournament set can
  // prefer the other's model; no equality constraint then.
}

TEST(LocalDriver, FullModelExchangeMovesDiscriminator) {
  DriverFixture fx;
  LtfbConfig ltfb;
  ltfb.steps_per_round = 2;
  ltfb.rounds = 1;
  ltfb.scope = ExchangeScope::FullModel;
  LocalLtfbDriver driver = fx.make_driver(2, ltfb);
  driver.run_round();
  const auto& record = driver.history().back();
  if (record.stats[0].adopted_partner != record.stats[1].adopted_partner) {
    EXPECT_EQ(driver.trainer(0).model().discriminator_weights(),
              driver.trainer(1).model().discriminator_weights());
  }
}

TEST(LocalDriver, GeneratorOnlyExchangeKeepsDiscriminatorsDistinct) {
  DriverFixture fx;
  LtfbConfig ltfb;
  ltfb.steps_per_round = 2;
  ltfb.rounds = 3;
  LocalLtfbDriver driver = fx.make_driver(2, ltfb);
  driver.run();
  // Discriminators were seeded differently and never exchanged.
  EXPECT_NE(driver.trainer(0).model().discriminator_weights(),
            driver.trainer(1).model().discriminator_weights());
}

TEST(LocalDriver, HistoryAccumulates) {
  DriverFixture fx;
  LtfbConfig ltfb;
  ltfb.steps_per_round = 2;
  ltfb.rounds = 3;
  LocalLtfbDriver driver = fx.make_driver(3, ltfb);
  driver.run();
  EXPECT_EQ(driver.history().size(), 3u);
  EXPECT_EQ(driver.history()[2].round, 2u);
}

TEST(LocalDriver, BestTrainerIndexValid) {
  DriverFixture fx;
  LtfbConfig ltfb;
  ltfb.steps_per_round = 2;
  ltfb.rounds = 1;
  LocalLtfbDriver driver = fx.make_driver(3, ltfb);
  driver.run();
  const std::size_t best = driver.best_trainer(fx.splits.validation, 16);
  EXPECT_LT(best, 3u);
}

TEST(LocalDriver, EmptyPopulationThrows) {
  EXPECT_THROW(LocalLtfbDriver({}, LtfbConfig{}), InvalidArgument);
}

// ---- K-independent baseline -----------------------------------------------------------

TEST(KIndependent, RunsWithoutExchange) {
  DriverFixture fx;
  LtfbConfig ltfb;
  ltfb.steps_per_round = 2;
  ltfb.rounds = 2;
  PopulationConfig config;
  config.num_trainers = 2;
  config.batch_size = 16;
  config.model = tiny_config();
  config.seed = 40;
  KIndependentDriver driver(build_population(fx.dataset, fx.splits, config),
                            ltfb);
  driver.run();
  EXPECT_EQ(driver.trainer(0).steps_taken(), 4u);
  // No exchange ever happens: generators stay distinct.
  EXPECT_NE(driver.trainer(0).model().generator_weights(),
            driver.trainer(1).model().generator_weights());
  const std::size_t best = driver.best_trainer(fx.splits.validation, 16);
  EXPECT_LT(best, 2u);
}

// ---- the headline algorithmic property -------------------------------------------------

TEST(LtfbVsKIndependent, LtfbAtLeastAsGoodAtEqualBudget) {
  // Small-scale version of the paper's Sec. IV-E claim: with the same
  // per-trainer step budget and the same partitions, LTFB's best model
  // generalizes at least as well as the best of K independent trainers
  // (allowing a small tolerance at this tiny scale).
  const data::Dataset dataset = tiny_dataset(600, 50);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 51);

  PopulationConfig config;
  config.num_trainers = 4;
  config.batch_size = 16;
  config.model = tiny_config();
  config.seed = 52;

  LtfbConfig ltfb;
  ltfb.steps_per_round = 15;
  ltfb.rounds = 6;
  ltfb.pretrain_steps = 20;

  LocalLtfbDriver ltfb_driver(build_population(dataset, splits, config),
                              ltfb);
  ltfb_driver.run();
  const std::size_t ltfb_best =
      ltfb_driver.best_trainer(splits.validation, 16);
  const double ltfb_loss =
      evaluate_gan(ltfb_driver.trainer(ltfb_best).model(), dataset,
                   splits.validation, 16)
          .total();

  KIndependentDriver kind_driver(build_population(dataset, splits, config),
                                 ltfb);
  kind_driver.run();
  const std::size_t kind_best =
      kind_driver.best_trainer(splits.validation, 16);
  const double kind_loss =
      evaluate_gan(kind_driver.trainer(kind_best).model(), dataset,
                   splits.validation, 16)
          .total();

  EXPECT_LT(ltfb_loss, kind_loss * 1.10);
}

}  // namespace
