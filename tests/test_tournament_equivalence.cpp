// Cross-driver and cross-backend equivalence of the LTFB tournament.
//
// The three GAN drivers — LocalLtfbDriver (lockstep, in-process),
// run_distributed_ltfb (leaders over a Communicator) and run_elastic_ltfb
// (scheduler-driven, churn-free here) — implement one algorithm. With one
// rank per trainer and the same seed they must produce the same tournament
// map (round, trainer) -> (partner, own score bits, partner score bits,
// adopted). With two ranks per trainer, run_distributed_ltfb must produce
// identical histories and final generator weights whether its ranks are
// threads over the in-process backend, threads over loopback sockets, or
// forked OS processes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "comm/communicator.hpp"
#include "core/ltfb.hpp"
#include "core/ltfb_comm.hpp"
#include "core/population_checkpoint.hpp"
#include "core/scheduler.hpp"

namespace {

using namespace ltfb;
using namespace ltfb::core;

constexpr int kTrainers = 4;

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

LtfbConfig tournament_config(ExchangeScope scope, TournamentMetric metric) {
  LtfbConfig ltfb;
  ltfb.steps_per_round = 3;
  ltfb.rounds = 4;
  ltfb.pretrain_steps = 2;
  ltfb.scope = scope;
  ltfb.metric = metric;
  return ltfb;
}

constexpr std::size_t kBatch = 16;
constexpr std::uint64_t kSeed = 91;

/// (partner, own score bits, partner score bits, adopted)
using Outcome = std::tuple<int, std::uint64_t, std::uint64_t, bool>;
using TournamentMap = std::map<std::pair<std::size_t, int>, Outcome>;

void add_history(const std::vector<RoundRecord>& history, TournamentMap& map) {
  for (const RoundRecord& record : history) {
    for (const TrainerRoundStat& stat : record.stats) {
      EXPECT_FALSE(stat.partner_failed);
      const auto key = std::make_pair(record.round, stat.trainer_id);
      EXPECT_EQ(map.count(key), 0u) << "duplicate row";
      map[key] = Outcome{stat.partner_id,
                         std::bit_cast<std::uint64_t>(stat.own_score),
                         std::bit_cast<std::uint64_t>(stat.partner_score),
                         stat.adopted_partner};
    }
  }
}

// ---- one driver, three transports ---------------------------------------------------

std::uint64_t fnv1a(const std::vector<float>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const float v : values) {
    const auto bits = std::bit_cast<std::uint32_t>(v);
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (bits >> shift) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

struct TrainerRun {
  TournamentMap tournaments;
  std::uint64_t generator_hash = 0;
};

/// Every leader writes its slot after the last round; the slot holds the
/// leader's history and the trainer's final weights, and reaches the test
/// from threads and forked children alike.
std::map<int, TrainerRun> read_slots(const std::filesystem::path& dir,
                                     int trainers) {
  std::map<int, TrainerRun> runs;
  for (int t = 0; t < trainers; ++t) {
    const PopulationCheckpoint ckpt = load_population_checkpoint(
        dir / ("trainer_" + std::to_string(t) + ".pop"));
    EXPECT_EQ(ckpt.trainers.size(), 1u);
    if (ckpt.trainers.size() != 1) continue;
    TrainerRun& run = runs[t];
    add_history(ckpt.history, run.tournaments);
    run.generator_hash = fnv1a(ckpt.trainers.front().trainer.generator);
  }
  return runs;
}

TEST(TournamentEquivalence, TwoRanksPerTrainerAcrossBackends) {
  const data::Dataset dataset = tiny_dataset(400, 94);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 95);
  constexpr int kRanks = 4;
  constexpr int kRanksPerTrainer = 2;
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("ltfb_equivalence_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);

  auto config_for = [&](const std::string& leg) {
    DistributedLtfbConfig config;
    config.ranks_per_trainer = kRanksPerTrainer;
    config.batch_size = kBatch;
    config.ltfb = tournament_config(ExchangeScope::GeneratorOnly,
                                    TournamentMetric::ForwardInverse);
    config.model = tiny_config();
    config.seed = kSeed;
    config.checkpoint_dir = (root / leg).string();
    config.checkpoint_every = config.ltfb.rounds;
    std::filesystem::create_directories(config.checkpoint_dir);
    return config;
  };

  // The spawn leg forks before anything in this process has started a
  // thread (this test is declared first): ThreadSanitizer does not support
  // forking a multi-threaded process.
  std::map<std::string, std::map<int, TrainerRun>> legs;
  {
    const DistributedLtfbConfig config = config_for("spawn");
    const auto statuses =
        comm::World::spawn_processes(kRanks, [&](comm::Communicator& comm) {
          const auto outcome =
              run_distributed_ltfb(comm, dataset, splits, config);
          LTFB_CHECK_MSG(!outcome.aborted, "spawned rank aborted");
        });
    for (const auto& status : statuses) {
      ASSERT_TRUE(status.clean()) << "rank " << status.rank << " exit "
                                  << status.code;
    }
    legs["spawn"] =
        read_slots(config.checkpoint_dir, kRanks / kRanksPerTrainer);
  }
  for (const comm::BackendKind kind :
       {comm::BackendKind::InProc, comm::BackendKind::Socket}) {
    const std::string leg = comm::backend_name(kind);
    const DistributedLtfbConfig config = config_for(leg);
    comm::World world(kRanks, kind);
    for (const std::exception_ptr& error :
         world.run_ranks([&](comm::Communicator& comm) {
           const auto outcome =
               run_distributed_ltfb(comm, dataset, splits, config);
           EXPECT_FALSE(outcome.aborted);
         })) {
      if (error) std::rethrow_exception(error);
    }
    legs[leg] = read_slots(config.checkpoint_dir, kRanks / kRanksPerTrainer);
  }

  const auto& reference = legs.begin()->second;
  ASSERT_EQ(reference.size(), 2u);
  for (const auto& [trainer, run] : reference) {
    EXPECT_EQ(run.tournaments.size(), 4u) << "trainer " << trainer;
  }
  for (const auto& [leg, runs] : legs) {
    ASSERT_EQ(runs.size(), reference.size()) << leg;
    for (const auto& [trainer, run] : runs) {
      EXPECT_EQ(run.tournaments, reference.at(trainer).tournaments)
          << leg << " trainer " << trainer;
      EXPECT_EQ(run.generator_hash, reference.at(trainer).generator_hash)
          << leg << " trainer " << trainer;
    }
  }
  std::filesystem::remove_all(root);
}

// ---- three drivers, one history ----------------------------------------------------

TournamentMap run_local(const data::Dataset& dataset,
                        const data::SplitIndices& splits,
                        const LtfbConfig& ltfb) {
  std::vector<std::unique_ptr<GanTrainer>> trainers;
  for (int t = 0; t < kTrainers; ++t) {
    const auto index = static_cast<std::size_t>(t);
    trainers.push_back(std::make_unique<GanTrainer>(
        t, tiny_config(), dataset,
        data::partition_indices(splits.train, kTrainers, index),
        data::partition_indices(splits.tournament, kTrainers, index), kBatch,
        kSeed));
  }
  LocalLtfbDriver driver(std::move(trainers), ltfb);
  driver.run();
  TournamentMap map;
  add_history(driver.history(), map);
  return map;
}

TournamentMap run_distributed(const data::Dataset& dataset,
                              const data::SplitIndices& splits,
                              const LtfbConfig& ltfb) {
  DistributedLtfbConfig config;
  config.ranks_per_trainer = 1;
  config.batch_size = kBatch;
  config.ltfb = ltfb;
  config.model = tiny_config();
  config.seed = kSeed;
  std::mutex mutex;
  TournamentMap map;
  comm::World::run(kTrainers, [&](comm::Communicator& world) {
    const auto outcome = run_distributed_ltfb(world, dataset, splits, config);
    EXPECT_FALSE(outcome.aborted);
    const std::scoped_lock lock(mutex);
    add_history(outcome.history, map);
  });
  return map;
}

TournamentMap run_elastic(const data::Dataset& dataset,
                          const data::SplitIndices& splits,
                          const LtfbConfig& ltfb) {
  ElasticLtfbConfig config;
  config.batch_size = kBatch;
  config.ltfb = ltfb;
  config.model = tiny_config();
  config.seed = kSeed;
  config.initial_trainers = kTrainers;
  config.max_trainers = kTrainers;
  config.churn_from_env = false;
  std::mutex mutex;
  TournamentMap map;
  comm::World::run(kTrainers, [&](comm::Communicator& world) {
    const auto outcome = run_elastic_ltfb(world, dataset, splits, config);
    EXPECT_FALSE(outcome.aborted);
    if (outcome.scheduler) {
      const std::scoped_lock lock(mutex);
      add_history(outcome.history, map);
    }
  });
  return map;
}

void expect_drivers_agree(ExchangeScope scope, TournamentMetric metric) {
  const data::Dataset dataset = tiny_dataset(400, 92);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 93);
  const LtfbConfig ltfb = tournament_config(scope, metric);

  const TournamentMap local = run_local(dataset, splits, ltfb);
  const TournamentMap distributed = run_distributed(dataset, splits, ltfb);
  const TournamentMap elastic = run_elastic(dataset, splits, ltfb);

  ASSERT_EQ(local.size(), ltfb.rounds * kTrainers);
  std::size_t adoptions = 0;
  for (const auto& [key, outcome] : local) {
    if (std::get<3>(outcome)) ++adoptions;
  }
  // Both tournament outcomes occur, so the comparison covers adopt AND
  // restore paths.
  EXPECT_GT(adoptions, 0u);
  EXPECT_LT(adoptions, local.size());
  EXPECT_EQ(local, distributed);
  EXPECT_EQ(local, elastic);
}

TEST(TournamentEquivalence, GeneratorOnlyForwardInverse) {
  expect_drivers_agree(ExchangeScope::GeneratorOnly,
                       TournamentMetric::ForwardInverse);
}

TEST(TournamentEquivalence, FullModelForwardInverseAdversarial) {
  expect_drivers_agree(ExchangeScope::FullModel,
                       TournamentMetric::ForwardInverseAdversarial);
}

}  // namespace
