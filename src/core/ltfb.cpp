#include "core/ltfb.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>

#include "core/population_checkpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace ltfb::core {

LocalLtfbDriver::LocalLtfbDriver(
    std::vector<std::unique_ptr<GanTrainer>> trainers, LtfbConfig config)
    : trainers_(std::move(trainers)), config_(std::move(config)) {
  LTFB_CHECK_MSG(!trainers_.empty(), "LTFB needs at least one trainer");
  for (const auto& trainer : trainers_) {
    LTFB_CHECK(trainer != nullptr);
  }
  if (!config_.resume_from.empty()) {
    const PopulationCheckpoint checkpoint =
        load_population_checkpoint(config_.resume_from);
    LTFB_CHECK_MSG(checkpoint.trainers.size() == trainers_.size(),
                   "checkpoint holds " << checkpoint.trainers.size()
                                       << " trainers, driver has "
                                       << trainers_.size());
    LTFB_CHECK_MSG(checkpoint.pairing_seed == config_.pairing_seed,
                   "checkpoint pairing seed " << checkpoint.pairing_seed
                                              << " != configured seed "
                                              << config_.pairing_seed
                                              << "; resume would repair "
                                                 "trainers differently");
    for (std::size_t i = 0; i < trainers_.size(); ++i) {
      trainers_[i]->restore_state(checkpoint.trainers[i].trainer);
    }
    round_counter_ = static_cast<std::size_t>(checkpoint.round);
    history_ = checkpoint.history;
    resumed_ = true;
  }
}

GanTrainer& LocalLtfbDriver::trainer(std::size_t index) {
  LTFB_CHECK(index < trainers_.size());
  return *trainers_[index];
}

void LocalLtfbDriver::pretrain() {
  for (auto& trainer : trainers_) {
    trainer->pretrain_autoencoder(config_.pretrain_steps);
  }
}

const RoundRecord& LocalLtfbDriver::run_round() {
  LTFB_SPAN("ltfb/round");
  LTFB_COUNTER_ADD("ltfb/rounds", 1);
  const telemetry::Stopwatch round_clock;
  double fastest_train_s = std::numeric_limits<double>::infinity();
  double slowest_train_s = 0.0;
  // Independent training phase (lockstep stands in for parallel trainers).
  {
    LTFB_SPAN("ltfb/train_phase");
    for (auto& trainer : trainers_) {
      const telemetry::Stopwatch train_clock;
      trainer->train_steps(config_.steps_per_round);
      const double train_s = train_clock.elapsed_seconds();
      fastest_train_s = std::min(fastest_train_s, train_s);
      slowest_train_s = std::max(slowest_train_s, train_s);
    }
  }

  RoundRecord record;
  record.round = round_counter_;
  record.max_rank_gap_s =
      trainers_.empty() ? 0.0 : slowest_train_s - fastest_train_s;
  record.stats.resize(trainers_.size());
  for (std::size_t i = 0; i < trainers_.size(); ++i) {
    record.stats[i].trainer_id = trainers_[i]->id();
  }

  // Tournament: pair up, exchange, evaluate on the LOCAL tournament set,
  // keep the better model. Both sides snapshot before either adopts so the
  // exchange is symmetric (as if the messages crossed on the wire).
  LTFB_SPAN("ltfb/tournament");
  const auto pairs = tournament_pairs(trainers_.size(), config_.pairing_seed,
                                      round_counter_);
  for (const auto& [a, b] : pairs) {
    GanTrainer& ta = *trainers_[static_cast<std::size_t>(a)];
    GanTrainer& tb = *trainers_[static_cast<std::size_t>(b)];
    const std::vector<float> wa = exchange_payload(ta.model(), config_.scope);
    const std::vector<float> wb = exchange_payload(tb.model(), config_.scope);
    const float lr_a = ta.model().learning_rate();
    const float lr_b = tb.model().learning_rate();

    auto side = [&](GanTrainer& local, const std::vector<float>& own,
                    const std::vector<float>& received, int partner_id,
                    float partner_lr, TrainerRoundStat& stat) {
      stat.partner_id = partner_id;
      if (duel(local, own, received, config_.scope, config_.metric, stat) &&
          config_.lr_perturbation > 0.0f) {
        // PBT exploit/explore: inherit the winner's learning rate with a
        // deterministic perturbation.
        util::Rng rng(util::derive_seed(
            config_.pairing_seed, round_counter_,
            static_cast<std::uint64_t>(local.id())));
        const float factor = static_cast<float>(
            rng.uniform(1.0 - config_.lr_perturbation,
                        1.0 + config_.lr_perturbation));
        local.model().set_learning_rate(partner_lr * factor);
      }
    };
    side(ta, wa, wb, tb.id(), lr_b, record.stats[static_cast<std::size_t>(a)]);
    side(tb, wb, wa, ta.id(), lr_a, record.stats[static_cast<std::size_t>(b)]);
  }

  ++round_counter_;
  record.wall_s = round_clock.elapsed_seconds();
  history_.push_back(std::move(record));
  if (config_.checkpoint_every > 0 && !config_.checkpoint_path.empty() &&
      round_counter_ % config_.checkpoint_every == 0) {
    save_checkpoint(config_.checkpoint_path);
  }
  return history_.back();
}

void LocalLtfbDriver::run() {
  if (!resumed_) pretrain();
  while (round_counter_ < config_.rounds) {
    run_round();
  }
}

void LocalLtfbDriver::save_checkpoint(const std::string& path) const {
  LTFB_SPAN("ltfb/checkpoint");
  PopulationCheckpoint checkpoint;
  checkpoint.round = round_counter_;
  checkpoint.pairing_seed = config_.pairing_seed;
  checkpoint.trainers.reserve(trainers_.size());
  for (const auto& trainer : trainers_) {
    TrainerSlot slot;
    slot.trainer = trainer->capture_state();
    for (const RoundRecord& record : history_) {
      for (const TrainerRoundStat& stat : record.stats) {
        if (stat.trainer_id != trainer->id() || stat.partner_id < 0) continue;
        if (stat.adopted_partner) {
          ++slot.adoptions;
        } else if (!stat.partner_failed) {
          ++slot.tournaments_won;
        }
      }
    }
    checkpoint.trainers.push_back(std::move(slot));
  }
  checkpoint.history = history_;
  save_population_checkpoint(path, checkpoint);
  LTFB_COUNTER_ADD("ltfb/checkpoints_written", 1);
}

std::size_t LocalLtfbDriver::best_trainer(
    const std::vector<std::size_t>& validation_view, std::size_t batch_size) {
  return core::best_trainer(trainers_, validation_view, batch_size);
}

bool export_history_csv(const std::vector<RoundRecord>& history,
                        const std::string& path) {
  // Atomic export: rows go to a temp sibling; only after a healthy
  // flush+close is it renamed over the target. An I/O failure (full disk,
  // unwritable directory) leaves no partial CSV behind.
  const std::string tmp = path + ".tmp";
  {
    util::CsvWriter csv(tmp, {"round", "event", "trainer", "partner",
                              "own_score", "partner_score", "adopted",
                              "partner_failed", "round_wall_s",
                              "max_rank_gap_s"});
    if (!csv.ok()) return false;
    for (const auto& record : history) {
      // Elastic churn (PR 8): population resizes are explicit `joined` /
      // `left` event rows, never silently misaligned per-trainer columns.
      // Event rows carry the round and the trainer; the tournament fields
      // are empty.
      for (const int trainer : record.joined) {
        csv.add_row({std::to_string(record.round), "joined",
                     std::to_string(trainer), "", "", "", "", "", "", ""});
      }
      for (const int trainer : record.left) {
        csv.add_row({std::to_string(record.round), "left",
                     std::to_string(trainer), "", "", "", "", "", "", ""});
      }
      for (const auto& stat : record.stats) {
        csv.add_row({std::to_string(record.round), "round",
                     std::to_string(stat.trainer_id),
                     std::to_string(stat.partner_id),
                     util::format_double(stat.own_score, 6),
                     util::format_double(stat.partner_score, 6),
                     stat.adopted_partner ? "1" : "0",
                     stat.partner_failed ? "1" : "0",
                     util::format_double(record.wall_s, 6),
                     util::format_double(record.max_rank_gap_s, 6)});
      }
    }
    if (!csv.close()) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

KIndependentDriver::KIndependentDriver(
    std::vector<std::unique_ptr<GanTrainer>> trainers, LtfbConfig config)
    : trainers_(std::move(trainers)), config_(config) {
  LTFB_CHECK_MSG(!trainers_.empty(),
                 "K-independent training needs at least one trainer");
}

GanTrainer& KIndependentDriver::trainer(std::size_t index) {
  LTFB_CHECK(index < trainers_.size());
  return *trainers_[index];
}

void KIndependentDriver::pretrain() {
  for (auto& trainer : trainers_) {
    trainer->pretrain_autoencoder(config_.pretrain_steps);
  }
}

void KIndependentDriver::run_round() {
  for (auto& trainer : trainers_) {
    trainer->train_steps(config_.steps_per_round);
  }
}

void KIndependentDriver::run() {
  pretrain();
  for (std::size_t r = 0; r < config_.rounds; ++r) {
    run_round();
  }
}

std::size_t KIndependentDriver::best_trainer(
    const std::vector<std::size_t>& validation_view, std::size_t batch_size) {
  return core::best_trainer(trainers_, validation_view, batch_size);
}

}  // namespace ltfb::core
