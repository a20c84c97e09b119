// "Let a Thousand Flowers Bloom" — the tournament training algorithm
// (Sec. III-C), this repository's primary contribution reproduction.
//
// A population of trainers trains loosely coupled: each trainer sees only
// its private partition of the data. Periodically, trainers are randomly
// paired and exchange models; each evaluates its own and its partner's
// model on a *local* tournament hold-out set and keeps the better one.
// Surviving models have effectively been educated on many partitions, so
// quality matches whole-dataset training while each trainer's working set
// stays small — the mechanism behind the paper's strong scaling.
//
// GAN extension (the paper's novelty): only the generator bundle is
// exchanged; discriminators stay local, acting as a panel of independent
// teachers. Full-model exchange is retained as an ablation.
//
// Three drivers host GanTrainers and share one tournament engine
// (core/tournament.hpp: pairing, exchange payload, score, duel):
//   * LocalLtfbDriver — deterministic single-thread lockstep over in-process
//     trainers (used by the quality benches, Figs. 12/13).
//   * run_distributed_ltfb (ltfb_comm.hpp) — rank-parallel trainers over
//     ltfb::comm with data parallelism inside each trainer (LBANN's shape).
//   * run_elastic_ltfb (scheduler.hpp) — single-rank trainers whose
//     population grows, shrinks and migrates at round boundaries.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/gan_trainer.hpp"
#include "core/tournament.hpp"

namespace ltfb::core {

struct LtfbConfig {
  std::size_t steps_per_round = 50;  // mini-batch steps between tournaments
  std::size_t rounds = 20;
  std::size_t pretrain_steps = 0;  // autoencoder warm-up before round 0
  ExchangeScope scope = ExchangeScope::GeneratorOnly;
  TournamentMetric metric = TournamentMetric::ForwardInverse;
  std::uint64_t pairing_seed = 0x7031'13fbull;
  /// PBT-style hyperparameter exploration (Jaderberg et al., the
  /// population-based-training cousin the paper cites): when a trainer
  /// adopts its partner's model it also inherits the partner's learning
  /// rate, perturbed by a factor in [1-x, 1+x] — exploit plus explore.
  /// 0 disables (the paper's LTFB keeps hyperparameters fixed). Only
  /// LocalLtfbDriver applies it: the comm exchange carries weights, not the
  /// partner's learning rate, so the distributed drivers reject non-zero.
  float lr_perturbation = 0.0f;
  /// Population checkpointing: when `checkpoint_every` > 0, the driver
  /// writes a v2 population checkpoint to `checkpoint_path` after every K
  /// completed rounds (atomically — see core/population_checkpoint.hpp).
  std::string checkpoint_path;
  std::size_t checkpoint_every = 0;
  /// When non-empty, the constructor restores the full population state
  /// (weights, optimizer moments, reader positions, round counter, history)
  /// from this checkpoint; run() then skips pretraining and continues from
  /// the recorded round. The restarted history is bit-identical to an
  /// uninterrupted run.
  std::string resume_from;
};

struct RoundRecord {
  std::size_t round = 0;
  std::vector<TrainerRoundStat> stats;
  /// Elastic churn markers (PR 8): trainer ids that joined / left the
  /// population at the boundary ENTERING this round. Part of the v3
  /// checkpoint format and exported as explicit `joined`/`left` event rows
  /// in the history CSV, so offline analysis never misreads a resized
  /// round as misaligned columns.
  std::vector<int> joined;
  std::vector<int> left;
  /// Wall-clock duration of the whole round (train + tournament). Not part
  /// of the checkpoint format: timings are not reproducible across runs.
  double wall_s = 0.0;
  /// Straggler spread: max - min per-trainer (local driver) or per-rank
  /// (distributed) train-phase time within the round, seconds.
  double max_rank_gap_s = 0.0;
};

class LocalLtfbDriver {
 public:
  LocalLtfbDriver(std::vector<std::unique_ptr<GanTrainer>> trainers,
                  LtfbConfig config);

  std::size_t population() const noexcept { return trainers_.size(); }
  GanTrainer& trainer(std::size_t index);
  const LtfbConfig& config() const noexcept { return config_; }
  const std::vector<RoundRecord>& history() const noexcept { return history_; }

  /// Autoencoder warm-up on every trainer (config.pretrain_steps each).
  void pretrain();

  /// One LTFB round: every trainer takes steps_per_round training steps,
  /// then the tournament runs.
  const RoundRecord& run_round();

  /// pretrain() + config.rounds tournament rounds. When the driver was
  /// resumed from a checkpoint, pretraining is skipped (it happened before
  /// the checkpoint was written) and only the remaining rounds run.
  void run();

  /// Index of the trainer whose model scores best (lowest forward+inverse
  /// loss) on the given validation view.
  std::size_t best_trainer(const std::vector<std::size_t>& validation_view,
                           std::size_t batch_size);

  /// Writes the whole population atomically to `path` (checkpoint v2).
  void save_checkpoint(const std::string& path) const;

  /// Rounds completed so far (resumes mid-sequence after restore).
  std::size_t rounds_completed() const noexcept { return round_counter_; }
  bool resumed() const noexcept { return resumed_; }

 private:
  std::vector<std::unique_ptr<GanTrainer>> trainers_;
  LtfbConfig config_;
  std::vector<RoundRecord> history_;
  std::size_t round_counter_ = 0;
  bool resumed_ = false;
};

/// Writes a tournament history to CSV (round, event, trainer, partner,
/// scores, adopted, partner_failed, plus the per-round round_wall_s /
/// max_rank_gap_s timing columns consumed by tools/ltfb_trace.py) for
/// offline analysis / plotting. The `event` column is `round` for
/// tournament stat rows and `joined`/`left` for explicit population-churn
/// marker rows (elastic runs), so a resized population never produces
/// misaligned columns — the
/// experiment-tracking artifact a production run would archive. The write
/// is atomic: rows land in a temp sibling that is renamed over `path` only
/// after a healthy flush+close, so a full disk or I/O error returns false
/// and leaves no partial file at `path`.
bool export_history_csv(const std::vector<RoundRecord>& history,
                        const std::string& path);

/// The paper's Sec. IV-E baseline: the same population, the same data
/// partitions, the same step counts — but no tournaments; each trainer is
/// marooned on its shard. Select the best final model by validation loss.
class KIndependentDriver {
 public:
  KIndependentDriver(std::vector<std::unique_ptr<GanTrainer>> trainers,
                     LtfbConfig config);

  std::size_t population() const noexcept { return trainers_.size(); }
  GanTrainer& trainer(std::size_t index);

  void pretrain();
  void run_round();  // steps_per_round steps per trainer, no exchange
  void run();

  std::size_t best_trainer(const std::vector<std::size_t>& validation_view,
                           std::size_t batch_size);

 private:
  std::vector<std::unique_ptr<GanTrainer>> trainers_;
  LtfbConfig config_;
};

}  // namespace ltfb::core
