// The LTFB tournament engine (Sec. III-C): the one copy of every step a
// GAN tournament takes, shared by the three drivers (LocalLtfbDriver,
// run_distributed_ltfb, run_elastic_ltfb). Each driver keeps only what is
// specific to it — lockstep pairing, leader shrink and winner broadcast,
// scheduler boundaries — and calls these free functions for the rest:
//
//   * pairing        — tournament_pairs / tournament_partner over a sorted
//                      roster of trainer ids (stateless in the roster, the
//                      seed and the round, so any replay re-pairs alike);
//   * payload        — exchange_payload / load_exchange_payload for an
//                      ExchangeScope (generator only, or the full model);
//   * score          — tournament_score: the TournamentMetric on the
//                      trainer's LOCAL tournament set;
//   * duel           — score own, load received, score, adopt or restore;
//   * exchange       — exchange_and_duel: the survivor-aware duel over a
//                      Communicator (a dead or stalled partner degrades the
//                      round instead of failing it);
//   * selection      — best_trainer on a validation view.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "core/gan_trainer.hpp"

namespace ltfb::core {

/// What a tournament exchanges.
enum class ExchangeScope {
  GeneratorOnly,  // paper default for GANs: E, Dec, F, G — not the critic
  FullModel       // ablation: critic travels too
};

/// What the local tournament evaluates.
enum class TournamentMetric {
  ForwardInverse,  // forward + inverse validation loss (Sec. IV quality metric)
  ForwardInverseAdversarial  // additionally charge the generator the BCE it
                             // incurs against the LOCAL critic (Fig. 6 flavour)
};

struct TrainerRoundStat {
  int trainer_id = 0;
  int partner_id = -1;          // -1 when sitting out
  double own_score = 0.0;       // tournament metric of the local model
  double partner_score = 0.0;   // tournament metric of the received model
  bool adopted_partner = false;
  /// True when the paired partner died mid-tournament (distributed runs):
  /// the survivor kept its own model and the round counts as degraded.
  bool partner_failed = false;
};

/// Deterministic random pairing for a round: a seeded permutation of
/// [0, n), paired consecutively. With odd n the last trainer sits out.
std::vector<std::pair<int, int>> tournament_pairs(std::size_t n,
                                                  std::uint64_t seed,
                                                  std::size_t round);

/// The partner of `trainer_id` this round among the live trainers
/// `sorted_ids` (ascending): tournament_pairs over roster positions. -1
/// when the trainer sits out. Throws ltfb::InvalidArgument when
/// `trainer_id` is not in the roster.
int tournament_partner(std::span<const int> sorted_ids, int trainer_id,
                       std::uint64_t seed, std::size_t round);

/// The flat weights a tournament ships for `scope`: the generator bundle,
/// followed by the critic under FullModel.
std::vector<float> exchange_payload(const gan::CycleGan& model,
                                    ExchangeScope scope);

/// Loads a payload built by exchange_payload with the same scope.
void load_exchange_payload(gan::CycleGan& model,
                           std::span<const float> payload,
                           ExchangeScope scope);

/// The tournament metric of the trainer's current model on its local
/// tournament set; lower is better.
double tournament_score(GanTrainer& trainer, TournamentMetric metric);

/// One side of a tournament: scores the trainer's own model, loads the
/// partner's `received` payload, scores that, and keeps the better one —
/// on a tie or a loss `own` is loaded back. Fills the scores and
/// adopted_partner of `stat`; returns adopted_partner.
bool duel(GanTrainer& trainer, std::span<const float> own,
          std::span<const float> received, ExchangeScope scope,
          TournamentMetric metric, TrainerRoundStat& stat);

/// The survivor-aware tournament over a communicator: swaps payloads with
/// `peer` in one sendrecv tagged `tag` and bounded by `deadline`, then
/// duels. A partner that died (RankFailedError) or stalled past the
/// deadline (TimeoutError) leaves the model untouched and sets
/// stat.partner_failed; the round counts as degraded.
void exchange_and_duel(comm::Communicator& comm, int peer, int tag,
                       std::chrono::milliseconds deadline,
                       GanTrainer& trainer, ExchangeScope scope,
                       TournamentMetric metric, TrainerRoundStat& stat);

/// Index of the trainer whose model has the lowest forward+inverse loss on
/// `validation_view` (the first one on ties).
std::size_t best_trainer(
    const std::vector<std::unique_ptr<GanTrainer>>& trainers,
    const std::vector<std::size_t>& validation_view, std::size_t batch_size);

}  // namespace ltfb::core
