#include "core/tournament.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "comm/serializer.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ltfb::core {

std::vector<std::pair<int, int>> tournament_pairs(std::size_t n,
                                                  std::uint64_t seed,
                                                  std::size_t round) {
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(util::derive_seed(seed, round, 0x9a1bull));
  rng.shuffle(order);
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(n / 2);
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    pairs.emplace_back(order[i], order[i + 1]);
  }
  return pairs;
}

int tournament_partner(std::span<const int> sorted_ids, int trainer_id,
                       std::uint64_t seed, std::size_t round) {
  const auto mine = std::find(sorted_ids.begin(), sorted_ids.end(), trainer_id);
  LTFB_CHECK_MSG(mine != sorted_ids.end(),
                 "trainer " << trainer_id << " is not in the roster");
  const auto my_pos = static_cast<int>(mine - sorted_ids.begin());
  for (const auto& [a, b] : tournament_pairs(sorted_ids.size(), seed, round)) {
    if (a == my_pos) return sorted_ids[static_cast<std::size_t>(b)];
    if (b == my_pos) return sorted_ids[static_cast<std::size_t>(a)];
  }
  return -1;
}

std::vector<float> exchange_payload(const gan::CycleGan& model,
                                    ExchangeScope scope) {
  std::vector<float> flat = model.generator_weights();
  if (scope == ExchangeScope::FullModel) {
    const auto disc = model.discriminator_weights();
    flat.insert(flat.end(), disc.begin(), disc.end());
  }
  return flat;
}

void load_exchange_payload(gan::CycleGan& model,
                           std::span<const float> payload,
                           ExchangeScope scope) {
  const std::size_t gen = model.generator_parameter_count();
  model.load_generator_weights(payload.subspan(0, gen));
  if (scope == ExchangeScope::FullModel) {
    model.load_discriminator_weights(payload.subspan(gen));
  }
}

double tournament_score(GanTrainer& trainer, TournamentMetric metric) {
  return score_gan(trainer.model(), trainer.dataset(),
                   trainer.tournament_view(), trainer.batch_size(),
                   metric == TournamentMetric::ForwardInverseAdversarial);
}

bool duel(GanTrainer& trainer, std::span<const float> own,
          std::span<const float> received, ExchangeScope scope,
          TournamentMetric metric, TrainerRoundStat& stat) {
  stat.own_score = tournament_score(trainer, metric);
  load_exchange_payload(trainer.model(), received, scope);
  stat.partner_score = tournament_score(trainer, metric);
  stat.adopted_partner = stat.partner_score < stat.own_score;
  if (stat.adopted_partner) {
    LTFB_COUNTER_ADD("ltfb/adoptions", 1);
  } else {
    load_exchange_payload(trainer.model(), own, scope);
  }
  return stat.adopted_partner;
}

void exchange_and_duel(comm::Communicator& comm, int peer, int tag,
                       std::chrono::milliseconds deadline,
                       GanTrainer& trainer, ExchangeScope scope,
                       TournamentMetric metric, TrainerRoundStat& stat) {
  const std::vector<float> own = exchange_payload(trainer.model(), scope);
  try {
    comm::Buffer received;
    {
      LTFB_SPAN("ltfb/exchange");
      received = comm.sendrecv(peer, tag, comm::Serializer::pack_floats(own),
                               deadline);
    }
    const std::vector<float> candidate =
        comm::Deserializer::unpack_floats(received);
    duel(trainer, own, candidate, scope, metric, stat);
  } catch (const RankFailedError&) {
    // The partner is dead or departed: the exchange failed before any
    // load, so the survivor still holds its own model.
    stat.partner_failed = true;
    LTFB_COUNTER_ADD("ltfb/faults_detected", 1);
    LTFB_COUNTER_ADD("ltfb/rounds_degraded", 1);
  } catch (const TimeoutError&) {
    stat.partner_failed = true;
    LTFB_COUNTER_ADD("ltfb/faults_detected", 1);
    LTFB_COUNTER_ADD("ltfb/rounds_degraded", 1);
  }
}

std::size_t best_trainer(
    const std::vector<std::unique_ptr<GanTrainer>>& trainers,
    const std::vector<std::size_t>& validation_view, std::size_t batch_size) {
  std::size_t best = 0;
  double best_loss = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < trainers.size(); ++i) {
    const double loss =
        score_gan(trainers[i]->model(), trainers[i]->dataset(),
                  validation_view, batch_size, /*adversarial=*/false);
    if (loss < best_loss) {
      best_loss = loss;
      best = i;
    }
  }
  return best;
}

}  // namespace ltfb::core
