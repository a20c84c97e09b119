// Distributed LTFB over the message-passing substrate — the LBANN runtime
// shape (Fig. 4): the world communicator is split into trainers of
// `ranks_per_trainer` ranks each; ranks inside a trainer run data-parallel
// SGD (per-rank mini-batch shards + gradient all-reduce), while rank 0 of
// each trainer (the "leader") conducts the tournaments: pair up, sendrecv
// generator weights with the partner's leader, evaluate both on the local
// tournament set, adopt the winner, and broadcast the surviving weights to
// the trainer's other ranks.
//
// Every rank calls run_distributed_ltfb with the same configuration; the
// function is collective over `world`. Each rank hosts a GanTrainer over
// its row shard of the trainer's mini-batch; the tournament steps (partner
// lookup, exchange, duel) come from the shared engine in
// core/tournament.hpp.
//
// Fault tolerance: tournaments are survivor-aware. When a partner's leader
// dies mid-exchange (RankFailedError) or stalls past the deadline
// (TimeoutError), the survivor keeps its own model, the round is recorded
// as degraded (stat.partner_failed), and the leader communicator is shrunk
// ULFM-style so the next round pairs only live trainers. A failure *inside* a trainer (gradient all-reduce or winner
// broadcast hitting a dead rank) is unrecoverable for that trainer: its
// surviving ranks return early with outcome.aborted set, and the rest of
// the population routes around them. Injected faults (ltfb::comm::
// FaultInjected) are never caught here — the killed rank unwinds.
#pragma once

#include <chrono>
#include <string>

#include "comm/communicator.hpp"
#include "core/ltfb.hpp"
#include "data/dataset.hpp"

namespace ltfb::core {

struct DistributedLtfbConfig {
  int ranks_per_trainer = 1;
  std::size_t batch_size = 32;  // global per-trainer mini-batch
  LtfbConfig ltfb;
  gan::CycleGanConfig model;
  std::uint64_t seed = 1;
  /// Deadline for tournament exchanges and gradient all-reduces; must be
  /// positive. The post-round survivor agreement (Communicator::shrink)
  /// gets 4x this budget: a dead rank's partner only reaches the rendezvous
  /// after waiting out its own exchange.
  std::chrono::milliseconds comm_timeout{60'000};
  /// When `checkpoint_every` > 0, each trainer's leader writes its slot to
  /// `<checkpoint_dir>/trainer_<id>.pop` (population checkpoint v2, atomic)
  /// after every K completed rounds.
  std::string checkpoint_dir;
  std::size_t checkpoint_every = 0;
  /// When non-empty, every rank of trainer T restores from
  /// `<resume_from>/trainer_<T>.pop` before round `checkpoint.round`:
  /// pretraining is skipped and training resumes bit-identically (trainer
  /// state within a trainer is replicated, so the leader's file serves all
  /// of its ranks).
  std::string resume_from;
  /// In-band cluster metric aggregation (core/metrics_aggregator.hpp):
  /// when telemetry is enabled and this path is non-empty, the root leader
  /// appends one JSON object of per-round cluster aggregates per LTFB
  /// round. Empty falls back to the LTFB_METRICS_TIMESERIES environment
  /// variable (so unmodified binaries can produce the artifact).
  std::string metrics_timeseries_path;
  /// Emit a one-line per-round cluster progress summary through the Logger
  /// from the root leader (requires telemetry enabled).
  bool live_progress = false;
};

struct DistributedLtfbOutcome {
  int trainer_id = 0;
  int trainer_rank = 0;
  std::size_t tournaments_won = 0;  // times this trainer kept its own model
  std::size_t adoptions = 0;        // times it adopted the partner's model
  std::size_t partner_failures = 0;  // rounds degraded by a dead partner
  bool aborted = false;  // this trainer lost a rank and left the population
  double final_tournament_score = 0.0;
  double final_validation_loss = 0.0;  // forward+inverse on splits.validation
  std::vector<RoundRecord> history;  // leader's view (one stat per round)
};

/// Collective over `world`; world size must be a multiple of
/// ranks_per_trainer. Throws ltfb::InvalidArgument when comm_timeout is not
/// positive or ltfb.lr_perturbation is non-zero. Returns per-rank outcome (scores are computed on the
/// leader and broadcast inside each trainer, so all ranks agree).
DistributedLtfbOutcome run_distributed_ltfb(
    comm::Communicator& world, const data::Dataset& dataset,
    const data::SplitIndices& splits, const DistributedLtfbConfig& config);

}  // namespace ltfb::core
