// Distributed-LTFB observability smoke: a tiny multi-trainer run with
// telemetry forced on, leaving behind the full distributed-observability
// artifact set (DESIGN.md §11):
//
//   * a Chrome trace with one pid per rank and cross-rank flow arrows,
//   * the in-band metrics_timeseries.jsonl (one cluster aggregate per
//     round, appended by the root leader),
//   * a metrics JSON snapshot.
//
// tools/ltfb_trace.py --validate consumes these as a ctest (and in the CI
// observability job). Not a gtest binary on purpose: it is also the
// documented "reading a distributed trace" quickstart command.
//
// --spawn switches to World::spawn_processes (one OS process per rank over
// the socket mesh) and leaves the flight-recorder postmortem artifact set
// behind instead: per-rank postmortem_rank<N>.json for every rank that
// unwound plus the supervisor's merged postmortem_run.json, consumed by
// tools/ltfb_postmortem.py --validate. Injected faults (kill:/delay: via
// LTFB_FAULT_SCHEDULE) are the expected subject of the postmortems, so the
// parent exits 0 as long as every child died inside the exit-code taxonomy.
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "comm/communicator.hpp"
#include "core/ltfb_comm.hpp"
#include "core/scheduler.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace {

using namespace ltfb;

gan::CycleGanConfig tiny_model() {
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

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path = "ltfb_smoke_trace.json";
  std::string timeseries_path = "ltfb_smoke_timeseries.jsonl";
  std::string metrics_path = "ltfb_smoke_metrics.json";
  int ranks = 4;
  int ranks_per_trainer = 2;
  std::size_t rounds = 3;
  bool elastic = false;
  bool spawn = false;
  std::optional<int> comm_timeout_ms;  // unset: the library default
  int trainers = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--trace") {
      trace_path = value();
    } else if (arg == "--timeseries") {
      timeseries_path = value();
    } else if (arg == "--metrics") {
      metrics_path = value();
    } else if (arg == "--ranks") {
      ranks = std::stoi(value());
    } else if (arg == "--ranks-per-trainer") {
      ranks_per_trainer = std::stoi(value());
    } else if (arg == "--rounds") {
      rounds = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg == "--elastic") {
      // Elastic mode: one trainer per rank under the ElasticScheduler
      // (DESIGN.md §14); churn comes from LTFB_FAULT_SCHEDULE's
      // join/leave/migrate verbs.
      elastic = true;
    } else if (arg == "--trainers") {
      trainers = std::stoi(value());
    } else if (arg == "--spawn") {
      spawn = true;
    } else if (arg == "--comm-timeout-ms") {
      comm_timeout_ms = std::stoi(value());
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--trace F] [--timeseries F] [--metrics F] [--ranks N]"
                   " [--ranks-per-trainer N] [--rounds N] [--elastic]"
                   " [--trainers N] [--spawn] [--comm-timeout-ms MS]\n";
      return 2;
    }
  }

  if (spawn) {
    // Multi-process mode: each child runs the distributed LTFB body; the
    // parent only supervises. Telemetry file exports happen per child (via
    // LTFB_TELEMETRY_OUT if set); the parent's registry never sees rank
    // events, so the trace/metrics writes below are skipped.
    const data::Dataset spawn_dataset = tiny_dataset(400, 61);
    const auto spawn_splits =
        data::split_dataset(spawn_dataset.size(), 0.7, 0.15, 62);
    core::DistributedLtfbConfig config;
    config.ranks_per_trainer = ranks_per_trainer;
    config.batch_size = 16;
    config.ltfb.steps_per_round = 4;
    config.ltfb.rounds = rounds;
    config.ltfb.pretrain_steps = 4;
    config.model = tiny_model();
    config.seed = 60;
    if (comm_timeout_ms) {
      config.comm_timeout = std::chrono::milliseconds(*comm_timeout_ms);
    }
    const auto statuses = comm::World::spawn_processes(
        ranks, [&](comm::Communicator& world) {
          const auto outcome = core::run_distributed_ltfb(
              world, spawn_dataset, spawn_splits, config);
          LTFB_CHECK_MSG(!outcome.aborted, "smoke run aborted on rank");
        });
    bool in_taxonomy = true;
    for (const auto& status : statuses) {
      std::cerr << "rank " << status.rank << ": exit code " << status.code
                << (status.pre_rendezvous ? " (pre-rendezvous)" : "") << "\n";
      const bool known = status.code == comm::World::kExitClean ||
                         status.code == comm::World::kExitError ||
                         status.code == comm::World::kExitFaultInjected ||
                         status.code == comm::World::kExitRankFailed ||
                         status.code == comm::World::kExitTimeout;
      in_taxonomy = in_taxonomy && known;
    }
    return in_taxonomy ? 0 : 1;
  }

  auto& registry = telemetry::Registry::instance();
  registry.set_enabled(true);
  registry.reset_metrics();
  registry.clear_trace();

  // The aggregator appends; start each smoke from an empty timeseries.
  std::error_code ec;
  std::filesystem::remove(timeseries_path, ec);

  const data::Dataset dataset = tiny_dataset(400, 61);
  const auto splits = data::split_dataset(dataset.size(), 0.7, 0.15, 62);

  if (elastic) {
    core::ElasticLtfbConfig config;
    config.batch_size = 16;
    config.ltfb.steps_per_round = 4;
    config.ltfb.rounds = rounds;
    config.ltfb.pretrain_steps = 4;
    config.model = tiny_model();
    config.seed = 60;
    config.initial_trainers = trainers > 0 ? trainers : ranks;
    config.max_trainers = ranks;
    config.metrics_timeseries_path = timeseries_path;
    comm::World::run(ranks, [&](comm::Communicator& world) {
      const auto outcome =
          core::run_elastic_ltfb(world, dataset, splits, config);
      LTFB_CHECK_MSG(!outcome.aborted, "elastic smoke run aborted on rank");
    });
  } else {
    core::DistributedLtfbConfig config;
    config.ranks_per_trainer = ranks_per_trainer;
    config.batch_size = 16;
    config.ltfb.steps_per_round = 4;
    config.ltfb.rounds = rounds;
    config.ltfb.pretrain_steps = 4;
    config.model = tiny_model();
    config.seed = 60;
    config.metrics_timeseries_path = timeseries_path;
    comm::World::run(ranks, [&](comm::Communicator& world) {
      const auto outcome =
          core::run_distributed_ltfb(world, dataset, splits, config);
      LTFB_CHECK_MSG(!outcome.aborted, "smoke run aborted on rank");
    });
  }

  if (!registry.write_trace_json(trace_path)) {
    std::cerr << "failed to write trace to " << trace_path << "\n";
    return 1;
  }
  if (!registry.write_metrics_json(metrics_path)) {
    std::cerr << "failed to write metrics to " << metrics_path << "\n";
    return 1;
  }
  std::cerr << "wrote " << trace_path << ", " << timeseries_path << ", "
            << metrics_path << "\n";
  return 0;
}
