// End-to-end benchmark of the LTFB training path.
//
//   ltfb_perfbench --workload <dp-skinny|tournament-wide|datastore-epochs>
//                  --seed N --seconds S --trace 0|1 --scratch DIR
//
// Untraced runs (--trace 0) time the program's own entry points
// (core::run_distributed_ltfb, datastore::DataStore) in repetitions of
// set-up + timed call until S seconds are used, and report medians. Traced
// runs (--trace 1) replay the same work through the public calls of each
// module with the benchmark's own spans around them (no probe is added to
// the program), alternating with untraced repetitions so the tracing cost
// is measured in the same process.
//
// The last line on stdout is one JSON report; perfbench/run.py turns it
// into the result line. Everything else goes to stderr.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/serializer.hpp"
#include "core/gan_trainer.hpp"
#include "core/ltfb_comm.hpp"
#include "data/bundle.hpp"
#include "data/data_reader.hpp"
#include "data/dataset.hpp"
#include "datastore/bundle_catalog.hpp"
#include "datastore/data_store.hpp"
#include "gan/cyclegan.hpp"
#include "jag/jag_model.hpp"
#include "nn/loss.hpp"
#include "nn/parallel.hpp"
#include "telemetry/telemetry.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "util/compute_pool.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace {

using namespace ltfb;

constexpr int kRanks = 4;

// CLOCK_MONOTONIC: comparable across the processes a spawned world forks.
double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- statistics ------------------------------------------------------------

/// Linearly interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v[lo];
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// The end-to-end round tail: each repetition's p90 round (epoch) wall, and
// the median of those over the run's repetitions. A pooled extreme
// percentile followed whichever seconds-long burst of host contention hit
// the run (run-to-run spread up to 50%); per repetition, it follows the
// program's round-to-round jitter. Summed over a run, about ten or more
// samples lie beyond the per-repetition p90s.
constexpr double kTailQuantile = 0.9;

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// The highest order statistic with at least ten samples above it, and its
/// percentile. With ten or fewer samples it is the maximum (percentile 100).
std::pair<double, double> tail(std::vector<double> v) {
  if (v.empty()) return {0.0, 100.0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) return {v.back(), 100.0};
  const std::size_t idx = n - 11;
  return {v[idx], 100.0 * static_cast<double>(idx + 1) /
                      static_cast<double>(n)};
}

// ---- rank records ------------------------------------------------------------

/// What one rank hands back to the benchmark process: named lists of numbers. Spawned
/// ranks serialize it to a file, in-process ranks return it directly.
using Record = std::map<std::string, std::vector<double>>;

std::string serialize(const Record& rec) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& [key, values] : rec) {
    out << key;
    for (const double v : values) out << ' ' << v;
    out << '\n';
  }
  return out.str();
}

Record parse_record(const std::string& text) {
  Record rec;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) continue;
    std::vector<double>& values = rec[key];
    double v = 0.0;
    while (fields >> v) values.push_back(v);
  }
  return rec;
}

double get(const Record& rec, const std::string& key, std::size_t i = 0) {
  const auto it = rec.find(key);
  if (it == rec.end() || it->second.size() <= i) return 0.0;
  return it->second[i];
}

const std::vector<double>& list(const Record& rec, const std::string& key) {
  static const std::vector<double> kEmpty;
  const auto it = rec.find(key);
  return it == rec.end() ? kEmpty : it->second;
}

struct RankRun {
  Record record;
  bool clean = false;
  std::string error;
};

/// Runs `fn` on every rank of a kRanks world, either as threads of this
/// process (in-proc transport) or as one OS process per rank (socket
/// transport), and collects each rank's record and exit status.
std::vector<RankRun> run_world(bool spawn, const std::filesystem::path& scratch,
                               const std::function<Record(comm::Communicator&)>& fn) {
  std::vector<RankRun> runs(kRanks);
  if (!spawn) {
    comm::World world(kRanks, comm::BackendKind::InProc);
    const auto errors = world.run_ranks([&](comm::Communicator& c) {
      runs[static_cast<std::size_t>(c.rank())].record = fn(c);
    });
    for (int r = 0; r < kRanks; ++r) {
      RankRun& run = runs[static_cast<std::size_t>(r)];
      run.clean = errors[static_cast<std::size_t>(r)] == nullptr;
      if (!run.clean) {
        try {
          std::rethrow_exception(errors[static_cast<std::size_t>(r)]);
        } catch (const std::exception& e) {
          run.error = e.what();
        }
      }
    }
    return runs;
  }
  std::filesystem::create_directories(scratch);
  auto path_of = [&](int r) {
    return scratch / ("rank" + std::to_string(r) + ".rec");
  };
  for (int r = 0; r < kRanks; ++r) std::filesystem::remove(path_of(r));
  const auto statuses =
      comm::World::spawn_processes(kRanks, [&](comm::Communicator& c) {
        const std::string text = serialize(fn(c));
        std::ofstream out(path_of(c.rank()));
        out << text;
        out.close();
        LTFB_CHECK_MSG(out.good(), "cannot write rank record");
      });
  for (const auto& status : statuses) {
    RankRun& run = runs[static_cast<std::size_t>(status.rank)];
    std::ifstream in(path_of(status.rank));
    std::stringstream text;
    text << in.rdbuf();
    run.record = parse_record(text.str());
    run.clean = status.clean() && !run.record.empty();
    if (!run.clean) {
      run.error = "rank " + std::to_string(status.rank) + " exit code " +
                  std::to_string(status.code);
    }
    std::filesystem::remove(path_of(status.rank));
  }
  return runs;
}

// ---- tracer ------------------------------------------------------------------

/// Per-rank span recorder around the benchmark's calls into the program.
/// A span's self time is its duration minus that of its direct children;
/// the name before the first '.' is the layer it belongs to. Spans without
/// a '.' (round, epoch) are roots whose self time is unattributed.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  void begin(const char* name) {
    if (on_) stack_.push_back({name, now_s(), 0.0});
  }
  void end() {
    if (!on_) return;
    const Frame frame = stack_.back();
    stack_.pop_back();
    const double dur = now_s() - frame.start;
    Stat& stat = stats_[frame.name];
    stat.self += dur - frame.child;
    stat.durations.push_back(dur);
    if (!stack_.empty()) stack_.back().child += dur;
  }

  void write(Record& rec) const {
    for (const auto& [name, stat] : stats_) {
      rec["self." + name] = {stat.self};
      rec["dur." + name] = stat.durations;
    }
  }

 private:
  struct Frame {
    const char* name;
    double start;
    double child;
  };
  struct Stat {
    double self = 0.0;
    std::vector<double> durations;
  };
  bool on_;
  std::vector<Frame> stack_;
  std::map<std::string, Stat> stats_;
};

class Span {
 public:
  Span(Tracer& tracer, const char* name) : tracer_(tracer) {
    tracer_.begin(name);
  }
  ~Span() { tracer_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

/// Telemetry counters of the calling rank (registry switched on in traced
/// runs only): comm traffic and GEMM calls/time.
struct RankCounters {
  double comm_bytes = 0, comm_calls = 0, recv_wait_s = 0;
  double gemm_calls = 0, gemm_s = 0;
};

RankCounters read_counters(int rank) {
  RankCounters c;
  const auto snap = telemetry::Registry::instance().snapshot_rank(rank);
  for (const auto& counter : snap.counters) {
    const auto v = static_cast<double>(counter.value);
    if (counter.name == "comm/send_bytes" ||
        counter.name == "comm/collective_bytes") {
      c.comm_bytes += v;
    } else if (counter.name == "comm/send_messages" ||
               counter.name == "comm/collective_messages") {
      c.comm_calls += v;
    }
  }
  for (const auto& timer : snap.timers) {
    if (timer.name == "comm/recv_wait") c.recv_wait_s = timer.total_s;
    if (timer.name == "tensor/gemm") {
      c.gemm_calls = static_cast<double>(timer.count);
      c.gemm_s = timer.total_s;
    }
  }
  return c;
}

// ---- the report ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;
  double pct = -1.0;  // percentile of a tail metric
};

struct Report {
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> layer_self_s;
  double traced_wall_s = 0.0;
  double unattributed_s = 0.0;
  double gemm_s = 0.0;  // GEMM time inside the nn and gan spans
  std::vector<std::string> errors;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t reps = 0;
  std::string backend;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t n, double pct = -1.0) {
    metrics[name] = Metric{value, unit, n, pct};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

std::string json_str(const std::string& s) {
  return "\"" + telemetry::json_escape(s) + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- workloads -------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path scratch = ".bench_build/perfbench-scratch";
};

/// LTFB workloads: the population layout, model and data sizes.
struct LtfbSpec {
  int ranks_per_trainer;
  bool spawn;
  jag::JagConfig jag;
  std::size_t samples;
  double train_fraction;
  double tournament_fraction;
  std::size_t batch;
  std::size_t steps_per_round;
  std::size_t rounds;         // per untraced repetition
  std::size_t traced_rounds;  // per traced repetition
};

const LtfbSpec kDpSkinny{
    .ranks_per_trainer = 2,
    .spawn = false,
    .jag = {.image_size = 8, .num_views = 3, .num_channels = 1},
    .samples = 4096,
    .train_fraction = 0.7,
    .tournament_fraction = 0.15,
    .batch = 128,
    .steps_per_round = 50,
    .rounds = 6,
    .traced_rounds = 4};

// Two steps per round and large tournament sets, so the tournament takes
// at least half of a round.
const LtfbSpec kTournamentWide{
    .ranks_per_trainer = 1,
    .spawn = true,
    .jag = {.image_size = 16, .num_views = 3, .num_channels = 4},
    .samples = 3072,
    .train_fraction = 0.25,
    .tournament_fraction = 0.65,
    .batch = 128,
    .steps_per_round = 2,
    .rounds = 10,
    .traced_rounds = 10};

struct LtfbInputs {
  data::Dataset dataset;
  data::SplitIndices splits;
  core::DistributedLtfbConfig config;
};

LtfbInputs make_ltfb_inputs(const LtfbSpec& spec, std::uint64_t seed,
                            std::size_t rounds) {
  LtfbInputs in;
  const jag::JagModel jag(spec.jag);
  in.dataset = data::generate_jag_dataset(jag, spec.samples,
                                          util::derive_seed(seed, "dataset"));
  data::normalize_dataset(in.dataset, data::fit_normalizers(in.dataset));
  in.splits = data::split_dataset(in.dataset.size(), spec.train_fraction,
                                  spec.tournament_fraction,
                                  util::derive_seed(seed, "split"));
  in.config.ranks_per_trainer = spec.ranks_per_trainer;
  in.config.batch_size = spec.batch;
  in.config.ltfb.steps_per_round = spec.steps_per_round;
  in.config.ltfb.rounds = rounds;
  in.config.ltfb.pretrain_steps = 0;
  in.config.model.image_width = spec.jag.image_features();
  in.config.seed = util::derive_seed(seed, "population");
  return in;
}

/// Rows [begin, end) of a batch: a rank's shard of its trainer's global
/// mini-batch, as core::run_distributed_ltfb takes it.
data::Batch slice_batch(const data::Batch& batch, std::size_t begin,
                        std::size_t end) {
  const std::size_t rows = end - begin;
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
  shard.ids.assign(batch.ids.begin() + static_cast<std::ptrdiff_t>(begin),
                   batch.ids.begin() + static_cast<std::ptrdiff_t>(end));
  return shard;
}

/// One component-model pass made by a training step.
struct Pass {
  nn::Model* model;
  bool backward;
};

/// CycleGan::train_step spelled out through the component models' public
/// forward/backward/apply_optimizer_step calls, so the traced run can time
/// each. verify_step_replay() proves it bit-identical to train_step.
void replay_train_step(gan::CycleGan& gan, const data::Batch& batch,
                       nn::GradientBucketer* bucketer,
                       std::chrono::milliseconds deadline, Tracer& tr,
                       std::vector<Pass>* passes = nullptr) {
  nn::Model& enc = gan.encoder();
  nn::Model& dec = gan.decoder();
  nn::Model& fwd = gan.forward_model();
  nn::Model& inv = gan.inverse_model();
  nn::Model& disc = gan.discriminator();
  auto out = [](nn::Model& m) { return m.layer_count() - 1; };
  const nn::Model::BackwardHook hook = [&](nn::Weights& w) {
    const Span s(tr, "nn.allreduce_launch");
    bucketer->on_layer_backward(w);
  };
  auto forward = [&](nn::Model& m, const tensor::Tensor& x, bool training) {
    if (passes) passes->push_back({&m, false});
    const Span s(tr, "nn.forward");
    m.forward({&x}, training);
  };
  auto backward = [&](nn::Model& m, bool final_pass) {
    if (passes) passes->push_back({&m, true});
    const Span s(tr, "nn.backward");
    if (final_pass && bucketer) {
      m.backward(hook);
    } else {
      m.backward();
    }
  };
  auto sync = [&](const std::vector<nn::Model*>& models) {
    if (!bucketer) return;
    const Span s(tr, "nn.allreduce_wait");
    bucketer->finish(models, deadline);
  };
  auto step = [&](nn::Model& m) {
    const Span s(tr, "nn.optimizer");
    m.apply_optimizer_step();
  };
  const gan::CycleGanConfig& cfg = gan.config();

  // Autoencoder phase.
  enc.zero_gradients();
  dec.zero_gradients();
  forward(enc, batch.outputs, true);
  forward(dec, enc.output(out(enc)), true);
  tensor::Tensor grad;
  nn::mae_loss(dec.output(out(dec)), batch.outputs, &grad);
  dec.add_output_gradient(out(dec), grad);
  backward(dec, true);
  enc.add_output_gradient(out(enc), dec.input_gradient(0));
  backward(enc, true);
  sync({&enc, &dec});
  step(enc);
  step(dec);

  // Discriminator phase.
  forward(enc, batch.outputs, false);
  const tensor::Tensor real_latent = enc.output(out(enc));
  forward(fwd, batch.inputs, false);
  const tensor::Tensor fake_latent = fwd.output(out(fwd));
  disc.zero_gradients();
  tensor::Tensor d_grad;
  forward(disc, real_latent, true);
  nn::bce_with_logits(disc.output(out(disc)), 1.0f, &d_grad);
  disc.add_output_gradient(out(disc), d_grad);
  backward(disc, false);
  forward(disc, fake_latent, true);
  nn::bce_with_logits(disc.output(out(disc)), 0.0f, &d_grad);
  disc.add_output_gradient(out(disc), d_grad);
  backward(disc, true);
  sync({&disc});
  step(disc);

  // Generator phase.
  fwd.zero_gradients();
  inv.zero_gradients();
  dec.zero_gradients();
  disc.zero_gradients();
  forward(fwd, batch.inputs, true);
  const tensor::Tensor& z = fwd.output(out(fwd));
  forward(dec, z, true);
  tensor::Tensor fid_grad;
  nn::mae_loss(dec.output(out(dec)), batch.outputs, &fid_grad);
  tensor::scale(cfg.lambda_fidelity, fid_grad.data());
  dec.add_output_gradient(out(dec), fid_grad);
  backward(dec, false);
  fwd.add_output_gradient(out(fwd), dec.input_gradient(0));
  forward(disc, z, true);
  tensor::Tensor adv_grad;
  nn::bce_with_logits(disc.output(out(disc)), 1.0f, &adv_grad);
  tensor::scale(cfg.lambda_adversarial, adv_grad.data());
  disc.add_output_gradient(out(disc), adv_grad);
  backward(disc, false);
  fwd.add_output_gradient(out(fwd), disc.input_gradient(0));
  if (cfg.lambda_latent > 0.0f) {
    tensor::Tensor lat_grad;
    nn::mae_loss(z, real_latent, &lat_grad);
    tensor::scale(cfg.lambda_latent, lat_grad.data());
    fwd.add_output_gradient(out(fwd), lat_grad);
  }
  forward(inv, z, true);
  tensor::Tensor cyc_grad;
  nn::mae_loss(inv.output(out(inv)), batch.inputs, &cyc_grad);
  tensor::scale(cfg.lambda_cycle, cyc_grad.data());
  inv.add_output_gradient(out(inv), cyc_grad);
  backward(inv, true);
  fwd.add_output_gradient(out(fwd), inv.input_gradient(0));
  backward(fwd, true);
  sync({&fwd, &inv});
  step(fwd);
  step(inv);
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Two steps of CycleGan::train_step against two of replay_train_step from
/// the same seed and batches; true when every weight and optimizer moment
/// matches bit for bit. Also returns one step's component passes.
bool verify_step_replay(const LtfbInputs& in, std::size_t shard,
                        std::vector<Pass>& passes, gan::CycleGan& replayed) {
  gan::CycleGan reference(in.config.model, 7);
  data::MiniBatchReader reader(in.dataset, in.splits.train, shard, 11);
  Tracer off(false);
  for (int s = 0; s < 2; ++s) {
    const data::Batch batch = reader.next();
    reference.train_step(batch);
    replay_train_step(replayed, batch, nullptr, std::chrono::milliseconds(0),
                      off, s == 0 ? &passes : nullptr);
  }
  return same_bits(reference.generator_weights(),
                   replayed.generator_weights()) &&
         same_bits(reference.discriminator_weights(),
                   replayed.discriminator_weights()) &&
         same_bits(reference.optimizer_state(), replayed.optimizer_state());
}

/// One untraced repetition: core::run_distributed_ltfb on every rank.
Record ltfb_rank(comm::Communicator& world, const LtfbInputs& in) {
  Record rec;
  const double t_enter = now_s();
  const core::DistributedLtfbOutcome o =
      core::run_distributed_ltfb(world, in.dataset, in.splits, in.config);
  const double t_exit = now_s();
  rec["t"] = {t_enter, t_exit};
  rec["outcome"] = {o.aborted ? 1.0 : 0.0, o.final_validation_loss,
                    static_cast<double>(o.tournaments_won),
                    static_cast<double>(o.adoptions),
                    static_cast<double>(o.partner_failures)};
  rec["history_len"] = {static_cast<double>(o.history.size())};
  std::vector<double>& walls = rec["round_wall"];
  std::vector<double>& degraded = rec["degraded"];
  for (const core::RoundRecord& r : o.history) {
    walls.push_back(r.wall_s);
    double d = 0.0;
    for (const auto& stat : r.stats) d += stat.partner_failed ? 1.0 : 0.0;
    degraded.push_back(d);
  }
  return rec;
}

/// One traced repetition: the rounds of core::run_distributed_ltfb replayed
/// through the same public calls, with the gradient bucketer wired as the
/// program wires it, and a span around every call.
Record ltfb_replay_rank(comm::Communicator& world, const LtfbInputs& in) {
  const core::DistributedLtfbConfig& cfg = in.config;
  telemetry::bind_rank(world.rank());
  const int rpt = cfg.ranks_per_trainer;
  const int num_trainers = world.size() / rpt;
  const int trainer_id = world.rank() / rpt;
  comm::Communicator trainer_comm = world.split(trainer_id, world.rank());
  const bool leader = trainer_comm.rank() == 0;
  comm::Communicator leader_comm = world.split(leader ? 0 : 1, trainer_id);
  const auto train_view = data::partition_indices(
      in.splits.train, static_cast<std::size_t>(num_trainers),
      static_cast<std::size_t>(trainer_id));
  const auto tournament_view = data::partition_indices(
      in.splits.tournament, static_cast<std::size_t>(num_trainers),
      static_cast<std::size_t>(trainer_id));
  gan::CycleGan model(cfg.model,
                      util::derive_seed(cfg.seed, "model",
                                        static_cast<std::uint64_t>(trainer_id)));
  data::MiniBatchReader reader(
      in.dataset, train_view, cfg.batch_size,
      util::derive_seed(cfg.seed, "reader",
                        static_cast<std::uint64_t>(trainer_id)),
      true);
  const std::size_t shard = cfg.batch_size / static_cast<std::size_t>(rpt);
  const std::size_t begin = static_cast<std::size_t>(trainer_comm.rank()) * shard;
  const std::chrono::milliseconds deadline = cfg.comm_timeout;
  const std::chrono::milliseconds shrink_deadline = 4 * cfg.comm_timeout;

  Tracer tr(true);
  std::optional<nn::GradientBucketer> bucketer;
  if (rpt > 1) {
    bucketer.emplace(trainer_comm);
    model.set_backward_hook([&](nn::Weights& w) {
      const Span s(tr, "nn.allreduce_launch");
      bucketer->on_layer_backward(w);
    });
    model.set_gradient_sync([&](const std::vector<nn::Model*>& ms) {
      const Span s(tr, "nn.allreduce_wait");
      bucketer->finish(ms, deadline);
    });
  }
  auto score = [&]() {
    const Span s(tr, "gan.evaluate");
    return core::evaluate_gan(model, in.dataset, tournament_view,
                              cfg.batch_size)
        .total();
  };

  Record rec;
  std::vector<double>& train_phase = rec["train_phase_s"];
  double gemm_calls = 0.0, gemm_s = 0.0;
  double adoptions = 0.0, tournaments = 0.0, payload_bytes = 0.0;
  std::size_t replayed_steps = 0;
  const RankCounters c0 = read_counters(world.rank());
  const double t_enter = now_s();
  for (std::size_t round = 0; round < cfg.ltfb.rounds; ++round) {
    const Span round_span(tr, "round");
    const RankCounters before = read_counters(world.rank());
    const double t0 = now_s();
    {
      const Span phase(tr, "core.train_phase");
      for (std::size_t s = 0; s < cfg.ltfb.steps_per_round; ++s) {
        data::Batch mine;
        {
          const Span sp(tr, "data.next_batch");
          mine = slice_batch(reader.next(), begin, begin + shard);
        }
        // First half through CycleGan::train_step (the gan layer's own
        // timing), second half through its component calls (nn split).
        if (2 * s < cfg.ltfb.steps_per_round) {
          const Span sp(tr, "gan.train_step");
          model.train_step(mine);
        } else {
          const Span sp(tr, "gan.train_step_replay");
          replay_train_step(model, mine, bucketer ? &*bucketer : nullptr,
                            deadline, tr);
          ++replayed_steps;
        }
        const Span sp(tr, "data.free_batch");
        mine = data::Batch{};
      }
    }
    train_phase.push_back(now_s() - t0);
    const RankCounters after = read_counters(world.rank());
    gemm_calls += after.gemm_calls - before.gemm_calls;
    gemm_s += after.gemm_s - before.gemm_s;

    if (leader) {
      const Span sp(tr, "core.tournament");
      std::vector<std::pair<int, int>> live;
      for (int r = 0; r < leader_comm.size(); ++r) {
        live.emplace_back(leader_comm.world_rank_of(r) / rpt, r);
      }
      std::sort(live.begin(), live.end());
      std::size_t my_pos = live.size();
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].first == trainer_id) my_pos = i;
      }
      std::size_t partner = live.size();
      for (const auto& [a, b] :
           core::tournament_pairs(live.size(), cfg.ltfb.pairing_seed, round)) {
        if (static_cast<std::size_t>(a) == my_pos) partner = static_cast<std::size_t>(b);
        if (static_cast<std::size_t>(b) == my_pos) partner = static_cast<std::size_t>(a);
      }
      if (partner < live.size()) {
        const std::vector<float> own = model.generator_weights();
        const comm::Buffer payload = comm::Serializer::pack_floats(own);
        payload_bytes += static_cast<double>(payload.size());
        comm::Buffer received;
        {
          const Span x(tr, "comm.sendrecv");
          received = leader_comm.sendrecv(live[partner].second,
                                          static_cast<int>(round), payload,
                                          deadline);
        }
        const std::vector<float> candidate =
            comm::Deserializer::unpack_floats(received);
        const double own_score = score();
        model.load_generator_weights(candidate);
        const double partner_score = score();
        tournaments += 1.0;
        if (partner_score < own_score) {
          adoptions += 1.0;
        } else {
          model.load_generator_weights(own);
        }
      }
      const Span x(tr, "comm.shrink");
      leader_comm = leader_comm.shrink(shrink_deadline);
    }
    if (rpt > 1) {
      const Span sp(tr, "core.broadcast_winner");
      comm::Buffer payload =
          leader ? comm::Serializer::pack_floats(model.generator_weights())
                 : comm::Buffer{};
      {
        const Span x(tr, "comm.broadcast");
        trainer_comm.broadcast(0, payload);
      }
      if (!leader) {
        model.load_generator_weights(comm::Deserializer::unpack_floats(payload));
      }
    }
  }
  // The final evaluation run_distributed_ltfb ends with, untraced, so the
  // replay's samples per second compare with the timed run's.
  float results[2] = {0.0f, 0.0f};
  if (leader) {
    results[0] = static_cast<float>(
        core::evaluate_gan(model, in.dataset, tournament_view, cfg.batch_size)
            .total());
    results[1] = static_cast<float>(
        core::evaluate_gan(model, in.dataset, in.splits.validation,
                           cfg.batch_size)
            .total());
  }
  if (rpt > 1) trainer_comm.broadcast(0, std::span<float>(results, 2));
  const double t_exit = now_s();
  const RankCounters c1 = read_counters(world.rank());
  rec["t"] = {t_enter, t_exit};
  rec["leader"] = {leader ? 1.0 : 0.0};
  rec["gemm"] = {gemm_calls, gemm_s};
  rec["tournament"] = {tournaments, adoptions, payload_bytes};
  rec["steps"] = {static_cast<double>(cfg.ltfb.rounds * cfg.ltfb.steps_per_round),
                  static_cast<double>(replayed_steps)};
  rec["comm"] = {c1.comm_bytes - c0.comm_bytes, c1.comm_calls - c0.comm_calls,
                 c1.recv_wait_s - c0.recv_wait_s};
  if (bucketer) {
    rec["bucketer"] = {bucketer->overlap_fraction(),
                       static_cast<double>(bucketer->buckets_completed()),
                       static_cast<double>(bucketer->wire_bytes_sent())};
  }
  tr.write(rec);
  return rec;
}

/// GEMM calls of one training step on the model's own dense shapes:
/// forward (X W), weight gradient (X^T dZ) and input gradient (dZ W^T).
struct GemmCall {
  tensor::Op op_a, op_b;
  tensor::Tensor a, b, c;
  float beta;
};

std::vector<GemmCall> step_gemms(const std::vector<Pass>& passes,
                                 std::size_t rows, double& flops) {
  std::vector<GemmCall> calls;
  flops = 0.0;
  util::Xoshiro256 rng(3);
  auto filled = [&](std::size_t r, std::size_t c) {
    tensor::Tensor t(r, c);
    for (float& v : t.data()) {
      v = static_cast<float>(rng() >> 40) / static_cast<float>(1 << 24) - 0.5f;
    }
    return t;
  };
  for (const Pass& pass : passes) {
    for (nn::Weights* w : pass.model->weights()) {
      if (w->shape().size() != 2) continue;  // biases ride the epilogue
      const std::size_t in = w->shape()[0], out = w->shape()[1];
      const double f = tensor::gemm_flops(rows, out, in);
      if (!pass.backward) {
        calls.push_back({tensor::Op::None, tensor::Op::None, filled(rows, in),
                         filled(in, out), tensor::Tensor(rows, out), 0.0f});
        flops += f;
      } else {
        calls.push_back({tensor::Op::Transpose, tensor::Op::None,
                         filled(rows, in), filled(rows, out),
                         tensor::Tensor(in, out), 1.0f});
        calls.push_back({tensor::Op::None, tensor::Op::Transpose,
                         filled(rows, out), filled(in, out),
                         tensor::Tensor(rows, in), 0.0f});
        flops += 2.0 * f;
      }
    }
  }
  return calls;
}

/// Median real time of one step's GEMM list over several trials.
double time_gemms(std::vector<GemmCall>& calls) {
  std::vector<double> trials;
  for (int trial = 0; trial < 7; ++trial) {
    const double t0 = now_s();
    std::size_t iters = 0;
    do {
      for (GemmCall& g : calls) {
        tensor::gemm(g.op_a, g.op_b, 1.0f, g.a, g.b, g.beta, g.c);
      }
      ++iters;
    } while (now_s() - t0 < 0.03);
    trials.push_back((now_s() - t0) / static_cast<double>(iters));
  }
  return median(trials);
}

void add_layer_times(Report& rep, const Record& rec) {
  for (const auto& [key, values] : rec) {
    if (key.rfind("self.", 0) != 0) continue;
    const std::string name = key.substr(5);
    const std::size_t dot = name.find('.');
    if (dot == std::string::npos) {
      rep.unattributed_s += values[0];
    } else {
      rep.layer_self_s[name.substr(0, dot)] += values[0];
    }
  }
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// Durations of span `name` on every rank of every traced repetition.
std::vector<double> durations(const std::vector<std::vector<RankRun>>& traced,
                              const std::string& name) {
  std::vector<double> all;
  for (const auto& runs : traced) {
    for (const RankRun& run : runs) {
      const auto& d = list(run.record, "dur." + name);
      all.insert(all.end(), d.begin(), d.end());
    }
  }
  return all;
}

void run_ltfb(const Options& opt, const LtfbSpec& spec, Report& rep) {
  const int trainers = kRanks / spec.ranks_per_trainer;
  rep.backend = spec.spawn ? "socket (one process per rank)" : "inproc";
  std::vector<double> setup, rate, walls, tails, first_round, losses,
      traced_rate;
  std::vector<std::vector<RankRun>> traced;
  const double start = now_s();
  double last_rep = 0.0;
  // Traced runs alternate an untraced repetition (the overhead baseline)
  // with a traced replay.
  while (rep.reps < 2 ||
         (now_s() - start + last_rep <= opt.seconds && rep.reps < 200)) {
    const double t_setup = now_s();
    const bool replay = opt.trace && rep.reps % 2 == 1;
    const LtfbInputs in = make_ltfb_inputs(
        spec, opt.seed, replay ? spec.traced_rounds : spec.rounds);
    if (replay) {
      telemetry::Registry::instance().reset_metrics();
      telemetry::Registry::instance().set_enabled(true);
    }
    const auto runs = run_world(
        spec.spawn, opt.scratch, [&](comm::Communicator& c) {
          return replay ? ltfb_replay_rank(c, in) : ltfb_rank(c, in);
        });
    telemetry::Registry::instance().set_enabled(false);
    telemetry::Registry::instance().clear_trace();
    ++rep.reps;
    last_rep = now_s() - t_setup;

    double t_first = 1e300, t_last = 0.0;
    for (const RankRun& run : runs) {
      ++rep.attempted;  // the rank's process or thread
      if (!run.clean) {
        ++rep.failed;
        rep.check(false, "rank failed: " + run.error);
        continue;
      }
      t_first = std::min(t_first, get(run.record, "t", 0));
      t_last = std::max(t_last, get(run.record, "t", 1));
    }
    if (rep.failed > 0) break;
    setup.push_back(t_first - t_setup);
    const double rounds = static_cast<double>(in.config.ltfb.rounds);
    const double samples = rounds * static_cast<double>(trainers) *
                           static_cast<double>(spec.steps_per_round) *
                           static_cast<double>(spec.batch);
    if (replay) {
      traced_rate.push_back(samples / (t_last - t_first));
      traced.push_back(runs);
      continue;
    }
    rate.push_back(samples / (t_last - t_first));

    // Output checks: agreement inside each trainer, no aborts, complete
    // histories, finite loss, and the same loss as every other repetition.
    double best = 1e300, first = 0.0;
    std::vector<double> rep_walls;
    for (int t = 0; t < trainers; ++t) {
      const Record& lead = runs[static_cast<std::size_t>(t * spec.ranks_per_trainer)].record;
      rep.attempted += static_cast<std::size_t>(rounds);
      const bool aborted = get(lead, "outcome", 0) != 0.0;
      rep.check(!aborted, "trainer " + std::to_string(t) + " aborted");
      if (aborted) {
        rep.failed += static_cast<std::size_t>(rounds) -
                      static_cast<std::size_t>(get(lead, "history_len"));
      }
      for (const double d : list(lead, "degraded")) {
        rep.failed += static_cast<std::size_t>(d);
      }
      rep.check(get(lead, "history_len") == rounds,
                "trainer " + std::to_string(t) + " history length " +
                    std::to_string(get(lead, "history_len")));
      for (int r = 1; r < spec.ranks_per_trainer; ++r) {
        const Record& other =
            runs[static_cast<std::size_t>(t * spec.ranks_per_trainer + r)].record;
        rep.check(list(other, "outcome") == list(lead, "outcome"),
                  "ranks of trainer " + std::to_string(t) + " disagree");
      }
      const auto& w = list(lead, "round_wall");
      rep_walls.insert(rep_walls.end(), w.begin(), w.end());
      if (!w.empty()) first = std::max(first, w.front());
      best = std::min(best, get(lead, "outcome", 1));
    }
    first_round.push_back(first);
    walls.insert(walls.end(), rep_walls.begin(), rep_walls.end());
    tails.push_back(quantile(rep_walls, kTailQuantile));
    rep.check(std::isfinite(best), "final validation loss is not finite");
    if (!losses.empty() && best != losses.front()) {
      rep.check(false, "final validation loss differs between repetitions");
    }
    losses.push_back(best);
  }
  if (!rep.errors.empty()) return;

  rep.set("setup_s", median(setup), "s", setup.size());
  rep.set("samples_per_s", median(rate), "samples/s", rate.size());
  rep.set("train_samples_per_s", median(rate), "samples/s", rate.size());
  rep.set("round_wall_p50_s", median(walls), "s", walls.size());
  rep.set("round_wall_tail_s", median(tails), "s", walls.size(),
          100.0 * kTailQuantile);
  rep.set("first_round_s", median(first_round), "s", first_round.size());
  rep.set("final_val_loss", losses.empty() ? 0.0 : losses.front(), "loss",
          losses.size());

  if (!opt.trace) return;

  // ---- traced run: per-layer metrics from the replays ----------------------
  rep.set("trace_overhead_frac", 1.0 - median(traced_rate) / median(rate),
          "frac", traced_rate.size());
  const std::size_t shard = spec.batch / static_cast<std::size_t>(spec.ranks_per_trainer);
  const LtfbInputs in = make_ltfb_inputs(spec, opt.seed, 1);
  std::vector<Pass> passes;
  gan::CycleGan replayed(in.config.model, 7);
  rep.check(verify_step_replay(in, shard, passes, replayed),
            "replayed training step diverged from CycleGan::train_step");
  double flops = 0.0;
  std::vector<GemmCall> gemms = step_gemms(passes, shard, flops);
  const double t_pool = time_gemms(gemms);
  const std::size_t pool = util::ComputePool::instance().size();
  util::ComputePool::instance().resize(1);
  const double t_serial = time_gemms(gemms);
  util::ComputePool::instance().resize(pool);

  double steps = 0, replayed_steps = 0, rounds = 0;
  double gemm_calls = 0, gemm_s = 0, tournaments = 0, adoptions = 0;
  double payload = 0, comm_bytes = 0, comm_calls = 0, recv_wait = 0;
  double overlap = 0, buckets = 0, wire = 0, gap_sum = 0;
  std::size_t gap_n = 0, rank_rounds = 0;
  for (const auto& runs : traced) {
    for (const RankRun& run : runs) {
      const Record& r = run.record;
      add_layer_times(rep, r);
      rep.traced_wall_s += sum(list(r, "dur.round"));
      steps += get(r, "steps", 0);
      replayed_steps += get(r, "steps", 1);
      rank_rounds += list(r, "train_phase_s").size();
      gemm_calls += get(r, "gemm", 0);
      gemm_s += get(r, "gemm", 1);
      comm_bytes += get(r, "comm", 0);
      comm_calls += get(r, "comm", 1);
      recv_wait += get(r, "comm", 2);
      overlap += get(r, "bucketer", 0);
      buckets += get(r, "bucketer", 1);
      wire += get(r, "bucketer", 2);
      if (get(r, "leader") != 0.0) {
        tournaments += get(r, "tournament", 0);
        adoptions += get(r, "tournament", 1);
        payload += get(r, "tournament", 2);
        rounds += static_cast<double>(list(r, "train_phase_s").size());
      }
    }
    // Straggler spread: per round, slowest minus fastest train phase over
    // every rank of the world (what a leader waits for before exchanging).
    const std::size_t n = list(runs[0].record, "train_phase_s").size();
    for (std::size_t i = 0; i < n; ++i) {
      double lo = 1e300, hi = 0.0;
      for (const RankRun& run : runs) {
        const double v = get(run.record, "train_phase_s", i);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      gap_sum += hi - lo;
      ++gap_n;
    }
  }
  const double ranks_n = static_cast<double>(kRanks * traced.size());
  const auto per_step = [&](double v) { return steps > 0 ? v / steps : 0.0; };
  const auto per_replayed = [&](double v) {
    return replayed_steps > 0 ? v / replayed_steps : 0.0;
  };
  const auto per_rank_round = [&](double v) {
    return rank_rounds > 0 ? v / static_cast<double>(rank_rounds) : 0.0;
  };
  const std::size_t steps_n = static_cast<std::size_t>(steps);
  const std::size_t rsteps_n = static_cast<std::size_t>(replayed_steps);

  rep.gemm_s = gemm_s;
  rep.set("tensor.gemm_calls_per_step", per_step(gemm_calls), "count", steps_n);
  rep.set("tensor.gemm_ms_per_step", 1e3 * per_step(gemm_s), "ms", steps_n);
  rep.set("tensor.gemm_gflops", flops / t_pool / 1e9, "GFLOP/s", gemms.size());
  rep.set("tensor.gemm_pool_speedup", t_serial / t_pool, "x", gemms.size());

  auto total_over = [&](const std::string& name) {
    return sum(durations(traced, name));
  };
  rep.set("nn.forward_ms_per_step", 1e3 * per_replayed(total_over("nn.forward")),
          "ms", rsteps_n);
  // Backward of the replayed steps only: the hook's launches nest inside.
  rep.set("nn.backward_ms_per_step",
          1e3 * per_replayed(total_over("nn.backward")), "ms", rsteps_n);
  rep.set("nn.optimizer_ms_per_step",
          1e3 * per_replayed(total_over("nn.optimizer")), "ms", rsteps_n);
  rep.set("nn.allreduce_blocked_ms_per_step",
          1e3 * per_step(total_over("nn.allreduce_wait")), "ms", steps_n);
  rep.set("nn.allreduce_overlap_frac", overlap / ranks_n, "frac", steps_n);
  rep.set("nn.buckets_per_step", per_step(buckets), "count", steps_n);
  rep.set("nn.allreduce_wire_bytes_per_step", per_step(wire), "B", steps_n);

  const auto step_ms = durations(traced, "gan.train_step");
  std::vector<double> step_ms_scaled;
  for (const double v : step_ms) step_ms_scaled.push_back(1e3 * v);
  const auto [st_v, st_p] = tail(step_ms_scaled);
  rep.set("gan.train_step_ms_p50", median(step_ms_scaled), "ms", step_ms.size());
  rep.set("gan.train_step_ms_tail", st_v, "ms", step_ms.size(), st_p);
  const auto evals = durations(traced, "gan.evaluate");
  rep.set("gan.evaluate_ms", 1e3 * mean(evals), "ms", evals.size());

  const auto batches = durations(traced, "data.next_batch");
  rep.set("data.next_batch_ms", 1e3 * mean(batches), "ms", batches.size());

  const std::size_t rounds_n = static_cast<std::size_t>(rounds);
  const auto per_round = [&](double v) { return rounds > 0 ? v / rounds : 0.0; };
  rep.set("core.train_phase_s",
          per_rank_round(total_over("core.train_phase")), "s", rank_rounds);
  rep.set("core.tournament_s", per_round(total_over("core.tournament")), "s",
          rounds_n);
  rep.set("core.exchange_s", per_round(total_over("comm.sendrecv")), "s",
          rounds_n);
  rep.set("core.leader_shrink_s", per_round(total_over("comm.shrink")), "s",
          rounds_n);
  rep.set("core.broadcast_winner_s",
          per_rank_round(total_over("core.broadcast_winner")), "s",
          spec.ranks_per_trainer > 1 ? rank_rounds : 0);
  rep.set("core.rank_gap_s", gap_n ? gap_sum / static_cast<double>(gap_n) : 0.0,
          "s", gap_n);
  rep.set("core.adoption_frac", tournaments > 0 ? adoptions / tournaments : 0.0,
          "frac", static_cast<std::size_t>(tournaments));

  const double sendrecv_s = total_over("comm.sendrecv");
  rep.set("comm.exchange_gbps",
          sendrecv_s > 0 ? 8.0 * payload / sendrecv_s / 1e9 : 0.0, "Gbit/s",
          static_cast<std::size_t>(tournaments));
  rep.set("comm.bytes_per_round", per_rank_round(comm_bytes), "B", rank_rounds);
  rep.set("comm.calls_per_round", per_rank_round(comm_calls), "count",
          rank_rounds);
  rep.set("comm.recv_wait_ms_per_round", 1e3 * per_rank_round(recv_wait), "ms",
          rank_rounds);
}

// ---- datastore-epochs --------------------------------------------------------------

struct StoreSpec {
  jag::JagConfig jag;  // 16x16 pixels x 3 views x 4 channels: ~12 KB/sample
  std::size_t samples = 4096;
  std::size_t files = 16;
  std::size_t global_batch = 512;
  std::size_t steady_epochs = 60;
};

/// Shuffled global order of epoch `e`, identical on every rank.
std::vector<data::SampleId> epoch_order(std::size_t n, std::uint64_t seed,
                                        std::size_t e) {
  std::vector<data::SampleId> order(n);
  std::iota(order.begin(), order.end(), 0);
  util::Xoshiro256 rng(util::derive_seed(seed, "epoch", e));
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  return order;
}

/// Assembles fetched samples into a data::Batch and checks every id and
/// payload against the generated data. Returns false on a mismatch.
bool assemble_and_verify(std::vector<data::Sample> fetched,
                         const std::vector<data::SampleId>& want,
                         const data::Dataset& truth, Tracer& tr) {
  data::Batch batch;
  {
    const Span s(tr, "data.make_batch");
    const data::Dataset held(truth.schema(), std::move(fetched));
    std::vector<std::size_t> positions(held.size());
    std::iota(positions.begin(), positions.end(), 0);
    batch = data::make_batch(held, positions);
  }
  // The consumer: reads every row back against the generated sample.
  bool ok = batch.ids == want;
  {
    const Span s(tr, "bench.verify");
    for (std::size_t i = 0; ok && i < want.size(); ++i) {
      const data::Sample& t = truth.sample(static_cast<std::size_t>(want[i]));
      ok = std::memcmp(batch.inputs.row(i).data(), t.input.data(),
                       t.input.size() * sizeof(float)) == 0 &&
           std::memcmp(batch.scalars.row(i).data(), t.scalars.data(),
                       t.scalars.size() * sizeof(float)) == 0 &&
           std::memcmp(batch.images.row(i).data(), t.images.data(),
                       t.images.size() * sizeof(float)) == 0;
    }
  }
  const Span s(tr, "data.free_batch");
  batch = data::Batch{};
  return ok;
}

Record store_rank(comm::Communicator& world, const StoreSpec& spec,
                  const datastore::BundleCatalog& catalog,
                  const data::Dataset& truth, std::uint64_t seed, bool traced) {
  telemetry::bind_rank(world.rank());
  Tracer tr(traced);
  Record rec;
  datastore::DataStore store(world, &catalog, datastore::PopulateMode::Dynamic);
  const std::size_t shard = spec.global_batch / kRanks;
  const std::size_t batches = spec.samples / spec.global_batch;
  const auto mine = [&](const std::vector<data::SampleId>& order,
                        std::size_t b) {
    const auto first = order.begin() + static_cast<std::ptrdiff_t>(
                                           b * spec.global_batch +
                                           static_cast<std::size_t>(world.rank()) * shard);
    return std::vector<data::SampleId>(first, first + static_cast<std::ptrdiff_t>(shard));
  };
  double attempted = 0, threw = 0, bad = 0;

  // Epoch 0 (Dynamic mode): every rank reads its disjoint shard of each
  // batch from the bundle files and caches it, which sets ownership.
  const double t_enter = now_s();
  {
    const Span e(tr, "epoch0");
    const auto order = epoch_order(spec.samples, seed, 0);
    for (std::size_t b = 0; b < batches; ++b) {
      const auto ids = mine(order, b);
      std::vector<data::Sample> got;
      ++attempted;
      try {
        const Span s(tr, "datastore.fetch_file");
        got = store.fetch(ids);
      } catch (const std::exception&) {
        ++threw;
        continue;
      }
      if (!assemble_and_verify(std::move(got), ids, truth, tr)) ++bad;
    }
    const Span s(tr, "datastore.build_directory");
    store.build_directory();
  }
  const double t_first = now_s();
  const datastore::DataStoreStats s0 = store.stats();
  const RankCounters c0 = read_counters(world.rank());

  // Steady epochs: prefetch the next batch while the current one is
  // assembled. Traced runs make their second half of the epochs
  // synchronous so that a fetch's own latency is timed directly (kept
  // apart: interleaved synchronous epochs slow the prefetching ones).
  std::vector<double>& epoch_wall = rec["epoch_wall"];
  std::vector<double>& prefetch_wall = rec["prefetch_epoch_wall"];
  double sync_bytes = 0.0;
  for (std::size_t e = 1; e <= spec.steady_epochs; ++e) {
    const Span es(tr, "epoch");
    const double t0 = now_s();
    const std::size_t bytes_before = store.stats().bytes_exchanged;
    const auto order = epoch_order(spec.samples, seed, e);
    const bool sync = traced && 2 * e > spec.steady_epochs;
    try {
      if (sync) {
        for (std::size_t b = 0; b < batches; ++b) {
          const auto ids = mine(order, b);
          ++attempted;
          std::vector<data::Sample> got;
          {
            const Span s(tr, "datastore.fetch");
            got = store.fetch(ids);
          }
          if (!assemble_and_verify(std::move(got), ids, truth, tr)) ++bad;
        }
      } else {
        store.begin_fetch(mine(order, 0));
        for (std::size_t b = 0; b < batches; ++b) {
          ++attempted;
          std::vector<data::Sample> got;
          {
            const Span s(tr, "datastore.prefetch_wait");
            got = store.collect_fetch();
          }
          if (b + 1 < batches) {
            const Span s(tr, "datastore.begin_fetch");
            store.begin_fetch(mine(order, b + 1));
          }
          if (!assemble_and_verify(std::move(got), mine(order, b), truth, tr)) {
            ++bad;
          }
        }
      }
    } catch (const std::exception&) {
      ++threw;
      break;
    }
    epoch_wall.push_back(now_s() - t0);
    if (sync) {
      sync_bytes +=
          static_cast<double>(store.stats().bytes_exchanged - bytes_before);
    } else {
      prefetch_wall.push_back(epoch_wall.back());
    }
  }
  const double t_exit = now_s();
  const datastore::DataStoreStats& s1 = store.stats();
  const RankCounters c1 = read_counters(world.rank());
  rec["t"] = {t_enter, t_first, t_exit};
  rec["ops"] = {attempted, threw + static_cast<double>(s1.faults), bad};
  rec["store_first"] = {static_cast<double>(s0.file_reads)};
  rec["store_steady"] = {
      static_cast<double>(s1.local_hits - s0.local_hits),
      static_cast<double>(s1.remote_fetches - s0.remote_fetches),
      static_cast<double>(s1.bytes_exchanged - s0.bytes_exchanged),
      sync_bytes};
  rec["comm"] = {c1.comm_bytes - c0.comm_bytes, c1.comm_calls - c0.comm_calls,
                 c1.recv_wait_s - c0.recv_wait_s};
  tr.write(rec);
  return rec;
}

/// Per-epoch wall time of the trainer: its slowest rank's (the ranks move
/// in lockstep through the all-to-all exchanges).
std::vector<double> trainer_epochs(const std::vector<RankRun>& runs,
                                   const std::string& key) {
  std::vector<double> epochs;
  for (const RankRun& run : runs) {
    const auto& w = list(run.record, key);
    epochs.resize(std::max(epochs.size(), w.size()), 0.0);
    for (std::size_t e = 0; e < w.size(); ++e) {
      epochs[e] = std::max(epochs[e], w[e]);
    }
  }
  return epochs;
}

void run_store(const Options& opt, Report& rep) {
  const StoreSpec spec;
  rep.backend = "inproc";
  const std::size_t per_epoch = spec.samples / spec.global_batch * spec.global_batch;
  std::vector<double> setup, rate, walls, tails, first, traced_rate;
  std::vector<std::vector<RankRun>> traced;
  const std::filesystem::path dir = opt.scratch / "bundles";
  const double start = now_s();
  double last_rep = 0.0;
  while (rep.reps < 2 ||
         (now_s() - start + last_rep <= opt.seconds && rep.reps < 200)) {
    const double t_setup = now_s();
    const bool traced_rep = opt.trace && rep.reps % 2 == 1;
    const jag::JagModel jag(spec.jag);
    const data::Dataset truth = data::generate_jag_dataset(
        jag, spec.samples, util::derive_seed(opt.seed, "bundles"));
    std::filesystem::remove_all(dir);
    const datastore::BundleCatalog catalog(
        data::write_bundle_set(dir, truth.schema(), truth.samples(), spec.files));
    const std::uint64_t order_seed = util::derive_seed(opt.seed, "order");
    if (traced_rep) {
      telemetry::Registry::instance().reset_metrics();
      telemetry::Registry::instance().set_enabled(true);
    }
    const auto runs = run_world(false, opt.scratch, [&](comm::Communicator& c) {
      return store_rank(c, spec, catalog, truth, order_seed, traced_rep);
    });
    telemetry::Registry::instance().set_enabled(false);
    telemetry::Registry::instance().clear_trace();
    ++rep.reps;
    last_rep = now_s() - t_setup;

    double t_enter = 1e300, t_first = 0.0, t_exit = 0.0;
    for (const RankRun& run : runs) {
      if (!run.clean) {
        ++rep.attempted;
        ++rep.failed;
        rep.check(false, "rank failed: " + run.error);
        continue;
      }
      const Record& r = run.record;
      rep.attempted += static_cast<std::size_t>(get(r, "ops", 0));
      rep.failed += static_cast<std::size_t>(get(r, "ops", 1));
      rep.check(get(r, "ops", 2) == 0.0,
                "fetched sample id or payload differs from generated data");
      t_enter = std::min(t_enter, get(r, "t", 0));
      t_first = std::max(t_first, get(r, "t", 1));
      t_exit = std::max(t_exit, get(r, "t", 2));
    }
    if (rep.failed > 0 || !rep.errors.empty()) break;
    setup.push_back(t_enter - t_setup);
    first.push_back(t_first - t_enter);
    if (traced_rep) {
      // Tracing cost on the prefetching epochs, the untraced loop's shape.
      const auto epochs = trainer_epochs(runs, "prefetch_epoch_wall");
      traced_rate.push_back(
          static_cast<double>(epochs.size() * per_epoch) /
          sum(epochs));
      traced.push_back(runs);
      continue;
    }
    rate.push_back(static_cast<double>(spec.steady_epochs * per_epoch) /
                   (t_exit - t_first));
    const auto epochs = trainer_epochs(runs, "epoch_wall");
    walls.insert(walls.end(), epochs.begin(), epochs.end());
    tails.push_back(quantile(epochs, kTailQuantile));
  }
  if (!rep.errors.empty()) return;

  rep.set("setup_s", median(setup), "s", setup.size());
  rep.set("samples_per_s", median(rate), "samples/s", rate.size());
  rep.set("ingest_samples_per_s", median(rate), "samples/s", rate.size());
  rep.set("round_wall_p50_s", median(walls), "s", walls.size());
  rep.set("round_wall_tail_s", median(tails), "s", walls.size(),
          100.0 * kTailQuantile);
  rep.set("first_round_s", median(first), "s", first.size());
  rep.set("first_epoch_s", median(first), "s", first.size());
  if (!opt.trace) return;

  rep.set("trace_overhead_frac", 1.0 - median(traced_rate) / median(rate),
          "frac", traced_rate.size());
  const auto fetch_s = durations(traced, "datastore.fetch");
  const auto wait_s = durations(traced, "datastore.prefetch_wait");
  const auto make_s = durations(traced, "data.make_batch");
  const auto build_s = durations(traced, "datastore.build_directory");
  std::vector<double> fetch_ms;
  for (const double v : fetch_s) fetch_ms.push_back(1e3 * v);
  const double sync_fetch_s = sum(fetch_s);
  rep.traced_wall_s =
      sum(durations(traced, "epoch")) + sum(durations(traced, "epoch0"));
  double hits = 0, remote = 0, exchanged = 0, file_reads = 0, comm_bytes = 0,
         comm_calls = 0, recv_wait = 0, rank_epochs = 0, sync_bytes = 0;
  for (const auto& runs : traced) {
    for (const RankRun& run : runs) {
      const Record& r = run.record;
      add_layer_times(rep, r);
      hits += get(r, "store_steady", 0);
      remote += get(r, "store_steady", 1);
      exchanged += get(r, "store_steady", 2);
      file_reads += get(r, "store_first", 0);
      comm_bytes += get(r, "comm", 0);
      comm_calls += get(r, "comm", 1);
      recv_wait += get(r, "comm", 2);
      rank_epochs += static_cast<double>(list(r, "epoch_wall").size());
      sync_bytes += get(r, "store_steady", 3);
    }
  }
  const double epochs_per_run = rank_epochs / kRanks;
  const auto [ft_v, ft_p] = tail(fetch_ms);
  rep.set("datastore.fetch_ms_p50", median(fetch_ms), "ms", fetch_ms.size());
  rep.set("datastore.fetch_ms_tail", ft_v, "ms", fetch_ms.size(), ft_p);
  rep.set("datastore.prefetch_wait_ms", 1e3 * mean(wait_s), "ms", wait_s.size());
  // DataStoreStats.local_hits also counts samples served to peers, which
  // (summed over ranks) equal the remote fetches.
  const double own_hits = hits - remote;
  rep.set("datastore.local_hit_frac",
          own_hits + remote > 0 ? own_hits / (own_hits + remote) : 0.0, "frac",
          static_cast<std::size_t>(own_hits + remote));
  rep.set("datastore.bytes_exchanged_per_epoch",
          epochs_per_run > 0 ? exchanged / epochs_per_run : 0.0, "B",
          static_cast<std::size_t>(rank_epochs));
  rep.set("datastore.file_reads_per_epoch",
          file_reads / static_cast<double>(traced.size()), "count",
          traced.size());
  rep.set("datastore.build_directory_s", median(build_s), "s", build_s.size());
  rep.set("data.make_batch_ms", 1e3 * mean(make_s), "ms", make_s.size());
  rep.set("comm.exchange_gbps",
          sync_fetch_s > 0 ? 8.0 * sync_bytes / sync_fetch_s / 1e9 : 0.0,
          "Gbit/s", fetch_ms.size());
  rep.set("comm.bytes_per_round", rank_epochs > 0 ? comm_bytes / rank_epochs : 0.0,
          "B", static_cast<std::size_t>(rank_epochs));
  rep.set("comm.calls_per_round", rank_epochs > 0 ? comm_calls / rank_epochs : 0.0,
          "count", static_cast<std::size_t>(rank_epochs));
  rep.set("comm.recv_wait_ms_per_round",
          rank_epochs > 0 ? 1e3 * recv_wait / rank_epochs : 0.0, "ms",
          static_cast<std::size_t>(rank_epochs));
}

// ---- main ------------------------------------------------------------------------

std::size_t peak_rss_kb(bool children) {
  rusage usage{};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss);
}

int usage() {
  std::cerr << "usage: ltfb_perfbench --workload "
               "dp-skinny|tournament-wide|datastore-epochs --seed N "
               "--seconds S --trace 0|1 [--scratch DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--scratch") {
      opt.scratch = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.workload.empty()) return usage();

  // The timed runs measure the program's defaults: refuse any LTFB_*
  // setting (fault schedules, telemetry, pool size, bucket size, dtypes,
  // backend) that would leak in from the environment.
  std::vector<std::string> leaked;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "LTFB_", 5) == 0) leaked.emplace_back(*env);
  }
  if (!leaked.empty()) {
    std::cerr << "refusing to run with LTFB_* settings in the environment:";
    for (const auto& e : leaked) std::cerr << ' ' << e;
    std::cerr << '\n';
    return 3;
  }

  Report rep;
  bool spawned = false;
  try {
    if (opt.workload == "dp-skinny") {
      run_ltfb(opt, kDpSkinny, rep);
    } else if (opt.workload == "tournament-wide") {
      spawned = true;
      run_ltfb(opt, kTournamentWide, rep);
    } else if (opt.workload == "datastore-epochs") {
      run_store(opt, rep);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    rep.errors.push_back(std::string("exception: ") + e.what());
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.scratch, ec);

  rep.set("peak_rss_mb",
          static_cast<double>(std::max(peak_rss_kb(false),
                                       spawned ? peak_rss_kb(true) : 0)) / 1024.0,
          "MB", 1);
  if (rep.attempted > 0) {
    rep.set("failed_frac",
            static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
            "frac", rep.attempted);
  }

  std::ostringstream out;
  out << "{\"workload\":" << json_str(opt.workload) << ",\"seed\":" << opt.seed
      << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"fingerprint\":{"
      << "\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"simd_width\":" << tensor::simd::kNativeWidth
      << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
      << ",\"compute_pool\":" << util::ComputePool::env_threads()
      << ",\"comm_backend\":" << json_str(rep.backend) << "}"
      << ",\"reps\":" << rep.reps << ",\"attempted\":" << rep.attempted
      << ",\"failed\":" << rep.failed << ",\"errors\":[";
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    out << (i ? "," : "") << json_str(rep.errors[i]);
  }
  out << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : rep.metrics) {
    out << (first ? "" : ",") << json_str(name) << ":{\"value\":"
        << json_num(m.value) << ",\"unit\":" << json_str(m.unit)
        << ",\"n\":" << m.n;
    if (m.pct >= 0) out << ",\"pct\":" << json_num(m.pct);
    out << "}";
    first = false;
  }
  out << "},\"layers\":{";
  first = true;
  for (const auto& [layer, self_s] : rep.layer_self_s) {
    out << (first ? "" : ",") << json_str(layer) << ":" << json_num(self_s);
    first = false;
  }
  out << "},\"traced_wall_s\":" << json_num(rep.traced_wall_s)
      << ",\"unattributed_s\":" << json_num(rep.unattributed_s)
      << ",\"gemm_s\":" << json_num(rep.gemm_s) << "}";
  std::cout << out.str() << std::endl;
  return rep.errors.empty() ? 0 : 1;
}
