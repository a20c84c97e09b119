#include "nn/parallel.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>

#include "nn/optimizer.hpp"
#include "telemetry/telemetry.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"

namespace ltfb::nn {
namespace {

// Bucket all-reduce tags live far above the small hand-picked tags the rest
// of the tree uses, and far below the bit-62 internal-collective range the
// communicator reserves for itself. Bucket packing is deterministic and
// identical on every rank, so a monotonic sequence yields matching tags
// everywhere; FIFO matching per (source, tag) makes eventual wrap-around
// reuse safe.
constexpr int kBucketTagBase = 1 << 20;
constexpr int kBucketTagRange = 1 << 24;

constexpr std::size_t kDefaultBucketBytes = 1u << 20;  // 1 MiB

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int ring_chunk(int index, int ranks) noexcept {
  return ((index % ranks) + ranks) % ranks;
}

std::uint64_t fnv1a_append(std::uint64_t hash, float value) noexcept {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int shift = 0; shift < 32; shift += 8) {
    hash ^= (bits >> shift) & 0xffu;
    hash *= kPrime;
  }
  return hash;
}

}  // namespace

void allreduce_gradients(Model& model, comm::Communicator& comm) {
  if (comm.size() == 1) return;
  std::vector<float> bucket = model.flatten_gradients();
  comm.allreduce(bucket, comm::ReduceOp::Sum);
  tensor::scale(1.0f / static_cast<float>(comm.size()),
                std::span<float>(bucket));
  model.load_flat_gradients(bucket);
}

void broadcast_weights(Model& model, comm::Communicator& comm, int root) {
  if (comm.size() == 1) return;
  std::vector<float> flat = model.flatten_weights();
  comm.broadcast(root, std::span<float>(flat));
  if (comm.rank() != root) {
    model.load_flat_weights(flat);
  }
}

bool weights_in_sync(Model& model, comm::Communicator& comm) {
  if (comm.size() == 1) return true;
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  for (const Weights* w : model.weights()) {
    for (const float v : w->values().data()) {
      hash = fnv1a_append(hash, v);
    }
  }
  // Ship the hash as four 16-bit pieces: every value below 2^16 is exactly
  // representable as a float, so the Min/Max reductions are lossless.
  std::array<float, 4> pieces{};
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    pieces[i] = static_cast<float>((hash >> (16 * i)) & 0xffffu);
  }
  std::array<float, 4> max_copy = pieces;
  comm.allreduce(max_copy, comm::ReduceOp::Max);
  std::array<float, 4> min_copy = pieces;
  comm.allreduce(min_copy, comm::ReduceOp::Min);
  return max_copy == min_copy;
}

const char* to_string(WireDtype dtype) noexcept {
  switch (dtype) {
    case WireDtype::Fp32: return "fp32";
    case WireDtype::Bf16: return "bf16";
    case WireDtype::Fp16: return "fp16";
  }
  return "?";
}

GradientBucketer::GradientBucketer(comm::Communicator& comm,
                                   std::size_t bucket_bytes)
    : GradientBucketer(comm, bucket_bytes, wire_dtype_from_env()) {}

GradientBucketer::GradientBucketer(comm::Communicator& comm,
                                   std::size_t bucket_bytes,
                                   WireDtype wire_dtype)
    : comm_(comm), wire_dtype_(wire_dtype) {
  if (bucket_bytes == 0) bucket_bytes = bucket_bytes_from_env();
  LTFB_CHECK_MSG(bucket_bytes >= sizeof(float),
                 "bucket size " << bucket_bytes << " B below one float");
  cap_floats_ = bucket_bytes / sizeof(float);
}

std::size_t GradientBucketer::bucket_bytes_from_env() {
  const char* raw = std::getenv("LTFB_ALLREDUCE_BUCKET_BYTES");
  if (raw == nullptr || *raw == '\0') return kDefaultBucketBytes;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(raw, &end, 10);
  LTFB_CHECK_MSG(end != raw && *end == '\0' && parsed >= sizeof(float),
                 "LTFB_ALLREDUCE_BUCKET_BYTES='"
                     << raw << "' is not a byte count >= " << sizeof(float));
  return static_cast<std::size_t>(parsed);
}

WireDtype GradientBucketer::wire_dtype_from_env() {
  const char* raw = std::getenv("LTFB_ALLREDUCE_DTYPE");
  if (raw == nullptr || *raw == '\0') {
    return mixed_precision_from_env() ? WireDtype::Bf16 : WireDtype::Fp32;
  }
  if (std::strcmp(raw, "fp32") == 0) return WireDtype::Fp32;
  if (std::strcmp(raw, "bf16") == 0) return WireDtype::Bf16;
  if (std::strcmp(raw, "fp16") == 0) return WireDtype::Fp16;
  LTFB_CHECK_MSG(false, "LTFB_ALLREDUCE_DTYPE='"
                            << raw << "' is not one of fp32|bf16|fp16");
  return WireDtype::Fp32;
}

void GradientBucketer::on_layer_backward(Weights& w) {
  if (comm_.size() == 1) return;
  pump();
  if (w.size() == 0) return;
  if (!open_.data.empty() && open_.data.size() + w.size() > cap_floats_) {
    launch(open_);
  }
  const std::size_t offset = open_.data.size();
  const auto grad = w.gradient().data();
  open_.data.insert(open_.data.end(), grad.begin(), grad.end());
  open_.entries.push_back(Entry{&w, offset});
  packed_floats_ += w.size();
  if (open_.data.size() >= cap_floats_) {
    launch(open_);
  }
}

void GradientBucketer::launch(Bucket& bucket) {
  LTFB_CHECK(!bucket.data.empty());
  const int ranks = comm_.size();
  bucket.tag = kBucketTagBase + bucket_seq_;
  bucket_seq_ = (bucket_seq_ + 1) % kBucketTagRange;
  // Ring chunk table: chunk i spans [offsets[i], offsets[i+1]). Short
  // buckets leave trailing chunks empty — those steps still exchange
  // (empty) messages so the ring stays in lockstep.
  const std::size_t base = bucket.data.size() / static_cast<std::size_t>(ranks);
  const std::size_t rem = bucket.data.size() % static_cast<std::size_t>(ranks);
  bucket.offsets.assign(static_cast<std::size_t>(ranks) + 1, 0);
  for (std::size_t i = 0; i < static_cast<std::size_t>(ranks); ++i) {
    bucket.offsets[i + 1] =
        bucket.offsets[i] + base + (i < rem ? 1 : 0);
  }
  bucket.step = 0;
  bucket.launch_ns = steady_ns();
  send_for_step(bucket, 0);
  const int left = ring_chunk(comm_.rank() - 1, ranks);
  bucket.pending = comm_.irecv(left, bucket.tag);
  // &bucket aliases open_ when called from the packing path: move the
  // launched state out and reset the open bucket for the next layer.
  if (&bucket == &open_) {
    in_flight_.push_back(std::move(open_));
    open_ = Bucket{};
  }
}

void GradientBucketer::send_for_step(Bucket& bucket, int step) {
  const int ranks = comm_.size();
  const int rank = comm_.rank();
  const int right = ring_chunk(rank + 1, ranks);
  // Reduce-scatter steps s in [0, p-1) send chunk (rank - s); all-gather
  // steps send chunk (rank + 1 - t) where t = s - (p - 1).
  const int chunk = step < ranks - 1
                        ? ring_chunk(rank - step, ranks)
                        : ring_chunk(rank + 1 - (step - (ranks - 1)), ranks);
  const std::size_t begin = bucket.offsets[static_cast<std::size_t>(chunk)];
  const std::size_t end = bucket.offsets[static_cast<std::size_t>(chunk) + 1];
  const std::size_t count = end - begin;
  if (wire_dtype_ == WireDtype::Fp32) {
    comm_.send(right, bucket.tag,
               std::span<const float>(bucket.data.data() + begin, count));
    wire_bytes_ += count * sizeof(float);
    LTFB_COUNTER_ADD("nn/allreduce_wire_bytes", count * sizeof(float));
    return;
  }
  const tensor::HalfKind kind = wire_dtype_ == WireDtype::Fp16
                                    ? tensor::HalfKind::Fp16
                                    : tensor::HalfKind::Bf16;
  if (step == ranks - 1) {
    // First all-gather send: this rank owns the fully-reduced chunk, which
    // every peer will only ever see through the half encoding. Quantize the
    // owner's own copy in place so all ranks converge on the identical
    // half-representable values (later forwards then re-encode losslessly).
    float* mine = bucket.data.data() + begin;
    for (std::size_t i = 0; i < count; ++i) {
      mine[i] = tensor::quantize(mine[i], kind);
    }
  }
  half_scratch_.resize(count);
  tensor::encode_half(
      std::span<const float>(bucket.data.data() + begin, count),
      std::span<std::uint16_t>(half_scratch_.data(), count), kind);
  comm::Buffer payload(count * sizeof(std::uint16_t));
  std::memcpy(payload.data(), half_scratch_.data(), payload.size());
  comm_.send(right, bucket.tag, payload);
  wire_bytes_ += payload.size();
  LTFB_COUNTER_ADD("nn/allreduce_wire_bytes", payload.size());
}

bool GradientBucketer::apply_completed_step(Bucket& bucket) {
  const int ranks = comm_.size();
  const int rank = comm_.rank();
  const comm::Buffer payload = comm_.take_payload(bucket.pending);
  std::vector<float> incoming;
  if (wire_dtype_ == WireDtype::Fp32) {
    incoming = comm::Deserializer::unpack_floats(payload);
  } else {
    LTFB_CHECK_MSG(payload.size() % sizeof(std::uint16_t) == 0,
                   "half-precision bucket payload of " << payload.size()
                                                       << " bytes is odd");
    const std::size_t count = payload.size() / sizeof(std::uint16_t);
    half_scratch_.resize(count);
    std::memcpy(half_scratch_.data(), payload.data(), payload.size());
    incoming.resize(count);
    tensor::decode_half(
        std::span<const std::uint16_t>(half_scratch_.data(), count),
        std::span<float>(incoming.data(), count),
        wire_dtype_ == WireDtype::Fp16 ? tensor::HalfKind::Fp16
                                       : tensor::HalfKind::Bf16);
  }
  const int step = bucket.step;
  const bool reduce_phase = step < ranks - 1;
  const int chunk =
      reduce_phase ? ring_chunk(rank - step - 1, ranks)
                   : ring_chunk(rank - (step - (ranks - 1)), ranks);
  const std::size_t begin = bucket.offsets[static_cast<std::size_t>(chunk)];
  const std::size_t end = bucket.offsets[static_cast<std::size_t>(chunk) + 1];
  LTFB_CHECK_MSG(incoming.size() == end - begin,
                 "bucket tag " << bucket.tag << " step " << step
                               << " received " << incoming.size()
                               << " floats, expected " << end - begin);
  float* mine = bucket.data.data() + begin;
  if (reduce_phase) {
    tensor::axpy(1.0f, incoming, std::span<float>(mine, incoming.size()));
  } else {
    std::copy(incoming.begin(), incoming.end(), mine);
  }
  ++bucket.step;
  if (bucket.step < 2 * (ranks - 1)) {
    send_for_step(bucket, bucket.step);
    const int left = ring_chunk(rank - 1, ranks);
    bucket.pending = comm_.irecv(left, bucket.tag);
    return false;
  }
  complete(bucket);
  return true;
}

void GradientBucketer::pump() {
  for (Bucket& bucket : in_flight_) {
    while (!bucket.done && bucket.pending.test()) {
      apply_completed_step(bucket);
    }
  }
}

void GradientBucketer::complete(Bucket& bucket) {
  tensor::scale(1.0f / static_cast<float>(comm_.size()),
                std::span<float>(bucket.data));
  for (const Entry& entry : bucket.entries) {
    auto grad = entry.weights->gradient().data();
    std::copy_n(bucket.data.begin() +
                    static_cast<std::ptrdiff_t>(entry.offset),
                grad.size(), grad.begin());
  }
  bucket.done = true;
  const std::uint64_t window = steady_ns() - bucket.launch_ns;
  comm_window_ns_ += window;
  ++buckets_done_;
  bytes_reduced_ += bucket.data.size() * sizeof(float);
  LTFB_COUNTER_ADD("nn/allreduce_buckets", 1);
  LTFB_COUNTER_ADD("nn/allreduce_bytes", bucket.data.size() * sizeof(float));
  if (telemetry::enabled()) {
    const std::uint64_t end_ns = telemetry::now_ns();
    telemetry::record_interval("nn/allreduce_overlap",
                               end_ns - std::min(end_ns, window), end_ns);
  }
}

void GradientBucketer::finish(const std::vector<Model*>& models) {
  finish(models, std::chrono::hours(24));
}

void GradientBucketer::finish(const std::vector<Model*>& models,
                              std::chrono::milliseconds timeout) {
  if (comm_.size() == 1) return;
  std::size_t expected = 0;
  for (const Model* model : models) {
    LTFB_CHECK(model != nullptr);
    expected += model->parameter_count();
  }
  LTFB_CHECK_MSG(packed_floats_ == expected,
                 "bucketed all-reduce packed "
                     << packed_floats_ << " gradients but the sync covers "
                     << expected
                     << " parameters; backward hook missing or doubled");
  if (!open_.data.empty()) launch(open_);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  const std::uint64_t blocked_start = steady_ns();
  for (Bucket& bucket : in_flight_) {
    while (!bucket.done) {
      if (!bucket.pending.test()) {
        // Request::wait(0ms) throws TimeoutError immediately when the
        // deadline has already passed; the bucketer is not reusable after
        // a timeout or rank failure (the trainer aborts the round).
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
        bucket.pending.wait(std::max(remaining,
                                     std::chrono::milliseconds(0)));
      }
      apply_completed_step(bucket);
    }
  }
  blocked_ns_ += steady_ns() - blocked_start;
  in_flight_.clear();
  packed_floats_ = 0;
  LTFB_GAUGE_SET("nn/allreduce_overlap_fraction", overlap_fraction());
}

double GradientBucketer::overlap_fraction() const noexcept {
  if (comm_window_ns_ == 0) return 0.0;
  const std::uint64_t blocked = std::min(blocked_ns_, comm_window_ns_);
  return 1.0 - static_cast<double>(blocked) /
                   static_cast<double>(comm_window_ns_);
}

}  // namespace ltfb::nn
