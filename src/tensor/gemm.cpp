#include "tensor/gemm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "telemetry/telemetry.hpp"
#include "util/compute_pool.hpp"

// Restrict-qualified pointers let the compiler prove the packed A/B blocks
// and the C tile never alias.
#define LTFB_GEMM_RESTRICT __restrict
// Full unrolling of a fixed-trip register-tile loop (GCC and Clang both
// read the GCC spelling).
#define LTFB_GEMM_UNROLL _Pragma("GCC unroll 16")

namespace ltfb::tensor {

namespace {

struct Dims {
  std::size_t m, n, k;
};

Dims check_dims(Op op_a, Op op_b, const Tensor& a, const Tensor& b,
                const Tensor& c) {
  LTFB_CHECK_MSG(a.rank() == 2 && b.rank() == 2 && c.rank() == 2,
                 "gemm requires rank-2 tensors");
  const std::size_t m = (op_a == Op::None) ? a.rows() : a.cols();
  const std::size_t ka = (op_a == Op::None) ? a.cols() : a.rows();
  const std::size_t kb = (op_b == Op::None) ? b.rows() : b.cols();
  const std::size_t n = (op_b == Op::None) ? b.cols() : b.rows();
  LTFB_CHECK_MSG(ka == kb, "gemm inner dimension mismatch: "
                               << ka << " vs " << kb);
  LTFB_CHECK_MSG(c.rows() == m && c.cols() == n,
                 "gemm output shape mismatch: got "
                     << shape_to_string(c.shape()) << ", want [" << m << ", "
                     << n << "]");
  return {m, n, ka};
}

// Cache blocking: an A block (kBlockM x kBlockK) plus a B block
// (kBlockK x kBlockN) stay resident in L2 while the register tiles sweep.
// kBlockK is part of the accumulation contract (gemm.hpp); kBlockM and
// kBlockN only decide which tile computes an element, never how.
constexpr std::size_t kBlockM = 64;
constexpr std::size_t kBlockN = 128;
constexpr std::size_t kBlockK = kGemmBlockK;

// Register tile: kMr rows of A against kNv native vectors of B columns.
// The kMr * kNv accumulators, kNv B vectors and one broadcast A value must
// fit the vector register file, or the compiler keeps the tile on the stack
// and every multiply-add becomes a load, an FMA and a store. 6 x 2 uses 15
// of AVX2's 16 ymm registers; its 12 independent FMA chains also cover the
// FMA latency, where a 4 x 2 tile's 8 chains did not (one packed
// 64x128x128 block: ~54 vs ~70 GFLOP/s on a 4-vCPU AVX2 host).
constexpr std::size_t kW = simd::kNativeWidth;
constexpr std::size_t kMr = 6;
constexpr std::size_t kNv = 2;
constexpr std::size_t kNr = kNv * kW;

// Packed-buffer geometry: A is packed in kMr-row panels and B in kNr-column
// panels, each zero-padded to the full panel, so every tile — edge tiles
// included — runs the vector kernel.
constexpr std::size_t round_up(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}
static_assert(kBlockN % kNr == 0, "B panels must tile the macro-block");
static_assert(kNv == 2, "macro_kernel dispatches tiles of 1 or kNv vectors");

// Below this many multiply-adds (2*m*n*k FLOPs / 2), waking pool threads
// costs as much as they save: run the block loop inline. Set by
// BM_GemmShapes (bench/micro_kernels.cpp) on a 4-vCPU AVX2 host: the
// smallest measured m*n*k at which pool 2 beats serial is the 207x128x64
// weight gradient of the dp-skinny CycleGAN's widest layer (~1.4x), while
// the 128x64x64 one (524k) gained nothing.
constexpr std::size_t kParallelMnkThreshold = 207u * 128u * 64u;

// Per-worker pack buffers — hoisted out of the call frame so every pool
// worker (and the calling thread on the serial path) reuses its own warm,
// cache-aligned copy instead of re-touching fresh stack pages per call.
alignas(64) thread_local std::array<float, round_up(kBlockM, kMr) * kBlockK>
    tl_abuf;
alignas(64) thread_local std::array<float, kBlockK * kBlockN> tl_bbuf;

// Packs op(A)'s (i0..i0+mb) x (k0..k0+kb) block into kMr-row panels: panel
// p holds rows p*kMr.. k-major (element (r, kk) at kk*kMr + r), so the
// kernel reads its A column as one contiguous run. Rows past mb are zero.
// Alpha is folded into the packed values (one multiply per element instead
// of one per use in the kernel).
void pack_a(Op op, const Tensor& a, float alpha, std::size_t i0,
            std::size_t mb, std::size_t k0, std::size_t kb, float* buf) {
  const std::size_t lda = a.cols();
  // op(A)(i0 + r, k0 + kk) sits at base[r * rs + kk * ks].
  const std::size_t rs = op == Op::None ? lda : 1;
  const std::size_t ks = op == Op::None ? 1 : lda;
  const float* base = a.raw() + i0 * rs + k0 * ks;
  for (std::size_t p = 0; p < mb; p += kMr) {
    const std::size_t rows = std::min(kMr, mb - p);
    const float* src = base + p * rs;
    float* panel = buf + p * kb;
    if (rows == kMr) {
      for (std::size_t kk = 0; kk < kb; ++kk) {
        LTFB_GEMM_UNROLL
        for (std::size_t r = 0; r < kMr; ++r) {
          panel[kk * kMr + r] = src[r * rs + kk * ks];
        }
      }
    } else {
      std::fill_n(panel, kMr * kb, 0.0f);
      for (std::size_t kk = 0; kk < kb; ++kk) {
        for (std::size_t r = 0; r < rows; ++r) {
          panel[kk * kMr + r] = src[r * rs + kk * ks];
        }
      }
    }
  }
  if (alpha != 1.0f) {
    for (std::size_t i = 0; i < round_up(mb, kMr) * kb; ++i) buf[i] *= alpha;
  }
}

// Packs op(B)'s (k0..k0+kb) x (j0..j0+nb) block into kNr-column panels:
// panel q holds columns q*kNr.. k-major (element (kk, c) at kk*kNr + c).
// Columns past nb are zero, so the kernel's vector lanes there sum zeros
// and are never stored.
void pack_b(Op op, const Tensor& b, std::size_t k0, std::size_t kb,
            std::size_t j0, std::size_t nb, float* buf) {
  using simd::vf;
  const std::size_t ldb = b.cols();
  const float* src = b.raw();
  const std::size_t full = nb - nb % kNr;
  if (full < nb) std::fill_n(buf + full * kb, kb * kNr, 0.0f);
  if (op == Op::None) {
    for (std::size_t kk = 0; kk < kb; ++kk) {
      const float* row = src + (k0 + kk) * ldb + j0;
      for (std::size_t q = 0; q < full; q += kNr) {
        LTFB_GEMM_UNROLL
        for (std::size_t v = 0; v < kNr; v += kW) {
          vf::load(row + q + v).store(buf + q * kb + kk * kNr + v);
        }
      }
      for (std::size_t j = full; j < nb; ++j) {
        buf[full * kb + kk * kNr + (j - full)] = row[j];
      }
    }
  } else {
    // Full panels walk k outside the unrolled columns: every store is
    // sequential, and the kNr source rows stream in parallel.
    for (std::size_t q = 0; q < full; q += kNr) {
      const float* cols = src + (j0 + q) * ldb + k0;
      float* panel = buf + q * kb;
      for (std::size_t kk = 0; kk < kb; ++kk) {
        LTFB_GEMM_UNROLL
        for (std::size_t c = 0; c < kNr; ++c) {
          panel[kk * kNr + c] = cols[c * ldb + kk];
        }
      }
    }
    for (std::size_t j = full; j < nb; ++j) {
      const float* col = src + (j0 + j) * ldb + k0;
      float* panel = buf + full * kb + (j - full);
      for (std::size_t kk = 0; kk < kb; ++kk) panel[kk * kNr] = col[kk];
    }
  }
}

// Register tile over Nv vectors (Nv * kW columns) of one packed B panel:
// kMr x Nv vector accumulators, each C element's k terms summed from zero
// in k order with a broadcast-A multiply-add, then added into C. Only the
// mr x nr valid corner is stored. The fixed-trip loops carry unroll
// pragmas: fully unrolled, every accumulator index is a compile-time
// constant and the tile lives in registers; rolled (GCC at -O2 unrolls
// only when the body does not grow), the tile is an addressed array and
// stays on the stack. At width 1 each lane expands to the scalar loop the
// pre-SIMD kernel ran (same expression, same per-element order).
template <std::size_t Nv>
void micro_kernel(const float* LTFB_GEMM_RESTRICT a,
                  const float* LTFB_GEMM_RESTRICT b, std::size_t kb,
                  std::size_t mr, std::size_t nr, float* LTFB_GEMM_RESTRICT c,
                  std::size_t ldc) {
  using simd::vf;
  vf acc[kMr][Nv] = {};
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* LTFB_GEMM_RESTRICT brow = b + kk * kNr;
    const float* LTFB_GEMM_RESTRICT acol = a + kk * kMr;
    vf bv[Nv];
    LTFB_GEMM_UNROLL
    for (std::size_t col = 0; col < Nv; ++col) {
      bv[col] = vf::load(brow + col * kW);
    }
    LTFB_GEMM_UNROLL
    for (std::size_t r = 0; r < kMr; ++r) {
      const vf av = vf::broadcast(acol[r]);
      LTFB_GEMM_UNROLL
      for (std::size_t col = 0; col < Nv; ++col) {
        acc[r][col] = acc[r][col].mul_add(av, bv[col]);
      }
    }
  }
  if (mr == kMr && nr == Nv * kW) {
    LTFB_GEMM_UNROLL
    for (std::size_t r = 0; r < kMr; ++r) {
      LTFB_GEMM_UNROLL
      for (std::size_t col = 0; col < Nv; ++col) {
        float* ct = c + r * ldc + col * kW;
        (vf::load(ct) + acc[r][col]).store(ct);
      }
    }
    return;
  }
  // Edge tile: spill the finished tile once (constant indices, so the
  // accumulators above stay in registers) and add its valid corner.
  float tile[kMr][Nv * kW] = {};
  LTFB_GEMM_UNROLL
  for (std::size_t r = 0; r < kMr; ++r) {
    LTFB_GEMM_UNROLL
    for (std::size_t col = 0; col < Nv; ++col) {
      acc[r][col].store(&tile[r][col * kW]);
    }
  }
  for (std::size_t r = 0; r < mr; ++r) {
    for (std::size_t j = 0; j < nr; ++j) c[r * ldc + j] += tile[r][j];
  }
}

// Runs the register tile over the (mb x nb) macro-block held in the packed
// buffers. Each B panel is swept by every A panel while it sits in L1.
void macro_kernel(const float* abuf, const float* bbuf, std::size_t mb,
                  std::size_t nb, std::size_t kb, float* c, std::size_t ldc) {
  for (std::size_t j = 0; j < nb; j += kNr) {
    const std::size_t nr = std::min(kNr, nb - j);
    // Vectors the valid columns need: a narrow edge skips the zero vectors.
    const std::size_t nv = (nr + kW - 1) / kW;
    for (std::size_t i = 0; i < mb; i += kMr) {
      const std::size_t mr = std::min(kMr, mb - i);
      float* ctile = c + i * ldc + j;
      if (nv == kNv) {
        micro_kernel<kNv>(abuf + i * kb, bbuf + j * kb, kb, mr, nr, ctile,
                          ldc);
      } else {
        micro_kernel<1>(abuf + i * kb, bbuf + j * kb, kb, mr, nr, ctile, ldc);
      }
    }
  }
}

// Applies the fused epilogue to C's (i0..i0+mb) x (j0..j0+nb) block:
// C(i,j) = act(C(i,j) + bias[j]). Purely elementwise, so it preserves the
// kernel's bit-identity contract at any pool size. Relu/LeakyRelu run on
// the vector path with the exact scalar predicate (x > 0 select, not max);
// sigmoid/tanh stay scalar — libm transcendentals, same as the activation
// layers.
void apply_epilogue(float* LTFB_GEMM_RESTRICT cp, std::size_t ldc,
                    std::size_t i0, std::size_t mb, std::size_t j0,
                    std::size_t nb, const Epilogue& ep) {
  using simd::vf;
  for (std::size_t i = 0; i < mb; ++i) {
    float* LTFB_GEMM_RESTRICT row = cp + (i0 + i) * ldc + j0;
    const float* LTFB_GEMM_RESTRICT bias = ep.bias ? ep.bias + j0 : nullptr;
    switch (ep.act) {
      case EpilogueAct::Sigmoid:
        for (std::size_t j = 0; j < nb; ++j) {
          const float x = bias ? row[j] + bias[j] : row[j];
          row[j] = 1.0f / (1.0f + std::exp(-x));
        }
        break;
      case EpilogueAct::Tanh:
        for (std::size_t j = 0; j < nb; ++j) {
          const float x = bias ? row[j] + bias[j] : row[j];
          row[j] = std::tanh(x);
        }
        break;
      default: {
        const std::size_t vb = simd::main_loop_bound(nb);
        const vf slope = vf::broadcast(ep.leaky_slope);
        for (std::size_t j = 0; j < vb; j += kW) {
          vf x = vf::load(row + j);
          if (bias) x += vf::load(bias + j);
          if (ep.act == EpilogueAct::Relu) {
            x = vf::select_gt_zero(x, x, vf::zero());
          } else if (ep.act == EpilogueAct::LeakyRelu) {
            x = vf::select_gt_zero(x, x, x * slope);
          }
          x.store(row + j);
        }
        for (std::size_t j = vb; j < nb; ++j) {
          float x = bias ? row[j] + bias[j] : row[j];
          if (ep.act == EpilogueAct::Relu) {
            x = x > 0.0f ? x : 0.0f;
          } else if (ep.act == EpilogueAct::LeakyRelu) {
            x = x > 0.0f ? x : ep.leaky_slope * x;
          }
          row[j] = x;
        }
      }
    }
  }
}

}  // namespace

void gemm(Op op_a, Op op_b, float alpha, const Tensor& a, const Tensor& b,
          float beta, Tensor& c) {
  gemm(op_a, op_b, alpha, a, b, beta, c, Epilogue{});
}

void gemm(Op op_a, Op op_b, float alpha, const Tensor& a, const Tensor& b,
          float beta, Tensor& c, const Epilogue& epilogue) {
  const auto [m, n, k] = check_dims(op_a, op_b, a, b, c);

  const bool timed = telemetry::enabled();
  const std::uint64_t start_ns = timed ? telemetry::now_ns() : 0;

  // Scale C by beta once up front (through the shared elementwise layer,
  // which is itself pool-parallel for large C).
  float* cp = c.raw();
  if (beta == 0.0f) {
    std::fill_n(cp, m * n, 0.0f);
  } else if (beta != 1.0f) {
    scale(beta, std::span<float>(cp, m * n));
  }
  if (alpha == 0.0f || m == 0 || n == 0 || k == 0) {
    // The multiply degenerates but the contract is gemm-then-epilogue:
    // the epilogue still transforms the beta-scaled C.
    if (!epilogue.empty() && m > 0 && n > 0) {
      apply_epilogue(cp, n, 0, m, 0, n, epilogue);
    }
    return;
  }

  const std::size_t i_blocks = (m + kBlockM - 1) / kBlockM;
  const std::size_t j_blocks = (n + kBlockN - 1) / kBlockN;

  // One task per C macro-block. The k0 loop runs sequentially INSIDE the
  // task, so each C element accumulates its k terms in one fixed order —
  // the deterministic block-to-accumulator mapping that makes output
  // bit-identical across runs and pool sizes.
  auto block_task = [&, m = m, n = n, k = k](std::size_t t) {
    const std::size_t i0 = (t / j_blocks) * kBlockM;
    const std::size_t j0 = (t % j_blocks) * kBlockN;
    const std::size_t mb = std::min(kBlockM, m - i0);
    const std::size_t nb = std::min(kBlockN, n - j0);
    float* const abuf = tl_abuf.data();
    float* const bbuf = tl_bbuf.data();
    for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
      const std::size_t kb = std::min(kBlockK, k - k0);
      pack_a(op_a, a, alpha, i0, mb, k0, kb, abuf);
      pack_b(op_b, b, k0, kb, j0, nb, bbuf);
      macro_kernel(abuf, bbuf, mb, nb, kb, cp + i0 * n + j0, n);
    }
    // Fused epilogue: the macro-block's rows are still hot in cache here,
    // so bias + activation cost one read-modify-write instead of the extra
    // full passes separate layers would make.
    if (!epilogue.empty()) {
      apply_epilogue(cp, n, i0, mb, j0, nb, epilogue);
    }
  };

  const std::size_t tasks = i_blocks * j_blocks;
  if (m * n * k < kParallelMnkThreshold || tasks == 1) {
    // Small GEMM: skip pool dispatch entirely; identical per-task work.
    for (std::size_t t = 0; t < tasks; ++t) block_task(t);
  } else {
    util::ComputePool::instance().run_tasks(tasks, block_task);
  }

  if (timed) {
    const double seconds =
        static_cast<double>(telemetry::now_ns() - start_ns) * 1e-9;
    LTFB_TIMER_RECORD("tensor/gemm", seconds);
    if (seconds > 0.0) {
      LTFB_GAUGE_SET("tensor/gemm_gflops",
                     gemm_flops(m, n, k) / seconds / 1e9);
    }
  }
}

void matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  gemm(Op::None, Op::None, 1.0f, a, b, 0.0f, c);
}

void gemm_reference(Op op_a, Op op_b, float alpha, const Tensor& a,
                    const Tensor& b, float beta, Tensor& c) {
  const auto [m, n, k] = check_dims(op_a, op_b, a, b, c);
  auto get_a = [&](std::size_t i, std::size_t kk) {
    return op_a == Op::None ? a.at(i, kk) : a.at(kk, i);
  };
  auto get_b = [&](std::size_t kk, std::size_t j) {
    return op_b == Op::None ? b.at(kk, j) : b.at(j, kk);
  };
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(get_a(i, kk)) *
               static_cast<double>(get_b(kk, j));
      }
      c.at(i, j) = alpha * static_cast<float>(acc) + beta * c.at(i, j);
    }
  }
}

}  // namespace ltfb::tensor
