// Single-precision general matrix multiply.
//
// C = alpha * op(A) * op(B) + beta * C, with op in {identity, transpose}.
// The kernel is cache-blocked around a register-tiled vector micro-kernel;
// it is the workhorse behind every fully-connected layer in src/nn.
// Correctness is checked against a naive reference and, bit for bit,
// against a scalar model of the accumulation order below
// (tests/test_tensor.cpp); throughput is tracked in bench/micro_kernels.
#pragma once

#include "tensor/tensor.hpp"

namespace ltfb::tensor {

/// Accumulation order, fixed at every pool size and tiling: C is first
/// scaled by beta (zeroed when beta == 0), then each element C(i,j) takes
/// its k terms in consecutive blocks of kGemmBlockK. A block sums
/// (alpha * op(A)(i,kk)) * op(B)(kk,j) from zero in increasing kk with one
/// multiply-add each, and the block sum is added into C(i,j). Any epilogue
/// runs last. Only how M and N are tiled may change; the block length and
/// the k order may not, since they decide every rounding.
inline constexpr std::size_t kGemmBlockK = 128;

enum class Op { None, Transpose };

/// Activation applied by a fused gemm epilogue. Mirrors the activations the
/// nn layer zoo supports; lives at the tensor level so tensor never depends
/// on nn.
enum class EpilogueAct { None, Relu, LeakyRelu, Sigmoid, Tanh };

/// Post-gemm transform applied to each C macro-block while it is still hot
/// in cache: C(i,j) = act(C(i,j) + bias[j]). Saves the extra full passes
/// over activations that a separate bias-add + activation layer would make.
struct Epilogue {
  /// Per-column bias (length n, bias[j] added to every row); null = none.
  const float* bias = nullptr;
  EpilogueAct act = EpilogueAct::None;
  float leaky_slope = 0.01f;

  bool empty() const { return bias == nullptr && act == EpilogueAct::None; }
};

/// General matrix multiply on rank-2 tensors.
/// Shapes: op(A) is m x k, op(B) is k x n, C is m x n.
void gemm(Op op_a, Op op_b, float alpha, const Tensor& a, const Tensor& b,
          float beta, Tensor& c);

/// gemm with a fused epilogue: C = act(alpha*op(A)*op(B) + beta*C + bias).
/// The epilogue runs per macro-block on the still-hot C tile; it is applied
/// even when the multiply itself degenerates (alpha == 0 or k == 0), so the
/// result is always exactly gemm-then-epilogue.
void gemm(Op op_a, Op op_b, float alpha, const Tensor& a, const Tensor& b,
          float beta, Tensor& c, const Epilogue& epilogue);

/// Convenience: C = A * B (both untransposed), overwriting C.
void matmul(const Tensor& a, const Tensor& b, Tensor& c);

/// Naive triple-loop reference used by the test suite to validate the
/// blocked kernel.
void gemm_reference(Op op_a, Op op_b, float alpha, const Tensor& a,
                    const Tensor& b, float beta, Tensor& c);

/// FLOP count of a gemm with the given logical dimensions (2*m*n*k).
constexpr double gemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace ltfb::tensor
