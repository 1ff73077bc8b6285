#pragma once
/// \file ops.hpp
/// Vector-valued tape operations with hand-written VJPs.
///
/// These are the equivalents of JAX's fused primitives: instead of recording
/// one scalar node per multiply-add, an SpMV or a dense linear solve records
/// a single custom operation whose backward pass is the textbook adjoint
/// identity. The linear-solve VJP (x = A^{-1} b  =>  b_bar = A^{-T} x_bar,
/// A_bar = -lambda x^T) is what makes the DP strategy tractable: gradients
/// traverse the solver at the cost of one transpose solve instead of
/// differentiating the factorisation itself.

#include <memory>
#include <vector>

#include "autodiff/var_math.hpp"
#include "la/lu.hpp"
#include "la/robust_solve.hpp"
#include "la/sparse.hpp"

namespace updec::ad {

/// A vector of tape scalars.
using VarVec = std::vector<Var>;

// ---- construction / extraction ----

/// Lift a numeric vector onto the tape as differentiable leaves.
VarVec make_variables(Tape& tape, const la::Vector& values);

/// Lift a numeric vector as constants (identical representation; named for
/// intent at call sites).
VarVec make_constants(Tape& tape, const la::Vector& values);

/// Forward values of a VarVec.
[[nodiscard]] la::Vector values(const VarVec& v);

/// Adjoints of a VarVec (after Tape::backward).
[[nodiscard]] la::Vector adjoints(const VarVec& v);

/// Detach every component (values flow, gradients do not).
[[nodiscard]] VarVec stop_gradient(const VarVec& v);

// ---- reductions ----

/// Sum of all components as one custom node.
Var sum(const VarVec& v);

/// Inner product of two tape vectors (snapshots both values for the VJP).
Var dot(const VarVec& a, const VarVec& b);

/// Inner product with a constant weight vector (e.g. quadrature weights).
Var dot(const VarVec& a, const la::Vector& w);

// ---- linear maps with constant operators ----
// The operator is captured by reference and MUST outlive the tape; PDE
// solvers own their differentiation matrices for the whole optimisation.

/// y = A x for a constant sparse A. VJP: x_bar += A^T y_bar.
VarVec spmv(const la::CsrMatrix& a, const VarVec& x);

/// y = A x for a constant dense A.
VarVec gemv(const la::Matrix& a, const VarVec& x);

/// x = A^{-1} b with a constant, pre-factored A.
/// VJP: b_bar += A^{-T} x_bar (one transpose solve).
VarVec solve(const la::LuFactorization& lu, const VarVec& b);

/// x = A^{-1} b through the operator's band LU (constant operator).
/// VJP: b_bar += A^{-T} x_bar, one solve_transpose on the same factors.
VarVec solve(const la::SparseFirstSolver& op, const VarVec& b);

// ---- linear solve with a differentiable matrix ----

/// x = A^{-1} b where the n*n entries of A (row-major in `a_flat`) are tape
/// variables. Factors A once at forward time and keeps the factorisation for
/// the VJP:  lambda = A^{-T} x_bar,  b_bar += lambda,  A_bar -= lambda x^T.
VarVec solve(const VarVec& a_flat, const VarVec& b);

// ---- elementwise helpers (scalar-node based) ----

VarVec add(const VarVec& a, const VarVec& b);
VarVec sub(const VarVec& a, const VarVec& b);
VarVec hadamard(const VarVec& a, const VarVec& b);
VarVec scale(double s, const VarVec& a);
/// a + s * b (the AD analogue of axpy).
VarVec add_scaled(const VarVec& a, double s, const VarVec& b);

}  // namespace updec::ad
