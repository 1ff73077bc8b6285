#pragma once
/// \file simd.hpp
/// \brief Vectorisation helpers for the bandwidth-bound `la` hot kernels.
///
/// The sparse and dense hot paths (SpMV, band and triangular sweeps,
/// axpy/dot/norm) are memory-bound: the win from explicit vectorisation is
/// that the compiler emits one wide load/FMA stream per cache line instead of
/// falling back to scalar code whenever it cannot prove two pointers do not
/// alias or that a floating-point reduction may be reassociated. Two tools
/// fix that:
///
///  * `UPDEC_RESTRICT` — promises no aliasing between the annotated raw
///    pointers inside one kernel, so loads can be hoisted and stores
///    vectorised;
///  * `UPDEC_PRAGMA_SIMD` / `UPDEC_PRAGMA_SIMD_REDUCTION(...)` — the OpenMP
///    `simd` pragma, which explicitly licenses vector execution (including
///    reduction reassociation, which strict IEEE ordering otherwise forbids
///    at -O2/-O3 without -ffast-math).
///
/// Determinism contract: a `simd` reduction changes the *rounding* of a sum
/// relative to the scalar loop, but the result is still a deterministic
/// function of the input for a given binary — the same build produces
/// bit-identical results run to run and across OpenMP team sizes, which is
/// what the `threaded_vs_serial` oracle checks. Cross-build (SIMD vs
/// non-SIMD) agreement is only ever to solver tolerance, exactly like the
/// pre-existing OpenMP-vs-serial situation.
///
/// The pragmas compile away entirely when OpenMP is absent
/// (`UPDEC_HAVE_OPENMP` undefined); GCC/Clang also honour them under
/// `-fopenmp-simd` without threading runtime support.

#if defined(__GNUC__) || defined(__clang__)
#define UPDEC_RESTRICT __restrict__
#else
#define UPDEC_RESTRICT
#endif

#ifdef UPDEC_HAVE_OPENMP
/// Vectorise the following loop (no reduction).
#define UPDEC_PRAGMA_SIMD _Pragma("omp simd")
/// Vectorise the following reduction loop; `clause` is the full OpenMP
/// clause list, e.g. UPDEC_PRAGMA_SIMD_REDUCTION(+ : s).
#define UPDEC_PRAGMA_SIMD_REDUCTION(...) \
  UPDEC_PRAGMA_SIMD_REDUCTION_IMPL(omp simd reduction(__VA_ARGS__))
#define UPDEC_PRAGMA_SIMD_REDUCTION_IMPL(x) _Pragma(#x)
#else
#define UPDEC_PRAGMA_SIMD
#define UPDEC_PRAGMA_SIMD_REDUCTION(...)
#endif
