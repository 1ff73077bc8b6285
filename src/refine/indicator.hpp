#pragma once
/// \file indicator.hpp
/// \brief Nodal a-posteriori error indicators for the Laplace boundary
///        control problem: adjoint-weighted residuals in the
///        dual-weighted-residual (DWR) tradition.
///
/// The tracked cost J integrates the top-wall flux, and the DAL loop already
/// computes the adjoint lambda of exactly that functional -- so the nodal
/// contribution of discretisation error to J is estimated as
///
///   eta_i = |lambda_i| * |(L_+ u)_i - f_i| * h_i^2        (interior nodes)
///   eta_i = 0                                             (boundary nodes)
///
/// where u is the converged discrete state, L_+ an ENRICHED RBF-FD
/// Laplacian (larger stencil, higher appended degree) over the same cloud,
/// f = 0 the interior source, and h_i the local spacing. The primal
/// operator's own residual of its own solution is solver round-off by
/// construction; only an enriched operator sees the discretisation error.
/// The h^2 factor is the nodal quadrature volume: it makes eta an error
/// *contribution*, so already-refined regions self-limit. Boundary rows
/// carry boundary conditions, not the PDE, and their nodes are protected
/// from refinement anyway (the control DOF layout must survive adaptation).

#include "la/dense.hpp"
#include "pde/laplace.hpp"

namespace updec::refine {

/// Enrichment of the primal stencil used for the residual probe.
struct IndicatorConfig {
  std::size_t extra_stencil = 6;  ///< added neighbours over the primal k
  int extra_degree = 1;           ///< added appended-polynomial degree
};

/// eta over all cloud nodes (canonical order), as defined above. `state`
/// and `adjoint` are nodal fields of solver.cloud() -- the pair the
/// control::AdjointObserver hook on the sparse DAL strategy hands out.
[[nodiscard]] la::Vector adjoint_weighted_residual(
    const pde::LaplaceFdSolver& solver, const la::Vector& state,
    const la::Vector& adjoint, const IndicatorConfig& config = {});

}  // namespace updec::refine
