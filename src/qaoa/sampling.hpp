// Measurement sampling and the paper's approximation-ratio numerator.
//
// Eq. 3 defines r = <C_max> / C_classical where <C_max> is "the expected
// energy of the largest cut discovered by the given quantum circuit": run the
// circuit, measure `shots` bitstrings, keep the best cut among them; the
// expectation is over repetitions of that procedure. We estimate it by Monte
// Carlo over `trials` independent shot batches sampled from the exact output
// distribution (the statevector gives us the exact distribution, so no
// finite-shot bias beyond the intended max-of-shots statistic).
//
// Every statevector draw here is one rng.uniform() per shot, resolved by
// sim::sample_basis_states (which defines the draw). All shots*trials
// uniforms are drawn first and resolved in one batch.
#pragma once

#include <cstddef>
#include <span>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "qaoa/hamiltonian.hpp"
#include "query/sampler.hpp"
#include "sim/statevector.hpp"

namespace qarch::qaoa {

/// Cut value of basis state `basis_index` on g.
double cut_of_basis_state(const graph::Graph& g, std::size_t basis_index);

/// Monte-Carlo estimate of <C_max>: mean over `trials` batches of the best
/// cut among `shots` samples of `state` (a batch's first sample's cut when
/// every cut is negative), drawn as ONE batch of shots*trials uniforms
/// chunked per trial. With trials = 1 it is the best of `shots` samples.
double expected_best_cut(const sim::State& state, const graph::Graph& g,
                         std::size_t shots, std::size_t trials, Rng& rng);

/// The same estimate for the circuit run from |+>^n with `theta`: the state
/// comes from a one-shot sim::SimProgram compiled without phase tables
/// (building one does not pay for a single replay). search::Evaluator
/// scores through a program compiled with its energy evaluator's
/// sim::PhaseTableCache instead, whose cost-layer table every candidate of
/// the graph shares.
double expected_best_cut(const circuit::Circuit& ansatz,
                         std::span<const double> theta, const graph::Graph& g,
                         std::size_t shots, std::size_t trials, Rng& rng);

/// Generalized-Hamiltonian, engine-agnostic form of the same statistic:
/// mean over `trials` of the best classical_value_bits among `shots`
/// samples drawn by a compiled query::Sampler (statevector or direct
/// tensor-network sampling), as one stream of shots*trials draws chunked
/// per trial.
double expected_best_value(const query::Sampler& sampler,
                           std::span<const double> theta,
                           const Hamiltonian& ham, std::size_t shots,
                           std::size_t trials, Rng& rng);

}  // namespace qarch::qaoa
