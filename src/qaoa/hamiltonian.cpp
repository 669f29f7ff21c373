#include "qaoa/hamiltonian.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/error.hpp"
#include "qtensor/ordering.hpp"

namespace qarch::qaoa {

HamiltonianKind hamiltonian_kind_from_name(const std::string& name) {
  if (name == "maxcut") return HamiltonianKind::MaxCut;
  if (name == "mis") return HamiltonianKind::MIS;
  if (name == "ising") return HamiltonianKind::Ising;
  throw InvalidArgument("unknown hamiltonian kind: " + name);
}

std::string hamiltonian_kind_name(HamiltonianKind kind) {
  switch (kind) {
    case HamiltonianKind::MaxCut: return "maxcut";
    case HamiltonianKind::MIS: return "mis";
    case HamiltonianKind::Ising: return "ising";
  }
  throw InvalidArgument("invalid HamiltonianKind");
}

Hamiltonian::Hamiltonian(const graph::Graph& g)
    : num_qubits_(g.num_vertices()) {
  terms_.reserve(g.num_edges());
  for (const auto& e : g.edges()) {
    constant_ += e.weight / 2.0;
    terms_.push_back(ZZTerm{e.u, e.v, -e.weight / 2.0});
  }
}

Hamiltonian Hamiltonian::maxcut(const graph::Graph& g) {
  return Hamiltonian(g);
}

Hamiltonian Hamiltonian::mis(const graph::Graph& g, double penalty) {
  QARCH_REQUIRE(penalty > 0.0, "MIS penalty must be positive");
  Hamiltonian h;
  h.kind_ = HamiltonianKind::MIS;
  h.num_qubits_ = g.num_vertices();
  // Σ_i x_i = n/2 - Σ_i z_i/2 with x = (1-z)/2.
  h.constant_ = static_cast<double>(g.num_vertices()) / 2.0;
  std::vector<double> field(g.num_vertices(), -0.5);
  // penalty * x_u x_v = penalty/4 * (1 - z_u - z_v + z_u z_v).
  h.terms_.reserve(g.num_edges());
  for (const auto& e : g.edges()) {
    const double c = penalty * e.weight / 4.0;
    h.constant_ -= c;
    field[e.u] += c;
    field[e.v] += c;
    h.terms_.push_back(ZZTerm{e.u, e.v, -c});
  }
  for (std::size_t q = 0; q < field.size(); ++q)
    if (field[q] != 0.0) h.z_terms_.push_back(ZTerm{q, field[q]});
  return h;
}

Hamiltonian Hamiltonian::ising(const graph::Graph& g, double coupling,
                               double field) {
  Hamiltonian h;
  h.kind_ = HamiltonianKind::Ising;
  h.num_qubits_ = g.num_vertices();
  h.terms_.reserve(g.num_edges());
  for (const auto& e : g.edges())
    h.terms_.push_back(ZZTerm{e.u, e.v, -coupling * e.weight});
  if (field != 0.0)
    for (std::size_t q = 0; q < g.num_vertices(); ++q)
      h.z_terms_.push_back(ZTerm{q, -field});
  return h;
}

double Hamiltonian::energy(const std::vector<double>& zz_expectations,
                           const std::vector<double>& z_expectations) const {
  QARCH_REQUIRE(zz_expectations.size() == terms_.size(),
                "expectation count mismatch");
  QARCH_REQUIRE(z_expectations.size() == z_terms_.size() ||
                    (z_terms_.empty() && z_expectations.empty()),
                "field expectation count mismatch");
  double e = constant_;
  for (std::size_t k = 0; k < terms_.size(); ++k)
    e += terms_[k].coefficient * zz_expectations[k];
  for (std::size_t k = 0; k < z_terms_.size(); ++k)
    e += z_terms_[k].coefficient * z_expectations[k];
  return e;
}

double Hamiltonian::classical_value(const std::vector<int>& z) const {
  QARCH_REQUIRE(z.size() == num_qubits_, "assignment size mismatch");
  double e = constant_;
  for (const ZZTerm& t : terms_) {
    QARCH_REQUIRE(z[t.u] == 1 || z[t.u] == -1, "assignment must be ±1");
    e += t.coefficient * static_cast<double>(z[t.u] * z[t.v]);
  }
  for (const ZTerm& t : z_terms_) {
    QARCH_REQUIRE(z[t.q] == 1 || z[t.q] == -1, "assignment must be ±1");
    e += t.coefficient * static_cast<double>(z[t.q]);
  }
  return e;
}

double Hamiltonian::classical_value_bits(std::size_t basis_index) const {
  double e = constant_;
  for (const ZZTerm& t : terms_) {
    const int zu = ((basis_index >> t.u) & 1ULL) != 0 ? -1 : 1;
    const int zv = ((basis_index >> t.v) & 1ULL) != 0 ? -1 : 1;
    e += t.coefficient * static_cast<double>(zu * zv);
  }
  for (const ZTerm& t : z_terms_) {
    const int zq = ((basis_index >> t.q) & 1ULL) != 0 ? -1 : 1;
    e += t.coefficient * static_cast<double>(zq);
  }
  return e;
}

namespace {

/// One (max, +) factor: table[x] for x over `scope`, where bit k of x is
/// the basis bit of qubit scope[k] (bit b is z = 1 - 2b).
struct MaxPlusFactor {
  std::vector<std::size_t> scope;
  std::vector<double> table;
};

/// One elimination: `var` is maximized out of the sum of `factors`,
/// giving a message over `scope` (the bucket's other qubits, ascending).
/// choice[x] records the var bit that attains the maximum at x.
struct MaxPlusBucket {
  std::size_t var = 0;
  std::vector<std::size_t> factors;
  std::vector<std::size_t> scope;
  std::vector<std::uint64_t> choice;  ///< one bit per message entry
};

/// Fills bucket.choice and returns the message: for each x over
/// bucket.scope, the larger of the factor sums at var = 0 and var = 1.
/// Odometer walk as in the tensor-network kernels: incrementing x sets bit
/// t = countr_zero(x) and clears the bits below it, so each factor's flat
/// index moves by a per-(factor, t) delta.
std::vector<double> eliminate(MaxPlusBucket& bucket,
                              const std::vector<MaxPlusFactor>& factors) {
  const std::size_t rank = bucket.scope.size();
  const std::size_t num_factors = bucket.factors.size();
  std::vector<const double*> table(num_factors);
  std::vector<std::size_t> idx(num_factors, 0), var_stride(num_factors, 0);
  std::vector<std::ptrdiff_t> delta(num_factors * rank);
  for (std::size_t f = 0; f < num_factors; ++f) {
    const MaxPlusFactor& factor = factors[bucket.factors[f]];
    table[f] = factor.table.data();
    std::ptrdiff_t below = 0;  // stride sum of the scope bits below t
    for (std::size_t t = 0; t < rank; ++t) {
      std::ptrdiff_t stride = 0;
      for (std::size_t k = 0; k < factor.scope.size(); ++k)
        if (factor.scope[k] == bucket.scope[t])
          stride = std::ptrdiff_t{1} << k;
      delta[f * rank + t] = stride - below;
      below += stride;
    }
    for (std::size_t k = 0; k < factor.scope.size(); ++k)
      if (factor.scope[k] == bucket.var) var_stride[f] = std::size_t{1} << k;
  }
  const std::size_t end = std::size_t{1} << rank;
  std::vector<double> message(end);
  bucket.choice.assign((end + 63) / 64, 0);
  for (std::size_t x = 0;;) {
    double lo = 0.0, hi = 0.0;
    for (std::size_t f = 0; f < num_factors; ++f) {
      lo += table[f][idx[f]];
      hi += table[f][idx[f] + var_stride[f]];
    }
    message[x] = std::max(lo, hi);
    if (hi > lo) bucket.choice[x / 64] |= std::uint64_t{1} << (x % 64);
    if (++x == end) break;
    const auto t = static_cast<std::size_t>(std::countr_zero(x));
    for (std::size_t f = 0; f < num_factors; ++f)
      idx[f] = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(idx[f]) + delta[f * rank + t]);
  }
  return message;
}

}  // namespace

double classical_maximum(const Hamiltonian& ham) {
  const std::size_t n = ham.num_qubits();
  std::vector<MaxPlusFactor> factors;
  for (const ZZTerm& t : ham.terms()) {
    const double c = t.coefficient;
    factors.push_back({{t.u, t.v}, {c, -c, -c, c}});
  }
  for (const ZTerm& t : ham.z_terms())
    factors.push_back({{t.q}, {t.coefficient, -t.coefficient}});
  // qtensor's elimination-order heuristic reads the same label structure
  // as a tensor network: one tensor per factor.
  qtensor::TensorNetwork net;
  net.num_vars = n;
  for (const MaxPlusFactor& f : factors)
    net.tensors.emplace_back(f.scope,
                             std::vector<qtensor::cplx>(f.table.size()));

  // Symbolic pass: every bucket's factors and scope, so the width is known
  // before any message is allocated. A message joins the factor list as
  // the next factor.
  std::vector<MaxPlusBucket> buckets;
  std::vector<bool> live(factors.size(), true);
  for (std::size_t var : qtensor::order_greedy_fill(net)) {
    MaxPlusBucket bucket;
    bucket.var = var;
    std::set<std::size_t> scope;
    for (std::size_t i = 0; i < factors.size(); ++i) {
      const auto& fs = factors[i].scope;
      if (!live[i] || std::find(fs.begin(), fs.end(), var) == fs.end())
        continue;
      bucket.factors.push_back(i);
      live[i] = false;
      scope.insert(fs.begin(), fs.end());
    }
    QARCH_REQUIRE(scope.size() <= kMaxBucketVars,
                  "classical_maximum: elimination width " +
                      std::to_string(scope.size()) + " exceeds " +
                      std::to_string(kMaxBucketVars) + " variables");
    scope.erase(var);
    bucket.scope.assign(scope.begin(), scope.end());
    factors.push_back({bucket.scope, {}});
    live.push_back(true);
    buckets.push_back(std::move(bucket));
  }

  // Numeric pass, freeing each factor once its bucket has consumed it.
  std::size_t message = factors.size() - buckets.size();
  for (MaxPlusBucket& bucket : buckets) {
    factors[message++].table = eliminate(bucket, factors);
    for (std::size_t i : bucket.factors)
      std::vector<double>().swap(factors[i].table);
  }

  // Trace back: a bucket's scope holds only variables eliminated after it,
  // so in reverse order each choice reads bits already fixed. Qubits in no
  // term keep z = +1.
  std::vector<int> z(n, 1);
  for (auto b = buckets.rbegin(); b != buckets.rend(); ++b) {
    std::size_t x = 0;
    for (std::size_t k = 0; k < b->scope.size(); ++k)
      if (z[b->scope[k]] < 0) x |= std::size_t{1} << k;
    z[b->var] = ((b->choice[x / 64] >> (x % 64)) & 1) != 0 ? -1 : 1;
  }
  // The term-order sum: bit for bit the enumeration's value at z.
  return ham.classical_value(z);
}

Hamiltonian HamiltonianSpec::build(const graph::Graph& g) const {
  switch (kind) {
    case HamiltonianKind::MaxCut: return Hamiltonian::maxcut(g);
    case HamiltonianKind::MIS: return Hamiltonian::mis(g, penalty);
    case HamiltonianKind::Ising: return Hamiltonian::ising(g, coupling, field);
  }
  throw InvalidArgument("invalid HamiltonianKind");
}

namespace {

/// Shortest round-trippable rendering of a double (no trailing noise for the
/// common 2, 1.5 cases; %.17g keeps exotic values exact).
std::string format_param(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  if (std::strtod(buf, nullptr) == v) return buf;
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string HamiltonianSpec::tag() const {
  switch (kind) {
    case HamiltonianKind::MaxCut: return "maxcut";
    case HamiltonianKind::MIS: return "mis@" + format_param(penalty);
    case HamiltonianKind::Ising:
      return "ising@" + format_param(coupling) + "@" + format_param(field);
  }
  throw InvalidArgument("invalid HamiltonianKind");
}

HamiltonianSpec HamiltonianSpec::parse_tag(const std::string& tag) {
  HamiltonianSpec spec;
  const std::size_t at = tag.find('@');
  const std::string name = tag.substr(0, at);
  spec.kind = hamiltonian_kind_from_name(name);
  if (at == std::string::npos) return spec;
  const std::string rest = tag.substr(at + 1);
  const std::size_t at2 = rest.find('@');
  if (spec.kind == HamiltonianKind::MIS) {
    QARCH_REQUIRE(at2 == std::string::npos, "malformed mis tag: " + tag);
    spec.penalty = std::strtod(rest.c_str(), nullptr);
  } else if (spec.kind == HamiltonianKind::Ising) {
    spec.coupling = std::strtod(rest.substr(0, at2).c_str(), nullptr);
    if (at2 != std::string::npos)
      spec.field = std::strtod(rest.substr(at2 + 1).c_str(), nullptr);
  }
  return spec;
}

}  // namespace qarch::qaoa
