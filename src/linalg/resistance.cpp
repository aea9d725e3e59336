#include "linalg/resistance.h"

#include <numeric>
#include <vector>

#include "linalg/solve.h"

namespace commsched::linalg {

ResistorNetwork::ResistorNetwork(std::size_t node_count) : node_count_(node_count) {
  CS_CHECK(node_count >= 1, "resistor network needs at least one node");
}

void ResistorNetwork::Add(std::size_t a, std::size_t b, double resistance) {
  CS_CHECK(a < node_count_ && b < node_count_, "resistor endpoint out of range");
  CS_CHECK(a != b, "self-loop resistor is meaningless");
  CS_CHECK(resistance > 0.0, "resistance must be positive");
  resistors_.push_back({a, b, resistance});
}

Matrix ResistorNetwork::Laplacian() const {
  Matrix l(node_count_, node_count_);
  for (const Resistor& r : resistors_) {
    const double g = 1.0 / r.resistance;
    l(r.a, r.a) += g;
    l(r.b, r.b) += g;
    l(r.a, r.b) -= g;
    l(r.b, r.a) -= g;
  }
  return l;
}

std::vector<bool> ResistorNetwork::ReachableFrom(std::size_t s) const {
  // Union-find over the resistors: one pass, one array.
  std::vector<std::size_t> parent(node_count_);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&parent](std::size_t u) {
    while (parent[u] != u) u = parent[u] = parent[parent[u]];
    return u;
  };
  for (const Resistor& r : resistors_) parent[find(r.a)] = find(r.b);
  const std::size_t root = find(s);
  std::vector<bool> reach(node_count_);
  for (std::size_t u = 0; u < node_count_; ++u) reach[u] = find(u) == root;
  return reach;
}

bool ResistorNetwork::Connected(std::size_t s, std::size_t t) const {
  CS_CHECK(s < node_count_ && t < node_count_, "node out of range");
  return s == t || ReachableFrom(s)[t];
}

double ResistorNetwork::EffectiveResistance(std::size_t s, std::size_t t) const {
  CS_CHECK(s < node_count_ && t < node_count_, "terminal out of range");
  if (s == t) return 0.0;
  const std::vector<bool> reach = ReachableFrom(s);
  CS_CHECK(reach[t], "terminals are not connected; resistance is infinite");

  // Ground node t and keep only the component of s: the unknowns are the
  // other reachable nodes in ascending order, which makes the grounded
  // Laplacian SPD. Assemble it directly from the resistors (each entry
  // accumulates its conductances in resistor order), so a network that
  // carries extra isolated nodes yields the same matrix, bit for bit.
  constexpr std::size_t kDropped = static_cast<std::size_t>(-1);
  std::vector<std::size_t> index(node_count_, kDropped);
  std::size_t order = 0;
  for (std::size_t u = 0; u < node_count_; ++u) {
    if (u != t && reach[u]) index[u] = order++;
  }
  Matrix grounded(order, order);
  for (const Resistor& r : resistors_) {
    if (!reach[r.a]) continue;  // outside the component of s
    const double g = 1.0 / r.resistance;
    const std::size_t a = index[r.a];
    const std::size_t b = index[r.b];
    if (a != kDropped) grounded(a, a) += g;
    if (b != kDropped) grounded(b, b) += g;
    if (a != kDropped && b != kDropped) {
      grounded(a, b) -= g;
      grounded(b, a) -= g;
    }
  }
  std::vector<double> rhs(order, 0.0);
  rhs[index[s]] = 1.0;

  auto chol = CholeskyFactorization::Compute(grounded);
  const std::vector<double> v =
      chol ? chol->Solve(rhs)
           : SolveLinearSystem(grounded, rhs);  // fallback (shouldn't happen for SPD)
  // v[s] is the potential at s with 1 A injected at s and extracted at the
  // grounded t, i.e. the effective resistance.
  return v[index[s]];
}

Matrix AllPairsEffectiveResistance(const ResistorNetwork& network) {
  const std::size_t n = network.node_count();
  Matrix result(n, n);
  if (n == 1) return result;
  for (std::size_t u = 1; u < n; ++u) {
    CS_CHECK(network.Connected(0, u), "AllPairsEffectiveResistance requires a connected network");
  }
  // Ground node 0; invert the reduced Laplacian by solving n-1 systems with
  // one Cholesky factorization.
  const Matrix l = network.Laplacian();
  Matrix lg(n - 1, n - 1);
  for (std::size_t r = 1; r < n; ++r) {
    for (std::size_t c = 1; c < n; ++c) {
      lg(r - 1, c - 1) = l(r, c);
    }
  }
  auto chol = CholeskyFactorization::Compute(lg);
  CS_CHECK(chol.has_value(), "grounded Laplacian must be SPD for a connected network");
  Matrix m(n, n);  // M = L^+-like matrix with ground row/col zero
  for (std::size_t c = 1; c < n; ++c) {
    std::vector<double> e(n - 1, 0.0);
    e[c - 1] = 1.0;
    const std::vector<double> col = chol->Solve(e);
    for (std::size_t r = 1; r < n; ++r) {
      m(r, c) = col[r - 1];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      result(i, j) = m(i, i) + m(j, j) - m(i, j) - m(j, i);
    }
  }
  return result;
}

}  // namespace commsched::linalg
