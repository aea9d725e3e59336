// The paper's quality functions (§4.1, eqs. 1-5).
//
//   F_Ai (eq. 1): quadratic sum of intracluster equivalent distances.
//   F_G  (eq. 2): mean squared intracluster distance, normalized by the
//                 network-wide mean squared distance. F_G ≈ 1 for a random
//                 mapping; F_G → 0 for tightly packed clusters.
//   D_Ai (eq. 4): quadratic sum of distances from a cluster to all others.
//   D_G  (eq. 5): mean squared intercluster distance, same normalization.
//   C_c = D_G / F_G: the clustering coefficient — the intracluster /
//                 intercluster bandwidth relationship the scheduler maximizes.
#pragma once

#include <vector>

#include "distance/distance_table.h"
#include "quality/partition.h"

namespace commsched::qual {

using dist::DistanceTable;

/// Eq. (1): F_Ai for one cluster.
[[nodiscard]] double ClusterSimilarity(const DistanceTable& table, const Partition& partition,
                                       std::size_t cluster);

/// Eq. (4): D_Ai for one cluster.
[[nodiscard]] double ClusterDissimilarity(const DistanceTable& table, const Partition& partition,
                                          std::size_t cluster);

/// Eq. (2): F_G. Requires at least one cluster with >= 2 switches.
[[nodiscard]] double GlobalSimilarity(const DistanceTable& table, const Partition& partition);

/// Eq. (5): D_G. Requires at least two clusters.
[[nodiscard]] double GlobalDissimilarity(const DistanceTable& table, const Partition& partition);

/// C_c = D_G / F_G.
[[nodiscard]] double ClusteringCoefficient(const DistanceTable& table, const Partition& partition);

class WeightMatrix;  // quality/weighted.h

/// Incremental evaluator for swap-based search, for F_G and its weighted
/// forms (quality/weighted.h). An intracluster pair (i, j) of cluster c
/// counts with weight λ_c·W_ij: per-cluster intensities λ (default all 1)
/// times an optional pair weight matrix W (default all 1). It keeps
///
///   wsq = Σ_intra λ·W·T²    w = Σ_intra λ·W
///
/// so that a candidate swap costs O(N) and
///   F_G = (wsq / w) / (Σ_all W·T² / Σ_all W)
/// is O(1). With λ ≡ 1 and no W every weight multiply is by exactly 1.0, so
/// the values are bit-identical to plain F_G (eq. 2); λ alone gives F_G^λ,
/// W alone F_G^w.
///
/// D_G uses the intercluster remainder: Σ_inter = Σ_all − Σ_intra, with
/// the ordered count twice the unordered one. Intensities only weight
/// intracluster pairs, so D_G and C_c require λ ≡ 1.
class SwapEvaluator {
 public:
  /// `table` (and `weights`, if given) must outlive this. An empty
  /// `cluster_intensity` means all 1; otherwise one non-negative entry per
  /// cluster.
  SwapEvaluator(const DistanceTable& table, Partition partition,
                std::vector<double> cluster_intensity = {}, const WeightMatrix* weights = nullptr);

  [[nodiscard]] const Partition& partition() const { return partition_; }
  [[nodiscard]] const DistanceTable& table() const { return *table_; }
  [[nodiscard]] const std::vector<double>& intensity() const { return intensity_; }

  /// Current weighted intracluster quadratic sum (Σ λ_c F_Ac when W is absent).
  [[nodiscard]] double IntraSum() const { return intra_.wsq; }

  [[nodiscard]] double Fg() const;
  [[nodiscard]] double Dg() const;
  [[nodiscard]] double Cc() const;

  /// Change of IntraSum() if switches a and b (in different clusters) were
  /// exchanged. Without W the intracluster weight is swap-invariant, so F_G
  /// is affine in this delta and ordering moves by it orders them by F_G.
  [[nodiscard]] double SwapDelta(std::size_t a, std::size_t b) const;

  /// F_G that would result from applying delta to the current intra sum at
  /// the current intra weight.
  [[nodiscard]] double FgAfterDelta(double delta) const;

  /// F_G after exchanging a and b, moving the intra weight too (the only
  /// exact form when W is present).
  [[nodiscard]] double FgAfterSwap(std::size_t a, std::size_t b) const;

  /// Applies the swap and updates the running sums in O(N).
  void ApplySwap(std::size_t a, std::size_t b);

  /// Replaces the partition (full O(N^2) recompute).
  void Reset(Partition partition);

 private:
  struct Sums {
    double wsq = 0.0;  // Σ λ·W·T²
    double w = 0.0;    // Σ λ·W
  };
  template <bool kWeighted>
  [[nodiscard]] Sums SwapSums(std::size_t a, std::size_t b) const;
  [[nodiscard]] Sums SwapDeltas(std::size_t a, std::size_t b) const;
  void Recompute();
  [[nodiscard]] double FgOf(const Sums& sums) const;

  const DistanceTable* table_;
  const WeightMatrix* weights_;
  Partition partition_;
  std::vector<double> intensity_;
  bool unit_intensity_ = true;
  Sums intra_;
  Sums all_;           // over every unordered pair, W only
  double norm_ = 0.0;  // Σ_all W·T² / Σ_all W: eqs. (2)/(5)'s mean squared distance
};

}  // namespace commsched::qual
