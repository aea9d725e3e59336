#include "quality/weighted.h"

#include "quality/quality.h"

namespace commsched::qual {

WeightMatrix::WeightMatrix(std::size_t n, double fill) : n_(n), values_(n * n, fill) {
  CS_CHECK(fill >= 0.0, "weights are non-negative");
  for (std::size_t i = 0; i < n; ++i) {
    values_[i * n + i] = 0.0;
  }
}

void WeightMatrix::Set(std::size_t i, std::size_t j, double weight) {
  CS_CHECK(i < n_ && j < n_, "weight index out of range");
  CS_CHECK(i != j || weight == 0.0, "diagonal weights must stay zero");
  CS_CHECK(weight >= 0.0, "weights are non-negative");
  values_[i * n_ + j] = weight;
  values_[j * n_ + i] = weight;
}

double WeightMatrix::TotalWeight() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = i + 1; j < n_; ++j) {
      sum += values_[i * n_ + j];
    }
  }
  return sum;
}

void WeightMatrix::Normalize() {
  const double total = TotalWeight();
  CS_CHECK(total > 0.0, "cannot normalize an all-zero weight matrix");
  const double pairs = static_cast<double>(n_) * (n_ - 1) / 2.0;
  const double scale = pairs / total;
  for (double& v : values_) v *= scale;
}

namespace {

struct PairSums {
  double intra_wsq = 0.0;
  double intra_w = 0.0;
  double all_wsq = 0.0;
  double all_w = 0.0;
};

PairSums Accumulate(const DistanceTable& table, const WeightMatrix& weights,
                    const Partition& partition) {
  CS_CHECK(table.size() == weights.size(), "table / weights size mismatch");
  CS_CHECK(table.size() == partition.switch_count(), "table / partition size mismatch");
  PairSums sums;
  const std::size_t n = table.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double w = weights(i, j);
      const double wsq = w * table(i, j) * table(i, j);
      sums.all_w += w;
      sums.all_wsq += wsq;
      if (partition.ClusterOf(i) == partition.ClusterOf(j)) {
        sums.intra_w += w;
        sums.intra_wsq += wsq;
      }
    }
  }
  return sums;
}

}  // namespace

double WeightedGlobalSimilarity(const DistanceTable& table, const WeightMatrix& weights,
                                const Partition& partition) {
  const PairSums sums = Accumulate(table, weights, partition);
  CS_CHECK(sums.intra_w > 0.0, "no intracluster communication weight");
  CS_CHECK(sums.all_w > 0.0, "all-zero weight matrix");
  return (sums.intra_wsq / sums.intra_w) / (sums.all_wsq / sums.all_w);
}

double WeightedGlobalDissimilarity(const DistanceTable& table, const WeightMatrix& weights,
                                   const Partition& partition) {
  const PairSums sums = Accumulate(table, weights, partition);
  const double inter_w = sums.all_w - sums.intra_w;
  const double inter_wsq = sums.all_wsq - sums.intra_wsq;
  CS_CHECK(inter_w > 0.0, "no intercluster communication weight");
  CS_CHECK(sums.all_w > 0.0, "all-zero weight matrix");
  return (inter_wsq / inter_w) / (sums.all_wsq / sums.all_w);
}

double WeightedClusteringCoefficient(const DistanceTable& table, const WeightMatrix& weights,
                                     const Partition& partition) {
  const double fg = WeightedGlobalSimilarity(table, weights, partition);
  CS_CHECK(fg > 0.0, "degenerate weighted F_G");
  return WeightedGlobalDissimilarity(table, weights, partition) / fg;
}

double IntensityGlobalSimilarity(const DistanceTable& table, const Partition& partition,
                                 const std::vector<double>& cluster_intensity) {
  CS_CHECK(table.size() == partition.switch_count(), "table / partition size mismatch");
  CS_CHECK(cluster_intensity.size() == partition.cluster_count(),
           "one intensity per cluster required");
  double weighted_sum = 0.0;
  double weighted_pairs = 0.0;
  for (std::size_t c = 0; c < partition.cluster_count(); ++c) {
    CS_CHECK(cluster_intensity[c] >= 0.0, "intensities are non-negative");
    weighted_sum += cluster_intensity[c] * ClusterSimilarity(table, partition, c);
    const double size = static_cast<double>(partition.ClusterSize(c));
    weighted_pairs += cluster_intensity[c] * size * (size - 1) / 2.0;
  }
  CS_CHECK(weighted_pairs > 0.0, "no weighted intracluster pairs");
  return (weighted_sum / weighted_pairs) / table.MeanSquaredDistance();
}

}  // namespace commsched::qual
