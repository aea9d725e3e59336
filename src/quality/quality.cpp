#include "quality/quality.h"

#include "quality/weighted.h"

namespace commsched::qual {

double ClusterSimilarity(const DistanceTable& table, const Partition& partition,
                         std::size_t cluster) {
  const auto members = partition.Members(cluster);
  double sum = 0.0;
  for (std::size_t k = 0; k < members.size(); ++k) {
    for (std::size_t j = k + 1; j < members.size(); ++j) {
      const double d = table(members[k], members[j]);
      sum += d * d;
    }
  }
  return sum;
}

double ClusterDissimilarity(const DistanceTable& table, const Partition& partition,
                            std::size_t cluster) {
  const auto members = partition.Members(cluster);
  double sum = 0.0;
  for (std::size_t member : members) {
    for (std::size_t other = 0; other < partition.switch_count(); ++other) {
      if (partition.ClusterOf(other) == cluster) continue;
      const double d = table(member, other);
      sum += d * d;
    }
  }
  return sum;
}

double GlobalSimilarity(const DistanceTable& table, const Partition& partition) {
  CS_CHECK(table.size() == partition.switch_count(), "table / partition size mismatch");
  const std::size_t intra_pairs = partition.IntraPairCount();
  CS_CHECK(intra_pairs > 0, "F_G needs at least one cluster with two switches");
  double intra_sum = 0.0;
  for (std::size_t c = 0; c < partition.cluster_count(); ++c) {
    intra_sum += ClusterSimilarity(table, partition, c);
  }
  return (intra_sum / static_cast<double>(intra_pairs)) / table.MeanSquaredDistance();
}

double GlobalDissimilarity(const DistanceTable& table, const Partition& partition) {
  CS_CHECK(table.size() == partition.switch_count(), "table / partition size mismatch");
  CS_CHECK(partition.cluster_count() >= 2, "D_G needs at least two clusters");
  double inter_sum = 0.0;
  for (std::size_t c = 0; c < partition.cluster_count(); ++c) {
    inter_sum += ClusterDissimilarity(table, partition, c);
  }
  const std::size_t inter_pairs = partition.InterPairCountOrdered();
  CS_CHECK(inter_pairs > 0, "no intercluster pairs");
  return (inter_sum / static_cast<double>(inter_pairs)) / table.MeanSquaredDistance();
}

double ClusteringCoefficient(const DistanceTable& table, const Partition& partition) {
  const double fg = GlobalSimilarity(table, partition);
  CS_CHECK(fg > 0.0, "degenerate F_G (all intracluster distances zero)");
  return GlobalDissimilarity(table, partition) / fg;
}

SwapEvaluator::SwapEvaluator(const DistanceTable& table, Partition partition,
                             std::vector<double> cluster_intensity, const WeightMatrix* weights)
    : table_(&table),
      weights_(weights),
      partition_(std::move(partition)),
      intensity_(std::move(cluster_intensity)) {
  CS_CHECK(table.size() == partition_.switch_count(), "table / partition size mismatch");
  CS_CHECK(weights_ == nullptr || weights_->size() == table.size(),
           "table / weights size mismatch");
  CS_CHECK(partition_.IntraPairCount() > 0, "evaluator needs a cluster with two switches");
  CS_CHECK(partition_.cluster_count() >= 2, "evaluator needs at least two clusters");
  if (intensity_.empty()) intensity_.assign(partition_.cluster_count(), 1.0);
  CS_CHECK(intensity_.size() == partition_.cluster_count(), "one intensity per cluster");
  for (const double lambda : intensity_) {
    CS_CHECK(lambda >= 0.0, "intensities are non-negative");
    unit_intensity_ = unit_intensity_ && lambda == 1.0;
  }
  Recompute();
  CS_CHECK(all_.w > 0.0, "all-zero weight matrix");
  norm_ = all_.wsq / all_.w;
}

void SwapEvaluator::Recompute() {
  intra_ = {};
  all_ = {};
  const std::size_t n = partition_.switch_count();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = (*table_)(i, j);
      const double pair_w = weights_ != nullptr ? (*weights_)(i, j) : 1.0;
      all_.wsq += pair_w * d * d;
      all_.w += pair_w;
      const std::size_t c = partition_.ClusterOf(i);
      if (c != partition_.ClusterOf(j)) continue;
      const double intra_w = intensity_[c] * pair_w;
      intra_.wsq += intra_w * d * d;
      intra_.w += intra_w;
    }
  }
}

double SwapEvaluator::FgOf(const Sums& sums) const {
  CS_CHECK(sums.w > 0.0, "no intracluster communication weight");
  return (sums.wsq / sums.w) / norm_;
}

double SwapEvaluator::Fg() const { return FgOf(intra_); }

double SwapEvaluator::Dg() const {
  CS_CHECK(unit_intensity_, "D_G is defined for unit intensities only");
  const double inter_w = all_.w - intra_.w;
  CS_CHECK(inter_w > 0.0, "no intercluster communication weight");
  return ((all_.wsq - intra_.wsq) / inter_w) / norm_;
}

double SwapEvaluator::Cc() const {
  const double fg = Fg();
  CS_CHECK(fg > 0.0, "degenerate F_G");
  return Dg() / fg;
}

template <bool kWeighted>
SwapEvaluator::Sums SwapEvaluator::SwapSums(std::size_t a, std::size_t b) const {
  const std::size_t n = partition_.switch_count();
  CS_CHECK(a < n && b < n, "switch out of range");
  const std::size_t ca = partition_.ClusterOf(a);
  const std::size_t cb = partition_.ClusterOf(b);
  CS_CHECK(ca != cb, "SwapDelta requires switches in different clusters");
  const double lambda_a = intensity_[ca];
  const double lambda_b = intensity_[cb];
  // a leaves ca (remove its intra terms), b joins ca in its place; likewise
  // for b/cb. The (a,b) pair itself stays intercluster on both sides. Terms
  // accumulate in switch order into one sum: the goldens pin that order.
  const std::vector<std::size_t>& cluster_of = partition_.cluster_of_switch();
  Sums delta;
  for (std::size_t s = 0; s < n; ++s) {
    if (s == a || s == b) continue;
    const std::size_t cs = cluster_of[s];
    if (cs != ca && cs != cb) continue;
    const double wa = kWeighted ? (*weights_)(a, s) : 1.0;
    const double wb = kWeighted ? (*weights_)(b, s) : 1.0;
    const double da = (*table_)(a, s);
    const double db = (*table_)(b, s);
    const double sqa = wa * da * da;
    const double sqb = wb * db * db;
    if (cs == ca) {
      delta.wsq += lambda_a * (sqb - sqa);
      if constexpr (kWeighted) delta.w += lambda_a * (wb - wa);
    } else {
      delta.wsq += lambda_b * (sqa - sqb);
      if constexpr (kWeighted) delta.w += lambda_b * (wa - wb);
    }
  }
  return delta;
}

SwapEvaluator::Sums SwapEvaluator::SwapDeltas(std::size_t a, std::size_t b) const {
  // Without W every pair weight is 1, so the intra weight cannot move.
  return weights_ != nullptr ? SwapSums<true>(a, b) : SwapSums<false>(a, b);
}

double SwapEvaluator::SwapDelta(std::size_t a, std::size_t b) const {
  return SwapDeltas(a, b).wsq;
}

double SwapEvaluator::FgAfterDelta(double delta) const {
  return FgOf({intra_.wsq + delta, intra_.w});
}

double SwapEvaluator::FgAfterSwap(std::size_t a, std::size_t b) const {
  const Sums delta = SwapDeltas(a, b);
  return FgOf({intra_.wsq + delta.wsq, intra_.w + delta.w});
}

void SwapEvaluator::ApplySwap(std::size_t a, std::size_t b) {
  const Sums delta = SwapDeltas(a, b);
  partition_.Swap(a, b);
  intra_.wsq += delta.wsq;
  intra_.w += delta.w;
}

void SwapEvaluator::Reset(Partition partition) {
  CS_CHECK(partition.switch_count() == table_->size(), "table / partition size mismatch");
  CS_CHECK(partition.cluster_count() == intensity_.size(), "one intensity per cluster");
  partition_ = std::move(partition);
  Recompute();
}

}  // namespace commsched::qual
