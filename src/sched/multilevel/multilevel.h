// Multilevel hierarchical mapping (DESIGN.md §13): coarsen -> map -> refine.
//
// Scales the mapping search to 10^5+ processes where the dense searchers'
// O(N²)-per-move neighbourhood dies. The pipeline follows Schulz & Träff's
// sparse-QAP recipe:
//
//   1. Coarsen the process communication graph by repeated heavy-edge
//      matching + contraction (coarsen.h) until it is small enough for the
//      exact searchers, capping super-vertex sizes at the per-switch host
//      capacity so feasibility survives every level.
//   2. Map the coarsest graph: capacity-aware greedy affinity placement,
//      then — when the coarse graph is small enough — multi-start tabu
//      refinement through the unchanged SearchEngine, speaking to the
//      sparse evaluator via the standard Objective interface (capacity-
//      violating swaps are inadmissible, i.e. SwapCost = NaN).
//   3. Uncoarsen level by level: project the assignment to the finer graph
//      (loads are invariant under projection), then run a budgeted
//      edge-local refinement pass — only strictly improving swaps/moves are
//      applied, so the per-level cost is monotonically non-increasing (the
//      invariant the multilevel tests assert).
#pragma once

#include <cstdint>
#include <vector>

#include "distance/distance_table.h"
#include "quality/comm_graph.h"
#include "quality/sparse.h"

namespace commsched::sched::ml {

struct MultilevelOptions {
  /// Coarsening stops at this many vertices. 0 = auto:
  /// max(64, min(2 * switches, 512)), clamped to the SearchEngine's
  /// practical scan size.
  std::size_t coarsen_target = 0;
  /// Max applied refinement swaps/moves per level. 0 = auto (the level's
  /// vertex count, at least 1024).
  std::size_t refine_budget = 0;
  /// Max refinement passes over the edge list per level (a pass that
  /// applies nothing ends refinement early).
  std::size_t refine_rounds = 4;
  /// Multi-start seeds of the coarsest-level engine search.
  std::size_t seeds = 4;
  /// Engine iterations per coarsest seed. 0 = auto
  /// (clamp(2 * coarse vertices, 20, 200)).
  std::size_t engine_iterations = 0;
  /// The full-scan SearchEngine only runs when the coarsest graph has at
  /// most this many vertices (above it the greedy placement + per-level
  /// refinement carry the quality).
  std::size_t engine_max_vertices = 512;
  /// Run the coarsest-level engine seeds on a ThreadPool. Starts are
  /// derived up front and seeds combine in seed order, so the result is
  /// identical either way.
  bool parallel_seeds = false;
  std::uint64_t rng_seed = 1;
};

/// One uncoarsening level's refinement ledger (index 0 = coarsest).
struct LevelStats {
  std::size_t vertices = 0;
  std::size_t edges = 0;
  double cost_before = 0.0;  // after projection (+ any forced rebalance)
  double cost_after = 0.0;   // after refinement; <= cost_before always
  std::size_t moves = 0;     // applied refinement swaps/moves
};

struct MultilevelResult {
  /// Process vertex -> switch id.
  std::vector<std::size_t> switch_of_process;
  /// Final sparse-QAP cost Σ w·T² and its F_G-style normalization.
  double cost = 0.0;
  double normalized = 0.0;
  std::size_t levels = 0;             // contraction steps taken
  std::size_t coarsest_vertices = 0;
  std::size_t max_load = 0;           // busiest switch's process count
  std::vector<LevelStats> level_stats;  // coarsest first, finest last
  std::size_t engine_seeds = 0;       // coarsest-level engine seeds run
  std::size_t engine_iterations = 0;  // winning seed's applied moves
  std::size_t engine_evaluations = 0;  // summed over seeds
};

/// Maps `processes` (vertex sizes = process counts) onto the switches of
/// `distances`, each hosting at most `hosts_per_switch` processes. Throws
/// ConfigError when the processes cannot fit, a vertex exceeds the per-
/// switch capacity, or options are degenerate (seeds == 0).
[[nodiscard]] MultilevelResult MapMultilevel(const qual::CommGraph& processes,
                                             const dist::DistanceTable& distances,
                                             std::size_t hosts_per_switch,
                                             const MultilevelOptions& options = {});

}  // namespace commsched::sched::ml
