// Virtual-channel routing policies.
//
// The simulator multiplexes each physical link into `vc_count` virtual
// channels (flit-level interleaving, one flit per physical link per cycle).
// A policy maps a header's state to the set of (channel, virtual channel)
// outputs it may claim:
//
//   * SingleClassVcPolicy — every VC carries the same routing function
//     (up*/down* or unrestricted shortest path), deterministic or adaptive
//     across links. VCs only add buffering/head-of-line relief.
//   * DuatoFullyAdaptivePolicy — Duato's design-methodology routing [8]:
//     VCs 1..V-1 are *adaptive* channels usable on any minimal physical
//     path; VC 0 is the *escape* channel restricted to up*/down*. A message
//     that takes the escape channel stays on it to the destination (the
//     conservative variant, provably deadlock-free: the escape subnetwork
//     has an acyclic CDG and every adaptive channel can drain into it).
//
// Every policy expands its routing function once, at construction, into a
// flat CSR candidate table keyed by (switch, dest, phase, escape), where
// single-class policies drop the escape bit: at most 4·N² row offsets plus
// the entries, a few KB at the network sizes anything simulates.
// Candidates() is then a row lookup: it returns a span into the table
// (valid for the policy's lifetime) and never allocates. A row is empty
// when current == dest, and for routing states that cannot reach dest:
// up*/down* states already descending away from it, and switches a
// degraded routing does not cover.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "routing/routing.h"
#include "routing/shortest_path.h"
#include "routing/updown.h"

namespace commsched::sim {

using route::LinkId;
using route::Phase;
using route::Routing;
using route::SwitchId;
using topo::SwitchGraph;

/// One claimable output: a virtual channel of a directed physical channel.
struct VcCandidate {
  /// Directed channel 2*link + dir; dir 0 runs link.a -> link.b.
  std::uint32_t channel = 0;
  std::uint32_t next = 0;    // switch at the far end
  std::uint32_t vc = 0;
  Phase phase = Phase::kUp;  // message phase after the traversal
  bool escape = false;       // message commits to the escape network

  [[nodiscard]] LinkId link() const { return channel / 2; }

  friend bool operator==(const VcCandidate&, const VcCandidate&) = default;
};

/// Rows of candidates in compressed-sparse-row form: row r is
/// entries[row_start[r], row_start[r + 1]). Built row by row, in key order;
/// a key starts with the routing state (current, dest, phase).
class CandidateTable {
 public:
  explicit CandidateTable(std::size_t switch_count) : switch_count_(switch_count) {}

  /// Index of (current, dest, phase) among the 2·N² routing states; throws
  /// ContractError when a switch is out of range.
  [[nodiscard]] std::size_t State(SwitchId current, SwitchId dest, Phase phase) const {
    CS_CHECK(current < switch_count_ && dest < switch_count_, "switch out of range");
    return (current * switch_count_ + dest) * 2 + static_cast<std::size_t>(phase);
  }

  /// Appends `hop`, taken out of `from`, on virtual channel `vc`.
  void Add(const SwitchGraph& graph, SwitchId from, const route::NextHop& hop, std::size_t vc,
           bool escape);
  void EndRow() { row_start_.push_back(static_cast<std::uint32_t>(entries_.size())); }

  [[nodiscard]] std::span<const VcCandidate> Row(std::size_t row) const {
    return {entries_.data() + row_start_[row], entries_.data() + row_start_[row + 1]};
  }

 private:
  std::size_t switch_count_;
  std::vector<std::uint32_t> row_start_{0};
  std::vector<VcCandidate> entries_;
};

class VcRoutingPolicy {
 public:
  virtual ~VcRoutingPolicy() = default;

  [[nodiscard]] virtual const SwitchGraph& graph() const = 0;
  [[nodiscard]] virtual std::size_t vc_count() const = 0;

  /// Outputs a header at `current` heading to `dest` may claim, in
  /// preference order (the simulator tries them first to last).
  /// `phase`/`on_escape` describe the message's routing state. The span
  /// points into the policy's table and stays valid while the policy lives.
  [[nodiscard]] virtual std::span<const VcCandidate> Candidates(SwitchId current, SwitchId dest,
                                                                Phase phase,
                                                                bool on_escape) const = 0;

  [[nodiscard]] virtual std::string Name() const = 0;
};

/// Same routing function on every VC. `adaptive` selects among all offered
/// links (and VCs); otherwise only the first offered link (still any VC).
/// Rows are VC-major per link. The escape flag is not part of the key.
class SingleClassVcPolicy final : public VcRoutingPolicy {
 public:
  /// `routing` must outlive the policy.
  SingleClassVcPolicy(const Routing& routing, std::size_t vc_count, bool adaptive);

  [[nodiscard]] const SwitchGraph& graph() const override { return routing_->graph(); }
  [[nodiscard]] std::size_t vc_count() const override { return vc_count_; }
  [[nodiscard]] std::span<const VcCandidate> Candidates(SwitchId current, SwitchId dest,
                                                        Phase phase,
                                                        bool on_escape) const override;
  [[nodiscard]] std::string Name() const override;

 private:
  const Routing* routing_;
  std::size_t vc_count_;
  bool adaptive_;
  CandidateTable table_;  // key (current, dest, phase)
};

/// Duato fully-adaptive minimal routing with an up*/down* escape channel.
/// Requires vc_count >= 2. Owns its two routing functions. An adaptive row
/// lists the adaptive VCs of every minimal link, then the escape candidates;
/// an on-escape row is the single deterministic up*/down* hop on VC 0, and
/// looking up an empty one is a contract error.
class DuatoFullyAdaptivePolicy final : public VcRoutingPolicy {
 public:
  /// `graph` must outlive the policy.
  DuatoFullyAdaptivePolicy(const SwitchGraph& graph, std::size_t vc_count,
                           route::RootPolicy root_policy = route::RootPolicy::kMaxDegree);

  [[nodiscard]] const SwitchGraph& graph() const override { return *graph_; }
  [[nodiscard]] std::size_t vc_count() const override { return vc_count_; }
  [[nodiscard]] std::span<const VcCandidate> Candidates(SwitchId current, SwitchId dest,
                                                        Phase phase,
                                                        bool on_escape) const override;
  [[nodiscard]] std::string Name() const override { return "duato-fully-adaptive"; }

  [[nodiscard]] const route::UpDownRouting& escape_routing() const { return escape_; }
  [[nodiscard]] const route::ShortestPathRouting& adaptive_routing() const { return adaptive_; }

 private:
  const SwitchGraph* graph_;
  std::size_t vc_count_;
  route::UpDownRouting escape_;
  route::ShortestPathRouting adaptive_;
  CandidateTable table_;  // key (current, dest, phase, on_escape)
};

/// Structural safety check for the Duato policy, following the design
/// methodology's two obligations:
///   1. the escape subnetwork (up*/down* on VC 0) has an acyclic channel
///      dependency graph — deadlock-free on its own; and
///   2. every adaptive-phase state (switch, destination) is offered at
///      least one escape candidate, so blocked messages can always drain.
/// Returns true iff both hold (they do by construction; this makes the
/// argument machine-checked).
[[nodiscard]] bool VerifyDuatoSafety(const DuatoFullyAdaptivePolicy& policy);

}  // namespace commsched::sim
