// Weighted max-min fair share solver (progressive water-filling).
//
// Given a set of links (payload capacities) and flows (effective weights,
// optional rate caps, link membership), assigns every flow the classic
// weighted max-min fair rate: all rates rise proportionally to their
// weights until a link saturates or a flow hits its cap; constrained flows
// freeze and the rest keep rising. The engine calls this on the *closure*
// of a change only — links a start/finish actually touched — with traffic
// that is not being renegotiated folded into each link's capacity as fixed
// load (flow_engine.cpp). One entry may stand for a whole rate class of
// identical flows (`members`): it weighs and consumes as that many flows
// and each of them gets the entry's rate.
//
// Determinism: ties freeze in flow-index order; no container hashing, no
// floating-point accumulation order dependence beyond the fixed input
// order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace gdmp::flow {

/// One flow participating in a solve. `links` index into the solver's link
/// span via the flat `membership` array: this flow crosses
/// membership[link_begin .. link_begin+link_count).
struct ShareFlow {
  double weight = 1.0;  ///< effective (RTT-scaled) weight, > 0
  double cap = std::numeric_limits<double>::infinity();  ///< rate ceiling
  /// Identical flows this entry stands for (same path, weight and cap).
  std::uint32_t members = 1;
  std::int32_t link_begin = 0;
  std::int32_t link_count = 0;
  // Outputs.
  double rate = 0.0;
  /// Index of the saturated link that froze this flow, or -1 when the
  /// flow's own cap bound first (the engine uses this to decide which
  /// links a later change must propagate to).
  std::int32_t bottleneck = -1;
};

/// One link participating in a solve. `capacity` is the payload bandwidth
/// *remaining for the participating flows* — the engine subtracts pinned
/// and out-of-closure traffic before calling solve().
struct ShareLink {
  double capacity = 0.0;
  // Working state (overwritten by solve()).
  double residual = 0.0;
  double weight_sum = 0.0;
  std::int32_t unfrozen = 0;  ///< entries not yet frozen
};

/// Reusable solver. All scratch lives in the instance, so steady-state
/// renegotiations allocate nothing once the vectors have grown to the
/// working-set size.
class WaterFill {
 public:
  /// Computes rates for `flows` over `links`. `membership` holds each
  /// flow's link indices (see ShareFlow). `min_rate` floors every result
  /// so completion times stay finite even when a link is over-pinned.
  void solve(std::span<ShareFlow> flows, std::span<ShareLink> links,
             std::span<const std::int32_t> membership, double min_rate) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (ShareLink& link : links) {
      link.residual = std::max(link.capacity, 0.0);
      link.weight_sum = 0.0;
      link.unfrozen = 0;
    }
    // Per-link entry lists (CSR, flow-index order) so saturating a link
    // visits only the entries crossing it.
    link_start_.assign(links.size() + 1, 0);
    for (ShareFlow& flow : flows) {
      flow.rate = 0.0;
      flow.bottleneck = -1;
      for (std::int32_t m = 0; m < flow.link_count; ++m) {
        const std::int32_t l = membership[flow.link_begin + m];
        links[l].weight_sum += flow.weight * flow.members;
        ++links[l].unfrozen;
        ++link_start_[l + 1];
      }
    }
    for (std::size_t l = 0; l < links.size(); ++l) {
      link_start_[l + 1] += link_start_[l];
    }
    link_flows_.resize(static_cast<std::size_t>(link_start_.back()));
    fill_.assign(link_start_.begin(), link_start_.end() - 1);
    for (std::int32_t f = 0; f < static_cast<std::int32_t>(flows.size());
         ++f) {
      for (std::int32_t m = 0; m < flows[f].link_count; ++m) {
        link_flows_[fill_[membership[flows[f].link_begin + m]]++] = f;
      }
    }

    // Flows freeze at their caps in increasing cap-level (= cap / weight)
    // order; sort once and sweep a cursor instead of rescanning per round.
    by_cap_.clear();
    frozen_.clear();
    frozen_.resize(flows.size(), false);
    for (std::int32_t i = 0; i < static_cast<std::int32_t>(flows.size());
         ++i) {
      if (flows[i].cap < kInf) by_cap_.push_back(i);
    }
    std::sort(by_cap_.begin(), by_cap_.end(),
              [&flows](std::int32_t a, std::int32_t b) {
                const double la = flows[a].cap / flows[a].weight;
                const double lb = flows[b].cap / flows[b].weight;
                if (la != lb) return la < lb;
                return a < b;
              });

    std::size_t cursor = 0;
    std::size_t remaining = flows.size();
    while (remaining > 0) {
      // The next link to saturate under proportional filling.
      double level = kInf;
      std::int32_t arg = -1;
      for (std::int32_t l = 0; l < static_cast<std::int32_t>(links.size());
           ++l) {
        const ShareLink& link = links[l];
        if (link.unfrozen == 0) continue;
        const double cand =
            link.weight_sum > 0.0 ? link.residual / link.weight_sum : kInf;
        if (cand < level) {
          level = cand;
          arg = l;
        }
      }

      // Every flow whose cap binds at or below that level freezes first.
      bool froze_by_cap = false;
      while (cursor < by_cap_.size()) {
        const std::int32_t f = by_cap_[cursor];
        if (frozen_[f]) {
          ++cursor;
          continue;
        }
        if (flows[f].cap / flows[f].weight > level) break;
        freeze(flows[f], flows[f].cap, -1, links, membership);
        frozen_[f] = true;
        --remaining;
        ++cursor;
        froze_by_cap = true;
      }
      if (froze_by_cap) continue;  // link levels moved; re-derive them

      if (arg < 0 || level == kInf) {
        // No finite constraint left: every surviving flow is cap-bound
        // (handled above) or crosses only slack links — give each the best
        // level its own links allow. With finite link capacities this
        // branch is unreachable; it guards degenerate inputs.
        for (std::size_t f = 0; f < flows.size(); ++f) {
          if (frozen_[f]) continue;
          freeze(flows[f], flows[f].cap, -1, links, membership);
          frozen_[f] = true;
          --remaining;
        }
        break;
      }

      // Saturate `arg`: all its unfrozen flows freeze at the fill level.
      for (std::int32_t k = link_start_[arg];
           k < link_start_[arg + 1] && links[arg].unfrozen > 0; ++k) {
        const std::int32_t f = link_flows_[k];
        if (frozen_[f]) continue;
        freeze(flows[f], flows[f].weight * level, arg, links, membership);
        frozen_[f] = true;
        --remaining;
      }
    }

    for (ShareFlow& flow : flows) {
      if (flow.rate < min_rate) flow.rate = min_rate;
    }
  }

 private:
  void freeze(ShareFlow& flow, double rate, std::int32_t bottleneck,
              std::span<ShareLink> links,
              std::span<const std::int32_t> membership) {
    flow.rate = rate;
    flow.bottleneck = bottleneck;
    const double consumed = rate * flow.members;
    const double weight = flow.weight * flow.members;
    for (std::int32_t m = 0; m < flow.link_count; ++m) {
      ShareLink& link = links[membership[flow.link_begin + m]];
      link.residual = std::max(link.residual - consumed, 0.0);
      link.weight_sum -= weight;
      --link.unfrozen;
    }
  }

  std::vector<std::int32_t> by_cap_;
  std::vector<char> frozen_;
  std::vector<std::int32_t> link_start_;  // CSR offsets, links.size() + 1
  std::vector<std::int32_t> link_flows_;  // flow indices grouped by link
  std::vector<std::int32_t> fill_;        // CSR build cursor
};

}  // namespace gdmp::flow
