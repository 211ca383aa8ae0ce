/// \file dominance.hpp
/// Dominator tree and dominance frontiers (Cooper–Harvey–Kennedy), used by
/// the verifier (SSA dominance checking) and by mem2reg (phi placement).
#pragma once

#include "ir/module.hpp"

#include <map>
#include <unordered_map>
#include <vector>

namespace qirkit::ir {

/// Dominator tree of a function. Unreachable blocks have no entry and are
/// reported by unreachableBlocks().
class DomTree {
public:
  explicit DomTree(const Function& fn);

  /// Immediate dominator; nullptr for the entry block and unreachable blocks.
  [[nodiscard]] const BasicBlock* idom(const BasicBlock* block) const;

  /// True if \p a dominates \p b (reflexive). Unreachable blocks dominate
  /// nothing and are dominated by everything (vacuous; callers should skip
  /// unreachable code).
  [[nodiscard]] bool dominates(const BasicBlock* a, const BasicBlock* b) const;

  /// True if instruction \p def dominates the use of it at \p user. Handles
  /// same-block ordering; for phi users, the use must dominate the end of
  /// the corresponding incoming block, which callers check separately via
  /// dominatesEdge(). The first call records every instruction's position
  /// in its block, so the function must not change between calls.
  [[nodiscard]] bool dominatesUse(const Instruction* def, const Instruction* user) const;

  [[nodiscard]] bool isReachable(const BasicBlock* block) const;
  [[nodiscard]] std::vector<const BasicBlock*> unreachableBlocks() const;

  /// Blocks in reverse post order (entry first); unreachable blocks omitted.
  [[nodiscard]] const std::vector<const BasicBlock*>& reversePostOrder() const noexcept {
    return rpo_;
  }

  /// Dominator-tree children of \p block, in reverse post order.
  [[nodiscard]] const std::vector<const BasicBlock*>&
  children(const BasicBlock* block) const;

  /// Dominance frontier of each reachable block. Computed lazily on first
  /// use (it costs O(preds * tree depth) — only mem2reg needs it).
  [[nodiscard]] const std::vector<const BasicBlock*>&
  frontier(const BasicBlock* block) const;

private:
  void computeIntervals();
  void computeFrontiers() const;

  const Function& fn_;
  std::vector<const BasicBlock*> rpo_;
  std::map<const BasicBlock*, std::size_t> rpoIndex_;
  std::map<const BasicBlock*, const BasicBlock*> idom_;
  std::map<const BasicBlock*, std::vector<const BasicBlock*>> children_;
  mutable bool frontiersComputed_ = false;
  mutable std::map<const BasicBlock*, std::vector<const BasicBlock*>> frontiers_;
  // Position of each instruction in its block, filled by the first
  // dominatesUse() (BasicBlock::indexOf scans the block, which made
  // verifying a long block quadratic).
  mutable std::unordered_map<const Instruction*, std::size_t> positions_;
  // Dominator-tree DFS intervals: a dominates b iff in[a] <= in[b] and
  // out[b] <= out[a]. Makes dominates() O(log n) instead of an idom-chain
  // walk (which is O(depth) — quadratic on the long chains unrolling
  // produces).
  std::map<const BasicBlock*, std::pair<std::uint32_t, std::uint32_t>> intervals_;
  std::vector<const BasicBlock*> none_;
};

} // namespace qirkit::ir
