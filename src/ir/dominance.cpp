#include "ir/dominance.hpp"

#include <algorithm>
#include <cassert>
#include <set>

namespace qirkit::ir {

DomTree::DomTree(const Function& fn) : fn_(fn) {
  const BasicBlock* entry = fn.entry();
  if (entry == nullptr) {
    return;
  }

  // Depth-first post order, then reverse.
  std::set<const BasicBlock*> visited;
  std::vector<const BasicBlock*> postOrder;
  std::vector<std::pair<const BasicBlock*, std::size_t>> stack;
  stack.emplace_back(entry, 0);
  visited.insert(entry);
  while (!stack.empty()) {
    auto& [block, next] = stack.back();
    const std::vector<BasicBlock*> succs = block->successors();
    if (next < succs.size()) {
      const BasicBlock* succ = succs[next++];
      if (visited.insert(succ).second) {
        stack.emplace_back(succ, 0);
      }
    } else {
      postOrder.push_back(block);
      stack.pop_back();
    }
  }
  rpo_.assign(postOrder.rbegin(), postOrder.rend());
  for (std::size_t i = 0; i < rpo_.size(); ++i) {
    rpoIndex_[rpo_[i]] = i;
  }

  // Cooper–Harvey–Kennedy iterative idom computation on integer indices
  // (pointer-chasing through maps makes the intersect walks quadratic-with-
  // large-constants on the long chains unrolling produces).
  const std::size_t n = rpo_.size();
  constexpr std::uint32_t kUndef = ~0U;
  std::vector<std::vector<std::uint32_t>> predIdx(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const BasicBlock* pred : rpo_[i]->predecessors()) {
      const auto it = rpoIndex_.find(pred);
      if (it != rpoIndex_.end()) {
        predIdx[i].push_back(static_cast<std::uint32_t>(it->second));
      }
    }
  }
  std::vector<std::uint32_t> idom(n, kUndef);
  idom[0] = 0;
  const auto intersect = [&idom](std::uint32_t a, std::uint32_t b) {
    while (a != b) {
      while (a > b) {
        a = idom[a];
      }
      while (b > a) {
        b = idom[b];
      }
    }
    return a;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::uint32_t i = 1; i < n; ++i) {
      std::uint32_t newIdom = kUndef;
      for (const std::uint32_t pred : predIdx[i]) {
        if (idom[pred] == kUndef) {
          continue; // not yet processed
        }
        newIdom = newIdom == kUndef ? pred : intersect(newIdom, pred);
      }
      assert(newIdom != kUndef && "reachable block without processed pred");
      if (idom[i] != newIdom) {
        idom[i] = newIdom;
        changed = true;
      }
    }
  }
  for (std::uint32_t i = 1; i < n; ++i) {
    idom_[rpo_[i]] = rpo_[idom[i]];
  }
  idom_[entry] = nullptr; // canonical: entry has no idom

  computeIntervals();
}

void DomTree::computeFrontiers() const {
  frontiersComputed_ = true;
  for (const BasicBlock* block : rpo_) {
    const std::vector<BasicBlock*> preds = block->predecessors();
    std::size_t numReachablePreds = 0;
    for (const BasicBlock* pred : preds) {
      if (isReachable(pred)) {
        ++numReachablePreds;
      }
    }
    if (numReachablePreds < 2) {
      continue;
    }
    for (const BasicBlock* pred : preds) {
      if (!isReachable(pred)) {
        continue;
      }
      const BasicBlock* runner = pred;
      while (runner != idom_.at(block) && runner != nullptr) {
        auto& frontier = frontiers_[runner];
        if (std::find(frontier.begin(), frontier.end(), block) == frontier.end()) {
          frontier.push_back(block);
        }
        runner = idom_.at(runner);
      }
    }
  }
}

const BasicBlock* DomTree::idom(const BasicBlock* block) const {
  const auto it = idom_.find(block);
  return it == idom_.end() ? nullptr : it->second;
}

void DomTree::computeIntervals() {
  // Build dominator-tree children, then DFS to assign (in, out) intervals.
  for (const BasicBlock* block : rpo_) {
    if (const BasicBlock* parent = idom(block)) {
      children_[parent].push_back(block);
    }
  }
  std::uint32_t clock = 0;
  std::vector<std::pair<const BasicBlock*, bool>> stack; // (node, exiting)
  if (!rpo_.empty()) {
    stack.emplace_back(rpo_.front(), false);
  }
  while (!stack.empty()) {
    auto [node, exiting] = stack.back();
    stack.pop_back();
    if (exiting) {
      intervals_[node].second = clock++;
      continue;
    }
    intervals_[node].first = clock++;
    stack.emplace_back(node, true);
    for (const BasicBlock* child : children(node)) {
      stack.emplace_back(child, false);
    }
  }
}

bool DomTree::dominates(const BasicBlock* a, const BasicBlock* b) const {
  if (a == b) {
    return true;
  }
  if (!isReachable(b)) {
    return true; // vacuous: no execution reaches b
  }
  if (!isReachable(a)) {
    return false;
  }
  const auto& ia = intervals_.at(a);
  const auto& ib = intervals_.at(b);
  return ia.first <= ib.first && ib.second <= ia.second;
}

bool DomTree::dominatesUse(const Instruction* def, const Instruction* user) const {
  const BasicBlock* defBlock = def->parent();
  const BasicBlock* useBlock = user->parent();
  if (defBlock == useBlock) {
    if (positions_.empty()) {
      for (const auto& block : fn_.blocks()) {
        for (std::size_t i = 0; i < block->size(); ++i) {
          positions_.emplace(block->instructions()[i].get(), i);
        }
      }
    }
    return positions_.at(def) < positions_.at(user);
  }
  return dominates(defBlock, useBlock);
}

bool DomTree::isReachable(const BasicBlock* block) const {
  return rpoIndex_.find(block) != rpoIndex_.end();
}

std::vector<const BasicBlock*> DomTree::unreachableBlocks() const {
  std::vector<const BasicBlock*> result;
  for (const auto& block : fn_.blocks()) {
    if (!isReachable(block.get())) {
      result.push_back(block.get());
    }
  }
  return result;
}

const std::vector<const BasicBlock*>& DomTree::children(const BasicBlock* block) const {
  const auto it = children_.find(block);
  return it == children_.end() ? none_ : it->second;
}

const std::vector<const BasicBlock*>& DomTree::frontier(const BasicBlock* block) const {
  if (!frontiersComputed_) {
    computeFrontiers();
  }
  const auto it = frontiers_.find(block);
  return it == frontiers_.end() ? none_ : it->second;
}

} // namespace qirkit::ir
