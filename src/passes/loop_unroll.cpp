/// Full loop unrolling for counted loops with statically known bounds —
/// the paper's Ex. 4: "it is straight forward to unroll any loops with
/// statically known bounds in the QIR program. Hence, an optimization pass
/// does not have to handle the FOR-loop, but sees only the ten individual
/// Hadamard gates."
///
/// Supported shape (what mem2reg produces from front-end FOR loops):
///   * single latch, header is the unique exiting block,
///   * the exit condition is `icmp (phi|swapped) , constant` on a header
///     phi whose latch increment is `add/sub phi, constant` and whose
///     preheader value is constant,
///   * no loop-defined value is used outside the loop except through exit
///     phis fed by the header.
/// The trip count is obtained by simulating the induction with the same
/// iN arithmetic the folder uses, so the cloned comparisons are guaranteed
/// to fold to the simulated direction afterwards.
///
/// One nesting level per invocation: a loop that contained another loop
/// when the pass started waits for the next sweep of the pipeline, so
/// SCCP, CSE and SimplifyCFG shrink the unrolled inner copies before the
/// outer body is cloned. An unroll that would grow the module past
/// kMaxExpandedModuleSize instructions is refused; that loop stays a
/// loop.
#include "passes/folding.hpp"
#include "passes/loop_info.hpp"
#include "passes/pass.hpp"

#include "ir/builder.hpp"

#include <map>
#include <optional>
#include <set>
#include <vector>

namespace qirkit::passes {
namespace {

using namespace qirkit::ir;

struct InductionInfo {
  Instruction* phi = nullptr;       // header induction phi
  std::int64_t init = 0;            // preheader incoming (constant)
  std::int64_t step = 0;            // signed increment per iteration
  Instruction* stepInst = nullptr;  // the add/sub feeding the latch edge
  std::uint64_t tripCount = 0;      // number of body executions
};

/// A module pass, because its budget counts the module: it sizes the
/// module once per invocation and tracks each unroll's growth, instead of
/// walking the module for every candidate loop in every function.
class LoopUnrollPass final : public ModulePass {
public:
  explicit LoopUnrollPass(std::size_t maxTripCount) : maxTripCount_(maxTripCount) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "loop-unroll";
  }

  bool run(Module& module) override {
    moduleSize_ = module.instructionCount();
    bool changed = false;
    for (const auto& fn : module.functions()) {
      if (!fn->isDeclaration()) {
        changed |= unrollIn(*fn);
      }
    }
    return changed;
  }

private:
  std::size_t maxTripCount_;
  std::size_t moduleSize_ = 0;

  bool unrollIn(Function& fn) {
    std::vector<Loop> loops = findNaturalLoops(fn);
    // Loops that contain a loop now are left for the next sweep, even once
    // their inner loops are gone. Unrolling creates no loops, so these
    // headers stay valid blocks for the whole invocation.
    std::set<const BasicBlock*> outer;
    for (const Loop& loop : loops) {
      if (loop.containsLoop(loops)) {
        outer.insert(loop.header);
      }
    }
    bool changed = false;
    for (int guard = 0; guard < 64 && !loops.empty(); ++guard) {
      const std::size_t before = fn.instructionCount();
      if (!unrollOne(fn, loops, outer)) {
        break;
      }
      changed = true;
      moduleSize_ = moduleSize_ - before + fn.instructionCount();
      loops = findNaturalLoops(fn); // unrolling invalidates the loop forest
    }
    return changed;
  }

  bool unrollOne(Function& fn, const std::vector<Loop>& loops,
                 const std::set<const BasicBlock*>& outer) {
    for (const Loop& loop : loops) {
      if (outer.count(loop.header) == 0 && tryUnroll(fn, loop)) {
        return true;
      }
    }
    return false;
  }

  /// Estimate the module after unrolling \p loop as the rest of the
  /// module plus \p tripCount copies of the loop's non-phi instructions.
  [[nodiscard]] bool fitsBudget(const Loop& loop, std::uint64_t tripCount) const {
    std::uint64_t rest = moduleSize_;
    std::uint64_t body = 0;
    for (const BasicBlock* block : loop.blocks) {
      rest -= block->size();
      for (const auto& inst : block->instructions()) {
        body += inst->op() == Opcode::Phi ? 0 : 1;
      }
    }
    return rest + tripCount * body <= kMaxExpandedModuleSize;
  }

  static const ConstantInt* asConstInt(const Value* v) {
    return v->kind() == Value::Kind::ConstantInt
               ? static_cast<const ConstantInt*>(v)
               : nullptr;
  }

  bool tryUnroll(Function& fn, const Loop& loop) {
    if (loop.latches.size() != 1) {
      return false;
    }
    BasicBlock* header = loop.header;
    BasicBlock* latch = loop.latches.front();
    BasicBlock* preheader = loop.preheader();
    if (preheader == nullptr) {
      return false;
    }

    // Header must be the unique exiting block, via a conditional branch.
    Instruction* headerTerm = header->terminator();
    if (headerTerm == nullptr || headerTerm->op() != Opcode::Br ||
        !headerTerm->isConditionalBr()) {
      return false;
    }
    BasicBlock* succ0 = headerTerm->successor(0);
    BasicBlock* succ1 = headerTerm->successor(1);
    const bool exitIs0 = !loop.contains(succ0);
    const bool exitIs1 = !loop.contains(succ1);
    if (exitIs0 == exitIs1) {
      return false; // both or neither leave the loop
    }
    BasicBlock* exitBlock = exitIs0 ? succ0 : succ1;
    for (const auto& [from, to] : loop.exitEdges()) {
      if (from != header || to != exitBlock) {
        return false; // early exits / breaks are unsupported
      }
    }
    if (loop.contains(exitBlock)) {
      return false;
    }

    const auto induction = analyzeInduction(loop, header, latch, preheader,
                                            headerTerm, exitIs0);
    if (!induction || !fitsBudget(loop, induction->tripCount)) {
      return false;
    }

    // Loop-defined values may escape only through exit-block phis (LCSSA
    // form). Direct escapes are legal when the exit block's sole
    // predecessor is the header: wrap them in fresh single-incoming exit
    // phis first. Otherwise bail.
    const std::vector<BasicBlock*> exitPreds = exitBlock->predecessors();
    const bool canInsertExitPhis = exitPreds.size() == 1 && exitPreds[0] == header;
    std::map<Instruction*, Instruction*> lcssaPhis; // loop value -> exit phi
    for (BasicBlock* block : loop.blocks) {
      for (const auto& inst : block->instructions()) {
        // Snapshot: inserting phis mutates the use list.
        const std::vector<Use*> uses = inst->uses();
        for (const Use* use : uses) {
          auto* user = dynamic_cast<Instruction*>(use->user);
          if (user == nullptr) {
            return false;
          }
          if (loop.contains(user->parent())) {
            continue;
          }
          if (user->op() == Opcode::Phi && user->parent() == exitBlock) {
            continue;
          }
          if (!canInsertExitPhis) {
            return false;
          }
          auto& phi = lcssaPhis[inst.get()];
          if (phi == nullptr) {
            IRBuilder builder(fn.parent()->context());
            builder.setInsertPoint(exitBlock, 0);
            phi = builder.createPhi(inst->type(), inst->hasName()
                                                      ? inst->name() + ".lcssa"
                                                      : std::string{});
            phi->addIncoming(inst.get(), header);
          }
          user->setOperand(use->index, phi);
        }
      }
    }

    expand(fn, loop, *induction, header, latch, preheader, exitBlock);
    return true;
  }

  std::optional<InductionInfo> analyzeInduction(const Loop& loop, BasicBlock* header,
                                                BasicBlock* latch,
                                                BasicBlock* preheader,
                                                Instruction* headerTerm,
                                                bool exitIs0) const {
    auto* cmp = dynamic_cast<Instruction*>(headerTerm->brCondition());
    if (cmp == nullptr || cmp->op() != Opcode::ICmp ||
        !loop.contains(cmp->parent())) {
      return std::nullopt;
    }
    // Identify phi-vs-constant, either operand order.
    Instruction* phi = nullptr;
    const ConstantInt* bound = nullptr;
    bool swapped = false;
    if ((phi = dynamic_cast<Instruction*>(cmp->operand(0))) != nullptr &&
        phi->op() == Opcode::Phi && phi->parent() == header &&
        (bound = asConstInt(cmp->operand(1))) != nullptr) {
      swapped = false;
    } else if ((phi = dynamic_cast<Instruction*>(cmp->operand(1))) != nullptr &&
               phi->op() == Opcode::Phi && phi->parent() == header &&
               (bound = asConstInt(cmp->operand(0))) != nullptr) {
      swapped = true;
    } else {
      return std::nullopt;
    }
    if (!phi->type()->isInteger()) {
      return std::nullopt;
    }
    const ConstantInt* init = asConstInt(phi->incomingValueFor(preheader));
    Value* latchValue = phi->incomingValueFor(latch);
    if (init == nullptr || latchValue == nullptr) {
      return std::nullopt;
    }
    auto* stepInst = dynamic_cast<Instruction*>(latchValue);
    if (stepInst == nullptr ||
        (stepInst->op() != Opcode::Add && stepInst->op() != Opcode::Sub) ||
        stepInst->operand(0) != phi) {
      return std::nullopt;
    }
    const ConstantInt* stepC = asConstInt(stepInst->operand(1));
    if (stepC == nullptr || stepC->isZero()) {
      return std::nullopt;
    }
    const std::int64_t step =
        stepInst->op() == Opcode::Add ? stepC->value() : -stepC->value();

    // Simulate: body runs while the comparison keeps selecting the in-loop
    // successor. The in-loop successor is taken when cond == (exit != s0).
    const bool continueWhenTrue = exitIs0 ? false : true;
    const unsigned bits = phi->type()->bits();
    std::int64_t v = init->value();
    std::uint64_t trips = 0;
    while (true) {
      const std::int64_t lhs = swapped ? bound->value() : v;
      const std::int64_t rhs = swapped ? v : bound->value();
      if (evalICmp(cmp->icmpPred(), bits, lhs, rhs) != continueWhenTrue) {
        break;
      }
      ++trips;
      if (trips > maxTripCount_) {
        return std::nullopt; // too large (or effectively infinite)
      }
      std::int64_t next = 0;
      if (!evalIntBinOp(Opcode::Add, bits, v, step, next)) {
        return std::nullopt;
      }
      v = next;
    }
    InductionInfo info;
    info.phi = phi;
    info.init = init->value();
    info.step = step;
    info.stepInst = stepInst;
    info.tripCount = trips;
    return info;
  }

  using ValueMap = std::map<const Value*, Value*>;

  static Value* mapValue(const ValueMap& vmap, Value* v) {
    const auto it = vmap.find(v);
    return it == vmap.end() ? v : it->second;
  }

  void expand(Function& fn, const Loop& loop, const InductionInfo& induction,
              BasicBlock* header, BasicBlock* latch, BasicBlock* preheader,
              BasicBlock* exitBlock) const {
    // Loop blocks in a deterministic order with header first.
    std::vector<BasicBlock*> loopBlocks;
    loopBlocks.push_back(header);
    for (const auto& block : fn.blocks()) {
      if (block.get() != header && loop.contains(block.get())) {
        loopBlocks.push_back(block.get());
      }
    }
    // Collect header phis and their seed values.
    std::vector<Instruction*> headerPhis = header->phis();
    ValueMap current; // header phi -> value for the iteration being built
    for (Instruction* phi : headerPhis) {
      current[phi] = phi->incomingValueFor(preheader);
    }

    const std::uint64_t n = induction.tripCount;
    std::vector<std::map<BasicBlock*, BasicBlock*>> blockMaps(n + 1);
    // Create all blocks up front so terminators can target the next
    // iteration's header.
    for (std::uint64_t i = 0; i < n; ++i) {
      for (BasicBlock* block : loopBlocks) {
        blockMaps[i][block] = fn.createBlock(
            block->hasName() ? block->name() + ".it" + std::to_string(i)
                             : std::string{});
      }
    }
    blockMaps[n][header] = fn.createBlock(
        header->hasName() ? header->name() + ".exit" : std::string{});

    ValueMap vmap;

    for (std::uint64_t i = 0; i < n; ++i) {
      vmap.clear();
      for (Instruction* phi : headerPhis) {
        vmap[phi] = current.at(phi);
      }
      // Pass 1: clone every instruction with its original operands so the
      // value map is complete regardless of block layout order. Header
      // phis are folded into vmap instead of being cloned.
      std::vector<Instruction*> clones;
      for (BasicBlock* block : loopBlocks) {
        BasicBlock* clone = blockMaps[i].at(block);
        for (const auto& inst : block->instructions()) {
          if (block == header && inst->op() == Opcode::Phi) {
            continue;
          }
          Instruction* placed = clone->append(inst->clone());
          vmap[inst.get()] = placed;
          clones.push_back(placed);
        }
      }
      // Pass 2: remap operands. Block operands: the back edge targets the
      // next iteration's header, in-loop targets this iteration's clones,
      // exit edges are kept.
      for (Instruction* placed : clones) {
        for (unsigned op = 0; op < placed->numOperands(); ++op) {
          Value* operand = placed->operand(op);
          if (operand->kind() == Value::Kind::BasicBlock) {
            auto* target = static_cast<BasicBlock*>(operand);
            if (!loop.contains(target)) {
              continue; // exit edge target stays
            }
            // In a phi, a block operand names a *predecessor*: always this
            // iteration. In a terminator, targeting the header is the back
            // edge: next iteration.
            if (placed->op() != Opcode::Phi && target == header) {
              placed->setOperand(op, blockMaps[i + 1].at(header));
            } else {
              placed->setOperand(op, blockMaps[i].at(target));
            }
            continue;
          }
          placed->setOperand(op, mapValue(vmap, operand));
        }
      }
      // Exit-block phis: this iteration's header clone has a (not yet
      // folded) edge to the exit block.
      BasicBlock* headerClone = blockMaps[i].at(header);
      for (Instruction* phi : exitBlock->phis()) {
        if (Value* v = phi->incomingValueFor(header)) {
          phi->addIncoming(mapValue(vmap, v), headerClone);
        }
      }
      // Seed the next iteration's phi values from this iteration's latch.
      ValueMap next;
      for (Instruction* phi : headerPhis) {
        next[phi] = mapValue(vmap, phi->incomingValueFor(latch));
      }
      current = std::move(next);
    }

    // Final header clone: evaluates the exit comparison once more and
    // leaves the loop unconditionally.
    {
      vmap.clear();
      for (Instruction* phi : headerPhis) {
        vmap[phi] = current.at(phi);
      }
      BasicBlock* finalHeader = blockMaps[n].at(header);
      for (const auto& inst : header->instructions()) {
        if (inst->op() == Opcode::Phi) {
          continue;
        }
        if (inst->isTerminator()) {
          IRBuilder builder(finalHeader);
          builder.createBr(exitBlock);
          break;
        }
        std::unique_ptr<Instruction> copy = inst->clone();
        for (unsigned op = 0; op < copy->numOperands(); ++op) {
          copy->setOperand(op, mapValue(vmap, copy->operand(op)));
        }
        Instruction* placed = finalHeader->append(std::move(copy));
        vmap[inst.get()] = placed;
      }
      for (Instruction* phi : exitBlock->phis()) {
        if (Value* v = phi->incomingValueFor(header)) {
          phi->addIncoming(mapValue(vmap, v), finalHeader);
        }
      }
    }

    // Retarget the preheader into iteration 0 (or the final header when the
    // body never runs).
    BasicBlock* firstHeader =
        n > 0 ? blockMaps[0].at(header) : blockMaps[n].at(header);
    Instruction* preTerm = preheader->terminator();
    for (unsigned s = 0; s < preTerm->numSuccessors(); ++s) {
      if (preTerm->successor(s) == header) {
        preTerm->setSuccessor(s, firstHeader);
      }
    }

    // Remove the original incoming edges and delete the original loop.
    for (Instruction* phi : exitBlock->phis()) {
      if (phi->incomingValueFor(header) != nullptr) {
        phi->removeIncoming(header);
      }
    }
    // The clones are not in loop.blocks: it was computed before them.
    fn.eraseBlocksIf([&](BasicBlock* block) { return loop.contains(block); });
  }
};

} // namespace

std::unique_ptr<ModulePass> createLoopUnrollPass(std::size_t maxTripCount) {
  return std::make_unique<LoopUnrollPass>(maxTripCount);
}

} // namespace qirkit::passes
