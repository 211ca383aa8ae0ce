#include "hybrid/hybrid.hpp"

#include "qir/names.hpp"

#include <set>

namespace qirkit::hybrid {

using namespace qirkit::ir;

const char* placementName(Placement placement) noexcept {
  switch (placement) {
  case Placement::Quantum: return "quantum";
  case Placement::ClassicalFeedback: return "classical-feedback";
  case Placement::ClassicalHost: return "classical-host";
  }
  return "<bad placement>";
}

LatencyModel LatencyModel::ionTrapCPU() {
  LatencyModel m;
  m.intOpNs = 1.0;
  m.mulNs = 3.0;
  m.divNs = 15.0;
  m.branchNs = 2.0;
  m.readResultNs = 100.0;
  m.supportsFloatingPoint = true;
  m.supportsMemory = true;
  m.floatOpNs = 5.0;
  m.memOpNs = 10.0;
  return m;
}

double LatencyModel::instructionCost(const Instruction& inst) const {
  switch (inst.op()) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::LShr:
  case Opcode::AShr:
  case Opcode::ICmp:
  case Opcode::Select:
  case Opcode::ZExt:
  case Opcode::SExt:
  case Opcode::Trunc:
  case Opcode::PtrToInt:
  case Opcode::IntToPtr:
  case Opcode::Bitcast:
  case Opcode::Phi:
    return intOpNs;
  case Opcode::Mul:
    return mulNs;
  case Opcode::SDiv:
  case Opcode::UDiv:
  case Opcode::SRem:
  case Opcode::URem:
    return divNs;
  case Opcode::Br:
  case Opcode::Switch:
    return branchNs;
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
  case Opcode::FRem:
  case Opcode::FCmp:
  case Opcode::SIToFP:
  case Opcode::FPToSI:
  case Opcode::UIToFP:
  case Opcode::FPToUI:
    return supportsFloatingPoint ? floatOpNs : -1.0;
  case Opcode::Alloca:
  case Opcode::Load:
  case Opcode::Store:
    return supportsMemory ? memOpNs : -1.0;
  case Opcode::Call: {
    const std::string& callee = inst.callee()->name();
    if (callee == qir::kQisReadResult) {
      return readResultNs;
    }
    if (qir::isQuantumFunction(callee)) {
      return 0.0; // executed by the QPU control stack, not the co-processor
    }
    return -1.0; // arbitrary classical calls cannot run on the co-processor
  }
  case Opcode::Ret:
  case Opcode::Unreachable:
    return 0.0;
  }
  return -1.0;
}

namespace {

bool isQisCall(const Instruction& inst) {
  return inst.op() == Opcode::Call && qir::isQisFunction(inst.callee()->name()) &&
         inst.callee()->name() != qir::kQisReadResult;
}

/// True if any quantum instruction is reachable from \p start.
bool reachesQuantum(const BasicBlock* start,
                    const Instruction*& firstQuantum) {
  std::set<const BasicBlock*> visited;
  std::vector<const BasicBlock*> worklist{start};
  while (!worklist.empty()) {
    const BasicBlock* block = worklist.back();
    worklist.pop_back();
    if (!visited.insert(block).second) {
      continue;
    }
    for (const auto& inst : block->instructions()) {
      if (isQisCall(*inst)) {
        firstQuantum = inst.get();
        return true;
      }
    }
    for (const BasicBlock* succ : block->successors()) {
      worklist.push_back(succ);
    }
  }
  return false;
}

/// Backward slice of classical instructions feeding \p root (inclusive),
/// stopping at measurement reads.
std::vector<const Instruction*> backwardSlice(const Instruction* root) {
  std::set<const Instruction*> seen;
  std::vector<const Instruction*> order;
  std::vector<const Instruction*> worklist{root};
  while (!worklist.empty()) {
    const Instruction* inst = worklist.back();
    worklist.pop_back();
    if (!seen.insert(inst).second) {
      continue;
    }
    order.push_back(inst);
    if (qir::readsMeasurement(*inst)) {
      continue; // path input; do not walk into the measurement itself
    }
    for (unsigned i = 0; i < inst->numOperands(); ++i) {
      if (const auto* op = dynamic_cast<const Instruction*>(inst->operand(i))) {
        worklist.push_back(op);
      }
    }
  }
  return order;
}

} // namespace

PartitionReport partitionHybrid(const Module& module) {
  PartitionReport report;
  const Function* entry = module.entryFunction();
  if (entry == nullptr) {
    return report;
  }
  const auto tainted = qir::measurementDependents(*entry);
  for (const auto& block : entry->blocks()) {
    for (const auto& inst : block->instructions()) {
      Placement placement = Placement::ClassicalHost;
      if (isQisCall(*inst)) {
        placement = Placement::Quantum;
      } else if (tainted.count(inst.get()) != 0) {
        placement = Placement::ClassicalFeedback;
      }
      report.placements.emplace_back(inst.get(), placement);
      ++report.counts[placement];
    }
  }
  return report;
}

FeasibilityReport checkFeasibility(const Module& module, const LatencyModel& model,
                                   double coherenceBudgetNs) {
  FeasibilityReport report;
  report.coherenceBudgetNs = coherenceBudgetNs;
  const Function* entry = module.entryFunction();
  if (entry == nullptr) {
    return report;
  }
  const auto tainted = qir::measurementDependents(*entry);

  for (const auto& block : entry->blocks()) {
    const Instruction* term = block->terminator();
    if (term == nullptr || tainted.count(term) == 0 || term->numSuccessors() == 0) {
      continue;
    }
    // A feedback decision: a branch whose condition depends on measurement
    // results. It matters only if quantum operations are downstream.
    const Instruction* firstQuantum = nullptr;
    bool gating = false;
    for (unsigned s = 0; s < term->numSuccessors() && !gating; ++s) {
      gating = reachesQuantum(term->successor(s), firstQuantum);
    }
    if (!gating) {
      continue; // host-side post-processing of results; no deadline
    }
    FeedbackPath path;
    path.dependentQuantum = firstQuantum;
    double latency = model.instructionCost(*term);
    for (const Instruction* inst : backwardSlice(term)) {
      if (inst == term) {
        continue;
      }
      if (qir::readsMeasurement(*inst)) {
        path.readResult = inst;
        latency += model.readResultNs;
        continue;
      }
      const double cost = model.instructionCost(*inst);
      if (cost < 0) {
        path.supported = false;
        path.unsupportedReason = std::string("co-processor cannot execute '") +
                                 opcodeName(inst->op()) + "'";
      } else {
        latency += cost;
      }
      ++path.classicalOps;
    }
    path.classicalLatencyNs = latency;
    if (!path.supported) {
      report.feasible = false;
      report.reasons.push_back(path.unsupportedReason);
    } else if (latency > coherenceBudgetNs) {
      report.feasible = false;
      report.reasons.push_back(
          "feedback path needs " + std::to_string(latency) +
          " ns but the coherence budget is " + std::to_string(coherenceBudgetNs) +
          " ns");
    }
    report.worstPathNs = std::max(report.worstPathNs, latency);
    report.paths.push_back(std::move(path));
  }
  return report;
}

} // namespace qirkit::hybrid
