#include "vm/shot_analysis.hpp"

#include "ir/instruction.hpp"
#include "qir/names.hpp"

#include <map>
#include <optional>
#include <set>
#include <vector>

namespace qirkit::vm {

using namespace qirkit::ir;

const char* shotProfileName(ShotProfile profile) noexcept {
  return profile == ShotProfile::Terminal ? "terminal" : "feedback-dependent";
}

namespace {

/// Abstract identity of a qubit argument. Two equal tokens may denote the
/// same qubit; two distinct Static tokens always denote distinct qubits.
/// The abstraction errs toward collision (e.g. every qubit from one
/// allocation call site shares a token), which can only disqualify more
/// programs, never fewer.
struct Token {
  enum class Kind : std::uint8_t {
    Static,  // constant address
    Site,    // qubit_allocate call site
    Array,   // allocate_array / array_create call site (base pointer)
    Elem,    // array element (site, index)
    Unknown,
  } kind = Kind::Unknown;
  const void* site = nullptr; // Site/Elem: the allocating call instruction
  std::uint64_t id = 0;       // Static: address; Elem: element index

  bool operator<(const Token& other) const noexcept {
    if (kind != other.kind) {
      return kind < other.kind;
    }
    if (site != other.site) {
      return site < other.site;
    }
    return id < other.id;
  }
  [[nodiscard]] bool isUnknown() const noexcept { return kind == Kind::Unknown; }
};

/// Per-block dataflow facts: which qubit tokens may have been measured /
/// operated on at block entry, along any path from the function entry.
struct Facts {
  std::set<Token> measured;
  std::set<Token> touched;
  bool measuredUnknown = false; // a qubit we cannot identify was measured
  bool touchedUnknown = false;  // ... was gated/reset
  bool reachable = false;

  bool join(const Facts& other) {
    bool changed = false;
    for (const Token& t : other.measured) {
      changed |= measured.insert(t).second;
    }
    for (const Token& t : other.touched) {
      changed |= touched.insert(t).second;
    }
    if (other.measuredUnknown && !measuredUnknown) {
      measuredUnknown = changed = true;
    }
    if (other.touchedUnknown && !touchedUnknown) {
      touchedUnknown = changed = true;
    }
    if (other.reachable && !reachable) {
      reachable = changed = true;
    }
    return changed;
  }
};

bool calleeNamed(const Instruction* call, std::string_view name) {
  return call->callee() != nullptr && call->callee()->name() == name;
}

/// True if \p fn (a defined function) contains any __quantum__* call.
bool containsQuantumCall(const Function& fn) {
  for (const auto& block : fn.blocks()) {
    for (const auto& inst : block->instructions()) {
      if (inst->op() == Opcode::Call && inst->callee() != nullptr &&
          qir::isQuantumFunction(inst->callee()->name())) {
        return true;
      }
    }
  }
  return false;
}

class Analyzer {
public:
  explicit Analyzer(const ir::Module& module) : module_(module) {}

  ShotAnalysis run() {
    const Function* entry = module_.entryFunction();
    if (entry == nullptr) {
      return fail("module has no executable entry point");
    }
    entry_ = entry;
    // Memory-derived qubit tokens (array elements, loaded handles) are only
    // trustworthy when the program never writes to memory itself; the
    // runtime's own stores (array initialization) are not visible here.
    for (const auto& fn : module_.functions()) {
      for (const auto& block : fn->blocks()) {
        for (const auto& inst : block->instructions()) {
          if (inst->op() == Opcode::Store) {
            hasStores_ = true;
          }
        }
      }
    }
    if (!checkCalls()) {
      return result_;
    }
    if (!checkTaint()) {
      return result_;
    }
    if (!checkOrdering()) {
      return result_;
    }
    return {ShotProfile::Terminal, {}};
  }

private:
  ShotAnalysis fail(std::string reason) {
    result_ = {ShotProfile::FeedbackDependent, std::move(reason)};
    return result_;
  }

  /// Every call in the entry function must be a known QIR function or a
  /// purely classical internal function: quantum operations behind calls
  /// (or unknown externals) are beyond the token abstraction.
  bool checkCalls() {
    for (const auto& block : entry_->blocks()) {
      for (const auto& inst : block->instructions()) {
        if (inst->op() != Opcode::Call) {
          continue;
        }
        const Function* callee = inst->callee();
        if (callee == nullptr) {
          fail("indirect call in the entry point");
          return false;
        }
        if (qir::isQuantumFunction(callee->name())) {
          continue;
        }
        if (callee->isDeclaration()) {
          fail("call to unknown external function @" + callee->name());
          return false;
        }
        if (!classicalCallee(*callee)) {
          fail("quantum operations behind internal call to @" + callee->name());
          return false;
        }
      }
    }
    return true;
  }

  /// \p fn and everything it calls must be quantum-free.
  bool classicalCallee(const Function& fn) {
    const auto [it, inserted] = classicalCache_.try_emplace(&fn, true);
    if (!inserted) {
      return it->second; // already verified (or in progress: recursion is
                         // quantum-free as long as nothing below is quantum)
    }
    bool ok = !containsQuantumCall(fn);
    for (const auto& block : fn.blocks()) {
      for (const auto& inst : block->instructions()) {
        if (!ok) {
          break;
        }
        if (inst->op() == Opcode::Call) {
          const Function* callee = inst->callee();
          if (callee == nullptr ||
              (callee->isDeclaration() && !qir::isQuantumFunction(callee->name()))) {
            ok = false;
          } else if (!callee->isDeclaration()) {
            ok = classicalCallee(*callee);
          }
        }
      }
    }
    classicalCache_[&fn] = ok;
    return ok;
  }

  /// Taint analysis: nothing observable may depend on a measurement
  /// result (qir::measurementDependents, whose sources are read_result
  /// and result_equal calls). Taint must not reach a branch or switch
  /// condition, a store, a call argument, the return value, or an
  /// instruction that may trap.
  bool checkTaint() {
    const auto tainted = qir::measurementDependents(*entry_);
    const auto isTainted = [&](const Value* v) { return tainted.count(v) != 0; };
    for (const auto& block : entry_->blocks()) {
      for (const auto& inst : block->instructions()) {
        switch (inst->op()) {
        case Opcode::Br:
          if (inst->isConditionalBr() && isTainted(inst->brCondition())) {
            fail("branch condition depends on a measurement result");
            return false;
          }
          break;
        case Opcode::Switch:
          if (isTainted(inst->operand(0))) {
            fail("switch condition depends on a measurement result");
            return false;
          }
          break;
        case Opcode::Store:
          if (isTainted(inst->operand(0)) || isTainted(inst->operand(1))) {
            fail("a measurement result is stored to memory");
            return false;
          }
          break;
        case Opcode::Call:
          // read_result/result_equal on a tainted *result pointer* would be
          // odd but is equally disqualifying, so no callee exemption here.
          for (unsigned i = 0; i < inst->numOperands(); ++i) {
            if (isTainted(inst->operand(i))) {
              fail("a measurement result flows into a call to @" +
                   (inst->callee() != nullptr ? inst->callee()->name()
                                              : std::string("<indirect>")));
              return false;
            }
          }
          break;
        case Opcode::Ret:
          if (inst->numOperands() == 1 && isTainted(inst->operand(0))) {
            fail("return value depends on a measurement result");
            return false;
          }
          break;
        default:
          // Whether such an instruction traps differs from shot to shot,
          // and a trap fails the shot, which sampling cannot reproduce.
          if (inst->mayTrap()) {
            for (unsigned i = 0; i < inst->numOperands(); ++i) {
              if (isTainted(inst->operand(i))) {
                fail(std::string("a measurement result feeds a possibly-trapping ") +
                     opcodeName(inst->op()));
                return false;
              }
            }
          }
          break;
        }
      }
    }
    return true;
  }

  Token tokenFor(const Value* v) const {
    switch (v->kind()) {
    case Value::Kind::ConstantIntToPtr:
      return {Token::Kind::Static, nullptr,
              static_cast<const ConstantIntToPtr*>(v)->address()};
    case Value::Kind::ConstantPointerNull:
      return {Token::Kind::Static, nullptr, 0};
    case Value::Kind::Instruction: {
      const auto* inst = static_cast<const Instruction*>(v);
      if (inst->op() == Opcode::Call &&
          calleeNamed(inst, qir::kRtQubitAllocate)) {
        return {Token::Kind::Site, inst, 0};
      }
      if (hasStores_) {
        return {}; // program stores invalidate memory-derived identities
      }
      if (inst->op() == Opcode::Call &&
          calleeNamed(inst, qir::kRtArrayGetElementPtr1d) &&
          inst->numOperands() == 2 &&
          inst->operand(1)->kind() == Value::Kind::ConstantInt) {
        const Token base = tokenFor(inst->operand(0));
        if (base.kind == Token::Kind::Array) {
          return {Token::Kind::Elem, base.site,
                  static_cast<std::uint64_t>(
                      static_cast<const ConstantInt*>(inst->operand(1))->value())};
        }
        return {};
      }
      if (inst->op() == Opcode::Call &&
          (calleeNamed(inst, qir::kRtQubitAllocateArray) ||
           calleeNamed(inst, qir::kRtArrayCreate1d))) {
        return {Token::Kind::Array, inst, 0};
      }
      if (inst->op() == Opcode::Load) {
        // The loaded handle names the same qubit as the slot it came from
        // (no program stores, so the runtime's initialization is the only
        // writer of that slot).
        return tokenFor(inst->operand(0));
      }
      return {};
    }
    default:
      return {};
    }
  }

  /// Token of a value used as a Qubit* argument. An array base pointer
  /// passed directly dereferences its first slot, so it aliases element 0.
  Token qubitTokenFor(const Value* v) const {
    Token t = tokenFor(v);
    if (t.kind == Token::Kind::Array) {
      t.kind = Token::Kind::Elem;
      t.id = 0;
    }
    return t;
  }

  /// The ordering dataflow: no qubit is gated or reset after it may have
  /// been measured, and resets only touch provably fresh qubits.
  bool checkOrdering() {
    const auto& blocks = entry_->blocks();
    std::map<const BasicBlock*, Facts> in;
    in[blocks.front().get()].reachable = true;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& block : blocks) {
        Facts facts = in[block.get()];
        if (!facts.reachable) {
          continue;
        }
        if (!transfer(*block, facts)) {
          return false;
        }
        for (BasicBlock* succ : block->successors()) {
          changed |= in[succ].join(facts);
        }
      }
    }
    return true;
  }

  bool transfer(const BasicBlock& block, Facts& facts) {
    for (const auto& inst : block.instructions()) {
      if (inst->op() != Opcode::Call || inst->callee() == nullptr) {
        continue;
      }
      const std::string& name = inst->callee()->name();
      const std::optional<circuit::OpKind> kind = qir::opKindForQis(name);
      if (kind) {
        // The operand reads below follow the QIR signature.
        const std::size_t expected =
            qir::qirFunctionType(module_.context(), name)->paramTypes().size();
        if (inst->numOperands() != expected) {
          fail("@" + name + " is called with " + std::to_string(inst->numOperands()) +
               " arguments, but its QIR signature takes " + std::to_string(expected));
          return false;
        }
      }
      if (kind && circuit::isUnitary(*kind)) {
        // Gate operands: the angles, then the qubits.
        const unsigned first = circuit::opKindParams(*kind);
        for (unsigned pos = first; pos < first + circuit::opKindArity(*kind); ++pos) {
          const Token t = qubitTokenFor(inst->operand(pos));
          if (facts.measuredUnknown || (t.isUnknown() && !facts.measured.empty()) ||
              (!t.isUnknown() && facts.measured.count(t) != 0)) {
            fail("a qubit may be operated on after being measured (" + name + ")");
            return false;
          }
          touch(facts, t);
        }
      } else if (kind == circuit::OpKind::Measure) {
        const Token t = qubitTokenFor(inst->operand(0));
        touch(facts, t);
        if (t.isUnknown()) {
          facts.measuredUnknown = true;
        } else {
          facts.measured.insert(t);
        }
      } else if (kind == circuit::OpKind::Reset) {
        const Token t = qubitTokenFor(inst->operand(0));
        // A reset of a fresh qubit is a no-op; anything else turns the
        // pure state into a mixture that a single simulation cannot hold.
        if (t.isUnknown() || facts.touchedUnknown || facts.touched.count(t) != 0) {
          fail("reset of a possibly non-|0> qubit");
          return false;
        }
        touch(facts, t);
      }
      // Remaining __quantum__rt__* bookkeeping (allocate, release, arrays,
      // record_output, get_one/zero) and classical internal calls neither
      // touch amplitudes nor observe outcomes.
    }
    return true;
  }

  static void touch(Facts& facts, const Token& t) {
    if (t.isUnknown()) {
      facts.touchedUnknown = true;
    } else {
      facts.touched.insert(t);
    }
  }

  const ir::Module& module_;
  const Function* entry_ = nullptr;
  bool hasStores_ = false;
  std::map<const Function*, bool> classicalCache_;
  ShotAnalysis result_;
};

} // namespace

ShotAnalysis analyzeShotProfile(const ir::Module& module) {
  return Analyzer(module).run();
}

} // namespace qirkit::vm
