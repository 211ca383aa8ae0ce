#include "ir/printer.hpp"

#include "support/string_utils.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

namespace qirkit::ir {
namespace {

/// True if \p name can be printed without quotes.
bool isPlainName(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  if (!isIdentStart(name.front()) && name.front() != '-' &&
      (name.front() < '0' || name.front() > '9')) {
    return false;
  }
  for (const char c : name) {
    if (!isIdentChar(c)) {
      return false;
    }
  }
  return true;
}

std::string sigilName(char sigil, const std::string& name) {
  if (isPlainName(name)) {
    return std::string(1, sigil) + name;
  }
  return std::string(1, sigil) + quoteString(name);
}

/// Assigns printable local names: unnamed values get LLVM-style sequential
/// numbers; named values keep their name unless it collides with an
/// earlier one (clones), in which case a ".N" suffix is appended.
class Numbering {
public:
  explicit Numbering(const Function& fn) {
    unsigned next = 0;
    const auto assign = [this, &next](const Value* v) {
      if (!v->hasName()) {
        std::string numeric;
        do {
          numeric = std::to_string(next++);
        } while (!taken_.insert(numeric).second);
        names_[v] = std::move(numeric);
        return;
      }
      std::string name = v->name();
      if (!taken_.insert(name).second) {
        // Suffixes up to the last one this name took are all taken, so the
        // search resumes there: n clones of one name cost O(n), not O(n^2).
        unsigned& suffix = lastSuffix_[v->name()];
        do {
          name = v->name() + "." + std::to_string(++suffix);
        } while (!taken_.insert(name).second);
      }
      names_[v] = std::move(name);
    };
    for (unsigned i = 0; i < fn.numArgs(); ++i) {
      assign(fn.arg(i));
    }
    for (const auto& block : fn.blocks()) {
      assign(block.get());
      for (const auto& inst : block->instructions()) {
        if (!inst->type()->isVoid()) {
          assign(inst.get());
        }
      }
    }
  }

  [[nodiscard]] std::string nameOf(const Value* v) const {
    const auto it = names_.find(v);
    assert(it != names_.end() && "value was not assigned a printable name");
    return sigilName('%', it->second);
  }

  /// The bare (unsigiled) printable name, for block labels.
  [[nodiscard]] const std::string& bareNameOf(const Value* v) const {
    const auto it = names_.find(v);
    assert(it != names_.end());
    return it->second;
  }

private:
  std::map<const Value*, std::string> names_;
  std::set<std::string> taken_;
  std::map<std::string, unsigned> lastSuffix_;
};

class FunctionPrinter {
public:
  FunctionPrinter(const Function& fn, std::ostringstream& out)
      : fn_(fn), numbering_(fn), out_(out) {}

  void print() {
    out_ << (fn_.isDeclaration() ? "declare " : "define ")
         << fn_.returnType()->str() << " " << sigilName('@', fn_.name()) << "(";
    const auto params = fn_.functionType()->paramTypes();
    for (unsigned i = 0; i < params.size(); ++i) {
      if (i != 0) {
        out_ << ", ";
      }
      out_ << params[i]->str();
      if (!fn_.isDeclaration()) {
        out_ << " " << numbering_.nameOf(fn_.arg(i));
      }
    }
    out_ << ")";
    if (attrGroup_ >= 0) {
      out_ << " #" << attrGroup_;
    }
    if (fn_.isDeclaration()) {
      out_ << "\n";
      return;
    }
    out_ << " {\n";
    for (std::size_t b = 0; b < fn_.blocks().size(); ++b) {
      const BasicBlock& block = *fn_.blocks()[b];
      if (b != 0) {
        out_ << "\n";
      }
      printBlockLabel(block);
      for (const auto& inst : block.instructions()) {
        out_ << "  ";
        printInstruction(*inst);
        out_ << "\n";
      }
    }
    out_ << "}\n";
  }

  void setAttrGroup(int group) noexcept { attrGroup_ = group; }

private:
  void printBlockLabel(const BasicBlock& block) {
    // Labels are printed without the % sigil (numeric labels are printed
    // literally so our own parser can reparse them).
    const std::string& name = numbering_.bareNameOf(&block);
    if (isPlainName(name)) {
      out_ << name << ":\n";
    } else {
      out_ << quoteString(name) << ":\n";
    }
  }

  /// Render a value reference (without its type).
  std::string ref(const Value* v) {
    switch (v->kind()) {
    case Value::Kind::ConstantInt: {
      const auto* c = static_cast<const ConstantInt*>(v);
      if (c->type()->isInteger(1)) {
        return c->isZero() ? "false" : "true";
      }
      return std::to_string(c->value());
    }
    case Value::Kind::ConstantFP: {
      // A NaN or an infinity has no decimal spelling; LLVM, and the
      // parser, take its bit pattern in hex.
      const double value = static_cast<const ConstantFP*>(v)->value();
      if (std::isfinite(value)) {
        return formatDouble(value);
      }
      char hex[19];
      std::snprintf(hex, sizeof hex, "0x%016llX",
                    static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(value)));
      return hex;
    }
    case Value::Kind::ConstantPointerNull:
      return "null";
    case Value::Kind::ConstantIntToPtr:
      return "inttoptr (i64 " +
             std::to_string(static_cast<const ConstantIntToPtr*>(v)->address()) +
             " to ptr)";
    case Value::Kind::Undef:
      return "undef";
    case Value::Kind::Function:
    case Value::Kind::GlobalVariable:
      return sigilName('@', v->name());
    case Value::Kind::BasicBlock:
      return numbering_.nameOf(v);
    case Value::Kind::Argument:
    case Value::Kind::Instruction:
      return numbering_.nameOf(v);
    case Value::Kind::ForwardRef:
      return "<forward-ref>";
    }
    return "<bad value>";
  }

  /// Render "type ref" for an operand.
  std::string typedRef(const Value* v) { return v->type()->str() + " " + ref(v); }

  void printInstruction(const Instruction& inst) {
    if (!inst.type()->isVoid()) {
      out_ << numbering_.nameOf(&inst) << " = ";
    }
    const Opcode op = inst.op();
    out_ << opcodeName(op);
    if (isBinaryOp(op)) {
      out_ << " " << typedRef(inst.operand(0)) << ", " << ref(inst.operand(1));
      return;
    }
    if (isCastOp(op)) {
      out_ << " " << typedRef(inst.operand(0)) << " to " << inst.type()->str();
      return;
    }
    switch (op) {
    case Opcode::Ret:
      out_ << " " << (inst.numOperands() == 0 ? "void" : typedRef(inst.operand(0)));
      return;
    case Opcode::Br:
      if (inst.isConditionalBr()) {
        out_ << " i1 " << ref(inst.brCondition()) << ", label "
             << ref(inst.operand(1)) << ", label " << ref(inst.operand(2));
      } else {
        out_ << " label " << ref(inst.operand(0));
      }
      return;
    case Opcode::Switch: {
      out_ << " " << typedRef(inst.operand(0)) << ", label " << ref(inst.operand(1))
           << " [";
      for (unsigned i = 0; i < inst.numSwitchCases(); ++i) {
        out_ << "\n    " << typedRef(inst.switchCaseValue(i)) << ", label "
             << ref(inst.switchCaseDest(i));
      }
      out_ << "\n  ]";
      return;
    }
    case Opcode::Unreachable:
      return;
    case Opcode::Alloca:
      out_ << " " << inst.allocatedType()->str() << ", align 8";
      return;
    case Opcode::Load:
      out_ << " " << inst.type()->str() << ", " << typedRef(inst.operand(0))
           << ", align " << std::max<std::uint64_t>(1, inst.type()->storeSize());
      return;
    case Opcode::Store:
      out_ << " " << typedRef(inst.operand(0)) << ", " << typedRef(inst.operand(1))
           << ", align "
           << std::max<std::uint64_t>(1, inst.operand(0)->type()->storeSize());
      return;
    case Opcode::ICmp:
      out_ << " " << icmpPredName(inst.icmpPred()) << " "
           << typedRef(inst.operand(0)) << ", " << ref(inst.operand(1));
      return;
    case Opcode::FCmp:
      out_ << " " << fcmpPredName(inst.fcmpPred()) << " "
           << typedRef(inst.operand(0)) << ", " << ref(inst.operand(1));
      return;
    case Opcode::Phi: {
      out_ << " " << inst.type()->str() << " ";
      for (unsigned i = 0; i < inst.numIncoming(); ++i) {
        if (i != 0) {
          out_ << ", ";
        }
        out_ << "[ " << ref(inst.incomingValue(i)) << ", "
             << ref(inst.incomingBlock(i)) << " ]";
      }
      return;
    }
    case Opcode::Select:
      out_ << " " << typedRef(inst.operand(0)) << ", " << typedRef(inst.operand(1))
           << ", " << typedRef(inst.operand(2));
      return;
    default: // Call: the binary and cast classes are printed above
      out_ << " " << inst.callee()->returnType()->str() << " "
           << sigilName('@', inst.callee()->name()) << "(";
      for (unsigned i = 0; i < inst.numOperands(); ++i) {
        if (i != 0) {
          out_ << ", ";
        }
        out_ << typedRef(inst.operand(i));
      }
      out_ << ")";
      return;
    }
  }

  const Function& fn_;
  Numbering numbering_;
  std::ostringstream& out_;
  int attrGroup_ = -1;
};

} // namespace

std::string printFunction(const Function& fn) {
  std::ostringstream out;
  FunctionPrinter(fn, out).print();
  return out.str();
}

std::string printModule(const Module& module) {
  std::ostringstream out;
  out << "; ModuleID = '" << module.name() << "'\n";

  if (!module.globals().empty()) {
    out << "\n";
    for (const auto& global : module.globals()) {
      out << sigilName('@', global->name()) << " = internal"
          << (global->isConstant() ? " constant " : " global ")
          << global->valueType()->str() << " c"
          << quoteString(global->initializer()) << "\n";
    }
  }

  // Assign attribute groups: one per distinct non-empty attribute map.
  std::map<std::map<std::string, std::string>, int> attrGroups;
  for (const auto& fn : module.functions()) {
    if (!fn->attributes().empty()) {
      attrGroups.emplace(fn->attributes(), 0);
    }
  }
  int next = 0;
  for (auto& [attrs, id] : attrGroups) {
    id = next++;
  }

  for (const auto& fn : module.functions()) {
    out << "\n";
    FunctionPrinter printer(*fn, out);
    if (!fn->attributes().empty()) {
      printer.setAttrGroup(attrGroups.at(fn->attributes()));
    }
    printer.print();
  }

  if (!attrGroups.empty()) {
    out << "\n";
    for (const auto& [attrs, id] : attrGroups) {
      out << "attributes #" << id << " = {";
      for (const auto& [key, value] : attrs) {
        out << " " << quoteString(key);
        if (!value.empty()) {
          out << "=" << quoteString(value);
        }
      }
      out << " }\n";
    }
  }
  return out.str();
}

} // namespace qirkit::ir
