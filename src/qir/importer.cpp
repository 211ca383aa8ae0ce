#include "qir/importer.hpp"

#include "passes/pass.hpp"
#include "qir/names.hpp"
#include "support/source_location.hpp"
#include "support/string_utils.hpp"
#include "support/telemetry/telemetry.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

namespace qirkit::qir {

using circuit::Circuit;
using circuit::Condition;
using circuit::OpKind;
using circuit::Operation;

namespace {

// ---------------------------------------------------------------------------
// Shared abstract evaluation machinery
// ---------------------------------------------------------------------------

/// Abstract value tracked during import. `Slot` refers into the machine's
/// slot table (stack locations holding pointers); `MeasBit` is the i1
/// produced by read_result.
struct AbsVal {
  enum class Kind : std::uint8_t {
    None,
    Int,
    Double,
    StaticPtr,   // inttoptr constant / null: qubit-or-result id, use-site typed
    QubitPtr,    // resolved qubit index
    ResultPtr,   // resolved classical bit index
    QubitArray,  // base index + count
    ResultArray, // base index + count
    Slot,        // stack slot id
    MeasBit,     // measurement outcome: conjunction of (bit, expected) tests
    Label,       // pointer to a label global (output recording)
  };
  Kind kind = Kind::None;
  std::int64_t i = 0;
  double d = 0.0;
  std::uint32_t base = 0;
  std::uint32_t count = 0;
  std::vector<std::pair<std::uint32_t, bool>> tests; // MeasBit

  static AbsVal makeInt(std::int64_t v) {
    AbsVal a;
    a.kind = Kind::Int;
    a.i = v;
    return a;
  }
  static AbsVal makeDouble(double v) {
    AbsVal a;
    a.kind = Kind::Double;
    a.d = v;
    return a;
  }
  static AbsVal make(Kind kind, std::uint32_t base, std::uint32_t count = 0) {
    AbsVal a;
    a.kind = kind;
    a.base = base;
    a.count = count;
    return a;
  }
};

/// The import machine: interprets the QIR runtime/qis calls abstractly and
/// grows a circuit. Shared by the text pattern parser and the AST walker.
class ImportMachine {
public:
  [[nodiscard]] Circuit finish() { return std::move(circuit_); }

  [[noreturn]] void fail(const std::string& message) const {
    throw qirkit::ParseError(loc_, "QIR import: " + message);
  }

  /// Callers with source knowledge (the line-oriented pattern parser) pin
  /// the location subsequent import failures are reported at; the AST
  /// walker has no line info and leaves it unset.
  void setLoc(SourceLoc loc) noexcept { loc_ = loc; }

  /// The frontends' width bound: no program imports past this many
  /// qubits or bits, so no address, count or index is ever narrowed.
  static constexpr std::uint64_t kMaxWidth = passes::kMaxExpandedModuleSize;

  /// A static address (an inttoptr constant): the qubit or result id it
  /// names. An address past the width bound (a negative i64 included) is
  /// refused.
  [[nodiscard]] AbsVal staticPtr(std::uint64_t address) const {
    if (address >= kMaxWidth) {
      fail("static address " + std::to_string(address) + " is past the width bound (" +
           std::to_string(kMaxWidth) + ")");
    }
    return AbsVal::make(AbsVal::Kind::StaticPtr, static_cast<std::uint32_t>(address));
  }

  std::uint32_t resolveQubit(const AbsVal& v) {
    switch (v.kind) {
    case AbsVal::Kind::StaticPtr:
      // Static addressing (Ex. 6): the address is the qubit id.
      ensureQubits(std::uint64_t{v.base} + 1);
      return v.base;
    case AbsVal::Kind::QubitPtr:
      return v.base;
    default:
      fail("expected a qubit pointer operand");
    }
  }

  std::uint32_t resolveResult(const AbsVal& v) {
    switch (v.kind) {
    case AbsVal::Kind::StaticPtr:
      ensureBits(std::uint64_t{v.base} + 1);
      return v.base;
    case AbsVal::Kind::ResultPtr:
      return v.base;
    default:
      fail("expected a result pointer operand");
    }
  }

  void ensureQubits(std::uint64_t n) {
    if (n > kMaxWidth) {
      fail("the program needs more than " + std::to_string(kMaxWidth) + " qubits");
    }
    if (circuit_.numQubits() < n) {
      circuit_.setNumQubits(static_cast<std::uint32_t>(n));
    }
  }
  void ensureBits(std::uint64_t n) {
    if (n > kMaxWidth) {
      fail("the program needs more than " + std::to_string(kMaxWidth) + " bits");
    }
    if (circuit_.numBits() < n) {
      circuit_.setNumBits(static_cast<std::uint32_t>(n));
    }
  }

  /// Handle a `__quantum__rt__*` call; returns the call's abstract result.
  AbsVal callRt(std::string_view name, const std::vector<AbsVal>& args) {
    if (name == kRtQubitAllocate) {
      const std::uint32_t base = circuit_.numQubits();
      ensureQubits(base + 1);
      return AbsVal::make(AbsVal::Kind::QubitPtr, base);
    }
    if (name == kRtQubitAllocateArray) {
      requireArgs(name, args, 1);
      if (args[0].kind != AbsVal::Kind::Int || args[0].i < 0) {
        fail("qubit_allocate_array requires a constant count");
      }
      const std::uint32_t base = circuit_.numQubits();
      ensureQubits(base + static_cast<std::uint64_t>(args[0].i));
      return AbsVal::make(AbsVal::Kind::QubitArray, base,
                          static_cast<std::uint32_t>(args[0].i));
    }
    if (name == kRtArrayCreate1d) {
      requireArgs(name, args, 2);
      if (args[1].kind != AbsVal::Kind::Int || args[1].i < 0) {
        fail("array_create_1d requires a constant count");
      }
      const std::uint32_t base = circuit_.numBits();
      ensureBits(base + static_cast<std::uint64_t>(args[1].i));
      return AbsVal::make(AbsVal::Kind::ResultArray, base,
                          static_cast<std::uint32_t>(args[1].i));
    }
    if (name == kRtArrayGetElementPtr1d) {
      requireArgs(name, args, 2);
      if (args[1].kind != AbsVal::Kind::Int) {
        fail("array_get_element_ptr_1d requires a constant index");
      }
      const std::int64_t index = args[1].i;
      const bool inRange = index >= 0 && index < std::int64_t{args[0].count};
      if (args[0].kind == AbsVal::Kind::QubitArray) {
        if (!inRange) {
          fail("qubit array index out of range");
        }
        return AbsVal::make(AbsVal::Kind::QubitPtr,
                            args[0].base + static_cast<std::uint32_t>(index));
      }
      if (args[0].kind == AbsVal::Kind::ResultArray) {
        if (!inRange) {
          fail("result array index out of range");
        }
        return AbsVal::make(AbsVal::Kind::ResultPtr,
                            args[0].base + static_cast<std::uint32_t>(index));
      }
      fail("array_get_element_ptr_1d on a non-array value");
    }
    if (name == kRtArrayGetSize1d) {
      requireArgs(name, args, 1);
      if (args[0].kind == AbsVal::Kind::QubitArray ||
          args[0].kind == AbsVal::Kind::ResultArray) {
        return AbsVal::makeInt(args[0].count);
      }
      fail("array_get_size_1d on a non-array value");
    }
    if (name == kRtQubitRelease || name == kRtQubitReleaseArray ||
        name == kRtArrayUpdateRefCount || name == kRtInitialize ||
        name == kRtResultRecordOutput || name == kRtArrayRecordOutput) {
      return {};
    }
    fail("unsupported runtime function '" + std::string(name) + "'");
  }

  /// Handle a `__quantum__qis__*` call. read_result returns a MeasBit.
  AbsVal callQis(std::string_view name, const std::vector<AbsVal>& args,
                 const std::optional<Condition>& condition) {
    if (name == kQisReadResult) {
      requireArgs(name, args, 1);
      AbsVal out;
      out.kind = AbsVal::Kind::MeasBit;
      out.tests = {{resolveResult(args[0]), true}};
      return out;
    }
    const auto kind = opKindForQis(name);
    if (!kind) {
      fail("unknown quantum instruction '" + std::string(name) + "'");
    }
    Operation op;
    op.kind = *kind;
    op.condition = condition;
    if (*kind == OpKind::Measure) {
      requireArgs(name, args, 2);
      op.qubits = {resolveQubit(args[0])};
      op.bit = resolveResult(args[1]);
    } else {
      const unsigned params = circuit::opKindParams(*kind);
      requireArgs(name, args, params + circuit::opKindArity(*kind));
      for (unsigned p = 0; p < params; ++p) {
        if (args[p].kind != AbsVal::Kind::Double) {
          fail("rotation angle must be a double constant");
        }
        op.params.push_back(args[p].d);
      }
      for (std::size_t q = params; q < args.size(); ++q) {
        op.qubits.push_back(resolveQubit(args[q]));
      }
    }
    circuit_.add(std::move(op));
    return {};
  }

  /// Build a circuit Condition from a MeasBit conjunction (used for
  /// branches on measurement results).
  Condition conditionFrom(const AbsVal& v, bool branchTaken) const {
    if (v.kind != AbsVal::Kind::MeasBit || v.tests.empty()) {
      throw qirkit::ParseError(loc_,
                               "QIR import: branch condition does not derive "
                               "from measurement results");
    }
    std::vector<std::pair<std::uint32_t, bool>> tests = v.tests;
    std::sort(tests.begin(), tests.end());
    if (!branchTaken && tests.size() > 1) {
      throw qirkit::ParseError(
          loc_, "QIR import: negated multi-bit conditions are not representable");
    }
    const std::uint32_t first = tests.front().first;
    for (std::size_t i = 0; i < tests.size(); ++i) {
      if (tests[i].first != first + i) {
        throw qirkit::ParseError(
            loc_, "QIR import: condition bits are not contiguous");
      }
    }
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < tests.size(); ++i) {
      const bool expected = branchTaken ? tests[i].second : !tests[i].second;
      if (expected) {
        value |= std::uint64_t{1} << i;
      }
    }
    return Condition{first, static_cast<std::uint32_t>(tests.size()), value};
  }

private:
  void requireArgs(std::string_view name, const std::vector<AbsVal>& args,
                   std::size_t n) const {
    if (args.size() != n) {
      fail("wrong argument count for '" + std::string(name) + "'");
    }
  }

  SourceLoc loc_{};
  Circuit circuit_;
};

// ---------------------------------------------------------------------------
// Route (a1): the Ex. 3 pattern parser (no AST)
// ---------------------------------------------------------------------------

class PatternParser {
public:
  explicit PatternParser(std::string_view text) : text_(text) {}

  Circuit run() {
    bool inEntry = false;
    bool sawDefine = false;
    std::uint32_t lineNo = 0;
    for (const std::string_view rawLine : splitLines(text_)) {
      ++lineNo;
      lineNo_ = lineNo;
      machine_.setLoc({lineNo_, 1});
      std::string_view line = trim(rawLine);
      // Strip trailing comment.
      if (const std::size_t comment = line.find(';');
          comment != std::string_view::npos) {
        line = trim(line.substr(0, comment));
      }
      if (line.empty()) {
        continue;
      }
      if (line.starts_with("define ")) {
        if (sawDefine) {
          fail(line, "multiple function definitions; base profile expects one");
        }
        sawDefine = true;
        inEntry = true;
        continue;
      }
      if (!inEntry) {
        // Globals, declares, attributes, metadata: irrelevant to the
        // pattern parser.
        continue;
      }
      if (line == "}") {
        inEntry = false;
        continue;
      }
      parseBodyLine(line);
    }
    if (!sawDefine) {
      fail("", "no function definition found");
    }
    return machine_.finish();
  }

private:
  [[noreturn]] void fail(std::string_view line, const std::string& message) const {
    throw qirkit::ParseError({lineNo_, 1},
                             "base-profile pattern parser: " + message +
                                 (line.empty() ? std::string{}
                                               : " in '" + std::string(line) + "'"));
  }

  void parseBodyLine(std::string_view line) {
    // Alignment suffixes carry no information for the pattern matcher.
    if (const std::size_t align = line.rfind(", align ");
        align != std::string_view::npos) {
      line = trim(line.substr(0, align));
    }
    if (line == "ret void") {
      return;
    }
    if (line.ends_with(":") && !line.starts_with("%")) {
      // The single entry label is fine; any further label means branching.
      if (++labelCount_ > 1) {
        fail(line, "control flow requires the adaptive profile; use the full "
                   "IR parser route");
      }
      return;
    }
    if (line.starts_with("br ") || line.starts_with("switch ")) {
      // This is the limitation the paper describes: the simple line
      // iterator covers the base profile only.
      fail(line, "control flow requires the adaptive profile; use the full "
                 "IR parser route");
    }
    // Optional "%name = " prefix.
    std::string resultName;
    std::string_view rest = line;
    if (line.starts_with("%")) {
      const std::size_t eq = line.find('=');
      if (eq == std::string_view::npos) {
        fail(line, "unrecognized statement");
      }
      resultName = std::string(trim(line.substr(0, eq)));
      rest = trim(line.substr(eq + 1));
    }
    if (rest.starts_with("alloca ")) {
      env_[resultName] = AbsVal::make(AbsVal::Kind::Slot, nextSlot_++);
      return;
    }
    if (rest.starts_with("load ")) {
      // %x = load ptr, ptr %slot, align 8
      const std::size_t comma = rest.find(',');
      if (comma == std::string_view::npos) {
        fail(line, "malformed load");
      }
      const AbsVal pointer = parseOperandToken(trim(rest.substr(comma + 1)), line);
      if (pointer.kind == AbsVal::Kind::Slot) {
        env_[resultName] = slots_[pointer.base];
      } else if (pointer.kind == AbsVal::Kind::QubitPtr ||
                 pointer.kind == AbsVal::Kind::StaticPtr) {
        // Spec-style load of the qubit handle from the array element.
        env_[resultName] = pointer;
      } else {
        fail(line, "load from unsupported location");
      }
      return;
    }
    if (rest.starts_with("store ")) {
      // store ptr %v, ptr %slot, align 8
      auto args = splitArgs(rest.substr(6));
      if (args.size() != 2) {
        fail(line, "malformed store");
      }
      const AbsVal value = parseOperandToken(args[0], line);
      const AbsVal pointer = parseOperandToken(args[1], line);
      if (pointer.kind != AbsVal::Kind::Slot) {
        fail(line, "store to a non-stack location");
      }
      slots_[pointer.base] = value;
      return;
    }
    if (rest.starts_with("tail call ")) {
      rest = rest.substr(5);
    }
    if (rest.starts_with("call ")) {
      parseCall(rest.substr(5), resultName, line);
      return;
    }
    fail(line, "unsupported instruction (classical computation needs the full "
               "IR route)");
  }

  void parseCall(std::string_view call, const std::string& resultName,
                 std::string_view line) {
    // <retty> @callee(<args>)
    const std::size_t at = call.find('@');
    const std::size_t open = call.find('(', at);
    if (at == std::string_view::npos || open == std::string_view::npos ||
        !call.ends_with(")")) {
      fail(line, "malformed call");
    }
    const std::string_view callee = trim(call.substr(at + 1, open - at - 1));
    const std::string_view argList = call.substr(open + 1, call.size() - open - 2);
    std::vector<AbsVal> args;
    if (!trim(argList).empty()) {
      for (const std::string_view argToken : splitArgs(argList)) {
        args.push_back(parseOperandToken(argToken, line));
      }
    }
    AbsVal result;
    if (isRtFunction(callee)) {
      result = machine_.callRt(callee, args);
    } else if (isQisFunction(callee)) {
      if (callee == kQisReadResult) {
        fail(line, "read_result implies classical feedback (adaptive "
                   "profile); use the full IR parser route");
      }
      result = machine_.callQis(callee, args, std::nullopt);
    } else {
      fail(line, "call to non-quantum function");
    }
    if (!resultName.empty()) {
      env_[resultName] = result;
    }
  }

  /// Split "ptr %a, i64 3, ptr inttoptr (i64 1 to ptr)" at depth-0 commas.
  static std::vector<std::string_view> splitArgs(std::string_view s) {
    std::vector<std::string_view> out;
    int depth = 0;
    std::size_t start = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] == '(') {
        ++depth;
      } else if (s[i] == ')') {
        --depth;
      } else if (s[i] == ',' && depth == 0) {
        out.push_back(trim(s.substr(start, i - start)));
        start = i + 1;
      }
    }
    out.push_back(trim(s.substr(start)));
    return out;
  }

  /// Parse one "<type> [attrs] <value>" operand token.
  AbsVal parseOperandToken(std::string_view token, std::string_view line) {
    // Drop the type and any attribute words; the value is the last
    // whitespace-separated element unless it is an inttoptr expression.
    token = trim(token);
    if (const std::size_t pos = token.find("inttoptr");
        pos != std::string_view::npos) {
      // inttoptr (i64 N to ptr)
      const std::size_t open = token.find('(', pos);
      const std::size_t close = token.rfind(')');
      if (open == std::string_view::npos || close == std::string_view::npos) {
        fail(line, "malformed inttoptr expression");
      }
      const auto inner = trim(token.substr(open + 1, close - open - 1));
      // "i64 N to ptr"
      const std::size_t space = inner.find(' ');
      const std::size_t to = inner.rfind(" to ");
      if (space == std::string_view::npos || to == std::string_view::npos) {
        fail(line, "malformed inttoptr expression");
      }
      const auto number = parseInt(trim(inner.substr(space + 1, to - space - 1)));
      if (!number) {
        fail(line, "non-constant inttoptr operand");
      }
      return machine_.staticPtr(static_cast<std::uint64_t>(*number));
    }
    const std::size_t lastSpace = token.rfind(' ');
    const std::string_view value =
        lastSpace == std::string_view::npos ? token : token.substr(lastSpace + 1);
    const std::string_view type =
        lastSpace == std::string_view::npos
            ? std::string_view{}
            : trim(token.substr(0, token.find(' ')));
    if (value == "null") {
      return AbsVal::make(AbsVal::Kind::StaticPtr, 0);
    }
    if (value.starts_with("%")) {
      const auto it = env_.find(std::string(value));
      if (it == env_.end()) {
        fail(line, "use of undefined value '" + std::string(value) + "'");
      }
      return it->second;
    }
    if (value.starts_with("@")) {
      return AbsVal::make(AbsVal::Kind::Label, 0);
    }
    if (type == "double") {
      const auto d = parseDouble(value);
      if (!d) {
        fail(line, "malformed double literal");
      }
      return AbsVal::makeDouble(*d);
    }
    const auto i = parseInt(value);
    if (!i) {
      fail(line, "malformed operand '" + std::string(value) + "'");
    }
    return AbsVal::makeInt(*i);
  }

  std::string_view text_;
  ImportMachine machine_;
  std::map<std::string, AbsVal> env_;
  std::map<std::uint32_t, AbsVal> slots_;
  std::uint32_t nextSlot_ = 0;
  std::uint32_t lineNo_ = 0;
  std::uint32_t labelCount_ = 0;
};

// ---------------------------------------------------------------------------
// Route (a2): full-AST import by abstract evaluation
// ---------------------------------------------------------------------------

class ModuleImporter {
public:
  explicit ModuleImporter(const ir::Module& module) : module_(module) {}

  Circuit run() {
    const ir::Function* entry = module_.entryFunction();
    if (entry == nullptr) {
      machine_.fail("module has no entry-point definition");
    }
    const ir::BasicBlock* block = entry->entry();
    while (block != nullptr) {
      block = evalBlock(block, std::nullopt);
    }
    return machine_.finish();
  }

private:
  /// Evaluate one block; returns the next block to continue with (nullptr
  /// after ret). When \p condition is set we are inside a then-arm and the
  /// block must end with an unconditional branch.
  const ir::BasicBlock* evalBlock(const ir::BasicBlock* block,
                                  const std::optional<Condition>& condition) {
    using ir::Opcode;
    for (const auto& inst : block->instructions()) {
      switch (inst->op()) {
      case Opcode::Phi:
        machine_.fail("phi nodes are not importable (run SimplifyCFG / "
                      "unrolling first)");
      case Opcode::Alloca: {
        AbsVal slot = AbsVal::make(AbsVal::Kind::Slot, nextSlot_++);
        env_[inst.get()] = slot;
        continue;
      }
      case Opcode::Load: {
        const AbsVal pointer = eval(inst->operand(0));
        if (pointer.kind == AbsVal::Kind::Slot) {
          env_[inst.get()] = slots_[pointer.base];
        } else if (pointer.kind == AbsVal::Kind::QubitPtr ||
                   pointer.kind == AbsVal::Kind::StaticPtr) {
          env_[inst.get()] = pointer; // spec-style handle load
        } else {
          machine_.fail("load from unsupported location");
        }
        continue;
      }
      case Opcode::Store: {
        const AbsVal value = eval(inst->operand(0));
        const AbsVal pointer = eval(inst->operand(1));
        if (pointer.kind != AbsVal::Kind::Slot) {
          machine_.fail("store to a non-stack location");
        }
        slots_[pointer.base] = value;
        continue;
      }
      case Opcode::Call: {
        const std::string& callee = inst->callee()->name();
        std::vector<AbsVal> args;
        args.reserve(inst->numOperands());
        for (unsigned a = 0; a < inst->numOperands(); ++a) {
          args.push_back(eval(inst->operand(a)));
        }
        AbsVal result;
        if (isRtFunction(callee)) {
          result = machine_.callRt(callee, args);
        } else if (isQisFunction(callee)) {
          result = machine_.callQis(callee, args, condition);
        } else {
          machine_.fail("call to non-quantum function '" + callee +
                        "' (inline or fold it first)");
        }
        env_[inst.get()] = result;
        continue;
      }
      case Opcode::IntToPtr: {
        const AbsVal v = eval(inst->operand(0));
        if (v.kind != AbsVal::Kind::Int) {
          machine_.fail("dynamic inttoptr is not importable");
        }
        env_[inst.get()] = machine_.staticPtr(static_cast<std::uint64_t>(v.i));
        continue;
      }
      case Opcode::Xor: {
        // `xor %measbit, true` — negation in condition chains.
        const AbsVal lhs = eval(inst->operand(0));
        const AbsVal rhs = eval(inst->operand(1));
        if (lhs.kind == AbsVal::Kind::MeasBit && rhs.kind == AbsVal::Kind::Int &&
            rhs.i != 0 && lhs.tests.size() == 1) {
          AbsVal out = lhs;
          out.tests[0].second = !out.tests[0].second;
          env_[inst.get()] = out;
          continue;
        }
        if (lhs.kind == AbsVal::Kind::Int && rhs.kind == AbsVal::Kind::Int) {
          env_[inst.get()] = AbsVal::makeInt(lhs.i ^ rhs.i);
          continue;
        }
        machine_.fail("unsupported xor in imported program");
      }
      case Opcode::And: {
        const AbsVal lhs = eval(inst->operand(0));
        const AbsVal rhs = eval(inst->operand(1));
        if (lhs.kind == AbsVal::Kind::MeasBit && rhs.kind == AbsVal::Kind::MeasBit) {
          AbsVal out = lhs;
          out.tests.insert(out.tests.end(), rhs.tests.begin(), rhs.tests.end());
          env_[inst.get()] = out;
          continue;
        }
        if (lhs.kind == AbsVal::Kind::Int && rhs.kind == AbsVal::Kind::Int) {
          env_[inst.get()] = AbsVal::makeInt(lhs.i & rhs.i);
          continue;
        }
        machine_.fail("unsupported and in imported program");
      }
      case Opcode::ICmp: {
        const AbsVal lhs = eval(inst->operand(0));
        const AbsVal rhs = eval(inst->operand(1));
        // icmp eq/ne %measbit, true|false
        if (lhs.kind == AbsVal::Kind::MeasBit && rhs.kind == AbsVal::Kind::Int &&
            lhs.tests.size() == 1 &&
            (inst->icmpPred() == ir::ICmpPred::EQ ||
             inst->icmpPred() == ir::ICmpPred::NE)) {
          const bool expectTrue = (rhs.i != 0) == (inst->icmpPred() == ir::ICmpPred::EQ);
          AbsVal out = lhs;
          out.tests[0].second = expectTrue == lhs.tests[0].second;
          env_[inst.get()] = out;
          continue;
        }
        machine_.fail("unsupported comparison in imported program (fold "
                      "classical code first)");
      }
      case Opcode::Ret:
        return nullptr;
      case Opcode::Br: {
        if (!inst->isConditionalBr()) {
          const ir::BasicBlock* next = inst->successor(0);
          return next;
        }
        if (condition.has_value()) {
          machine_.fail("nested measurement conditions are not importable");
        }
        const AbsVal cond = eval(inst->brCondition());
        const ir::BasicBlock* takenArm = inst->successor(0);
        const ir::BasicBlock* otherArm = inst->successor(1);
        // Recognize the diamond: one arm is straight-line and branches to
        // the other successor (the join).
        if (armJoins(takenArm, otherArm)) {
          const Condition c = machine_.conditionFrom(cond, true);
          evalBlock(takenArm, c);
          return otherArm;
        }
        if (armJoins(otherArm, takenArm)) {
          const Condition c = machine_.conditionFrom(cond, false);
          evalBlock(otherArm, c);
          return takenArm;
        }
        machine_.fail("general control flow is not importable into the "
                      "circuit IR (only measurement-conditioned diamonds)");
      }
      default:
        machine_.fail(std::string("unsupported instruction '") +
                      ir::opcodeName(inst->op()) +
                      "' (run the classical pipeline first)");
      }
    }
    machine_.fail("block without terminator");
  }

  /// True if \p arm ends with `br join` (then-arm of a diamond).
  static bool armJoins(const ir::BasicBlock* arm, const ir::BasicBlock* join) {
    const ir::Instruction* term = arm->terminator();
    return term != nullptr && term->op() == ir::Opcode::Br &&
           !term->isConditionalBr() && term->successor(0) == join;
  }

  AbsVal eval(const ir::Value* v) {
    using K = ir::Value::Kind;
    switch (v->kind()) {
    case K::ConstantInt:
      return AbsVal::makeInt(static_cast<const ir::ConstantInt*>(v)->value());
    case K::ConstantFP:
      return AbsVal::makeDouble(static_cast<const ir::ConstantFP*>(v)->value());
    case K::ConstantPointerNull:
      return AbsVal::make(AbsVal::Kind::StaticPtr, 0);
    case K::ConstantIntToPtr:
      return machine_.staticPtr(static_cast<const ir::ConstantIntToPtr*>(v)->address());
    case K::GlobalVariable:
      return AbsVal::make(AbsVal::Kind::Label, 0);
    case K::Instruction: {
      const auto it = env_.find(static_cast<const ir::Instruction*>(v));
      if (it == env_.end()) {
        machine_.fail("use of a value outside the abstract domain");
      }
      return it->second;
    }
    default:
      machine_.fail("unsupported operand kind during import");
    }
  }

  const ir::Module& module_;
  ImportMachine machine_;
  std::map<const ir::Instruction*, AbsVal> env_;
  std::map<std::uint32_t, AbsVal> slots_;
  std::uint32_t nextSlot_ = 0;
};

} // namespace

namespace {
// The "custom parser" adoption route (paper §III.A, route a1 / Ex. 3).
telemetry::Stage g_parseCustom{"parse.custom"};
telemetry::Counter g_parseCustomLines{"parse.custom.lines"};
telemetry::Counter g_parseCustomGates{"parse.custom.gates"};
// Circuit import from a parsed module.
telemetry::Stage g_import{"qir.import"};
} // namespace

Circuit importBaseProfileText(std::string_view qirText) {
  const telemetry::Span span(g_parseCustom);
  Circuit c = PatternParser(qirText).run();
  if (telemetry::enabled()) {
    g_parseCustomLines.addUnchecked(static_cast<std::uint64_t>(
        std::count(qirText.begin(), qirText.end(), '\n') + 1));
    g_parseCustomGates.addUnchecked(c.gateCount());
  }
  return c;
}

Circuit importFromModule(const ir::Module& module) {
  const telemetry::Span span(g_import);
  return ModuleImporter(module).run();
}

} // namespace qirkit::qir
