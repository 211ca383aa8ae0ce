#include "qir/profiles.hpp"

#include "qir/names.hpp"

namespace qirkit::qir {

using namespace qirkit::ir;

const char* profileName(Profile profile) noexcept {
  switch (profile) {
  case Profile::Base: return "base_profile";
  case Profile::Adaptive: return "adaptive_profile";
  case Profile::Full: return "full";
  }
  return "<bad profile>";
}

namespace {

bool isConstantLike(const Value* v) {
  return v->isConstant() || v->kind() == Value::Kind::GlobalVariable;
}

bool isOutputRecording(std::string_view name) {
  return name == kRtResultRecordOutput || name == kRtArrayRecordOutput;
}

class Validator {
public:
  Validator(const Module& module, Profile profile)
      : module_(module), profile_(profile) {}

  ProfileReport run() {
    const Function* entry = module_.entryFunction();
    if (entry == nullptr) {
      report_.violations.push_back("module has no entry-point definition");
      return report_;
    }
    // Both restricted profiles forbid calling other defined functions from
    // the entry point (everything must be flattened).
    for (const auto& block : entry->blocks()) {
      if (profile_ == Profile::Base && entry->blocks().size() > 1) {
        violation("base profile requires a single straight-line block");
        break;
      }
      for (const auto& inst : block->instructions()) {
        checkInstruction(*inst);
      }
    }
    report_.conforms = report_.violations.empty();
    return report_;
  }

private:
  void violation(std::string message) {
    if (report_.violations.size() < 32) {
      report_.violations.push_back(std::move(message));
    }
  }

  void checkInstruction(const Instruction& inst) {
    const Opcode op = inst.op();
    switch (op) {
    case Opcode::Ret:
      return;
    case Opcode::Call:
      checkCall(inst);
      return;
    case Opcode::Br:
    case Opcode::Switch:
      if (profile_ == Profile::Base) {
        violation("base profile forbids control flow (br/switch)");
      }
      return;
    case Opcode::Alloca:
    case Opcode::Load:
    case Opcode::Store:
      violation(std::string(profileName(profile_)) +
                " forbids stack/heap memory operations (" + opcodeName(op) + ")");
      return;
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv:
    case Opcode::FRem:
    case Opcode::FCmp:
      violation(std::string(profileName(profile_)) +
                " forbids floating-point computation");
      return;
    case Opcode::Unreachable:
      return;
    default:
      // Integer computation, comparisons, casts, selects, phis.
      if (profile_ == Profile::Base) {
        violation(std::string("base profile forbids classical computation (") +
                  opcodeName(op) + ")");
      }
      return;
    }
  }

  void checkCall(const Instruction& inst) {
    const std::string& callee = inst.callee()->name();
    if (isQisFunction(callee)) {
      if (callee == kQisReadResult && profile_ == Profile::Base) {
        violation("base profile forbids read_result (measurement feedback)");
      }
      if (callee == kQisMz) {
        sawMeasurement_ = true;
      } else if (callee != kQisReadResult && sawMeasurement_ &&
                 profile_ == Profile::Base) {
        violation("base profile forbids quantum instructions after "
                  "measurement (irreversible section)");
      }
      if (profile_ == Profile::Base) {
        for (unsigned i = 0; i < inst.numOperands(); ++i) {
          if (!isConstantLike(inst.operand(i))) {
            violation("base profile requires constant (static-address) "
                      "arguments to " + callee);
            break;
          }
        }
      }
      return;
    }
    if (isRtFunction(callee)) {
      if (isOutputRecording(callee) || callee == kRtInitialize) {
        return;
      }
      // Everything else is dynamic management: qubit/array allocation,
      // reference counting, result constants.
      violation(std::string(profileName(profile_)) +
                " forbids dynamic runtime management (" + callee + ")");
      return;
    }
    violation(std::string(profileName(profile_)) + " forbids calls to '" + callee +
              "'");
  }

  const Module& module_;
  Profile profile_;
  ProfileReport report_;
  bool sawMeasurement_ = false;
};

} // namespace

ProfileReport validateProfile(const Module& module, Profile profile) {
  if (profile == Profile::Full) {
    return {true, {}};
  }
  return Validator(module, profile).run();
}

Profile detectProfile(const Module& module) {
  if (validateProfile(module, Profile::Base).conforms) {
    return Profile::Base;
  }
  if (validateProfile(module, Profile::Adaptive).conforms) {
    return Profile::Adaptive;
  }
  return Profile::Full;
}

} // namespace qirkit::qir
