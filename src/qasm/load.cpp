#include "qasm/load.hpp"

#include "ir/constant.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "qasm/parser.hpp"
#include "qasm/qasm3.hpp"
#include "qasm/reader.hpp"
#include "qir/compile.hpp"
#include "qir/names.hpp"
#include "support/error.hpp"

#include <optional>
#include <string>

namespace qirkit::qasm {

namespace {

/// Every engine and the shot analysis index a known QIS or rt function's
/// arguments by its QIR signature, so a declaration that disagrees with
/// it is rejected here, before anything runs it.
void checkQirDeclarations(const ir::Module& module) {
  for (const auto& function : module.functions()) {
    if (!function->isDeclaration()) {
      continue;
    }
    const ir::Type* expected = qir::qirFunctionType(module.context(), function->name());
    if (expected != nullptr && expected != function->functionType()) {
      throw Error(ErrorCode::Verify, "@" + function->name() + " is declared " +
                                         function->functionType()->str() +
                                         ", but its QIR signature is " +
                                         expected->str());
    }
  }
}

/// The OpenQASM 3 frontend checks a constant register index, but not one
/// a loop variable computes. Once the pipeline has unrolled the loop, that
/// index is a constant address too: reject one at or past the entry
/// point's declared qubits or results here, so `compile` and `translate`,
/// which never execute, refuse it as well. A loop that stays a loop meets
/// the same bound at run time (RuntimeAbi::bindDeclaredWidth).
void checkStaticAddresses(const ir::Module& module) {
  const std::uint64_t qubits = qir::declaredWidth(module, "required_num_qubits");
  const std::uint64_t results = qir::declaredWidth(module, "required_num_results");
  for (const auto& block : module.entryPoint()->blocks()) {
    for (const auto& inst : block->instructions()) {
      const ir::Function* callee = inst->op() == ir::Opcode::Call ? inst->callee() : nullptr;
      if (callee == nullptr || !qir::isQisFunction(callee->name())) {
        continue;
      }
      for (unsigned i = 0; i < inst->numOperands(); ++i) {
        std::uint64_t address = 0;
        if (!ir::getStaticPointerAddress(inst->operand(i), address)) {
          continue;
        }
        const bool isResult = (callee->name() == qir::kQisMz && i == 1) ||
                              callee->name() == qir::kQisReadResult;
        const std::uint64_t declared = isResult ? results : qubits;
        if (address >= declared) {
          throw SemanticError("@" + callee->name() + " addresses " +
                              (isResult ? "result " : "qubit ") + std::to_string(address) +
                              ", but the program declares " + std::to_string(declared) +
                              (isResult ? " bits" : " qubits"));
        }
      }
    }
  }
}

} // namespace

SourceFormat classifySource(std::string_view text,
                            std::string_view path) noexcept {
  const std::optional<double> version = headerVersion(text);
  if (!version) {
    return path.ends_with(".qasm") ? SourceFormat::Qasm2 : SourceFormat::Qir;
  }
  return *version >= 3 && *version < 4 ? SourceFormat::Qasm3 : SourceFormat::Qasm2;
}

std::unique_ptr<ir::Module> loadProgram(ir::Context& context,
                                        std::string_view text,
                                        std::string_view path,
                                        qir::Addressing addressing) {
  std::unique_ptr<ir::Module> module;
  switch (classifySource(text, path)) {
  case SourceFormat::Qasm3:
    module = compileQasm3(context, text);
    qir::transformDirect(*module);
    checkStaticAddresses(*module);
    return module;
  case SourceFormat::Qasm2:
    module = qir::exportCircuit(context, parse(text), {.addressing = addressing});
    break;
  case SourceFormat::Qir:
    module = ir::parseModule(context, text,
                             path.empty() ? "module" : std::string(path));
    checkQirDeclarations(*module);
    if (!ir::verifyModule(*module).empty()) {
      // The passes assume well-formed IR. A module the verifier rejects
      // runs as written, and the engines classify what they cannot run.
      return module;
    }
    break;
  }
  qir::transformDirect(*module);
  return module;
}

} // namespace qirkit::qasm
