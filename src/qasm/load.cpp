#include "qasm/load.hpp"

#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "qasm/parser.hpp"
#include "qasm/qasm3.hpp"
#include "qir/compile.hpp"
#include "qir/names.hpp"
#include "support/error.hpp"

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

} // namespace

SourceFormat classifySource(std::string_view text,
                            std::string_view path) noexcept {
  const auto header = text.find("OPENQASM");
  if (header == std::string_view::npos) {
    return path.ends_with(".qasm") ? SourceFormat::Qasm2 : SourceFormat::Qir;
  }
  return text.substr(header).starts_with("OPENQASM 3") ? SourceFormat::Qasm3
                                                       : SourceFormat::Qasm2;
}

std::unique_ptr<ir::Module> loadProgram(ir::Context& context,
                                        std::string_view text,
                                        std::string_view path,
                                        qir::Addressing addressing) {
  std::unique_ptr<ir::Module> module;
  switch (classifySource(text, path)) {
  case SourceFormat::Qasm3:
    module = compileQasm3(context, text);
    break;
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
