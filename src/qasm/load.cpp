#include "qasm/load.hpp"

#include "ir/parser.hpp"
#include "qasm/parser.hpp"
#include "qasm/qasm3.hpp"

#include <string>

namespace qirkit::qasm {

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
  switch (classifySource(text, path)) {
  case SourceFormat::Qasm3:
    return compileQasm3(context, text);
  case SourceFormat::Qasm2:
    return qir::exportCircuit(context, parse(text), {.addressing = addressing});
  case SourceFormat::Qir:
    break;
  }
  return ir::parseModule(context, text,
                         path.empty() ? "module" : std::string(path));
}

} // namespace qirkit::qasm
