/// \file load.hpp
/// The one program loader of the CLI and the serve daemon: QIR text,
/// OpenQASM 2 or OpenQASM 3 in, an optimized QIR module out.
#pragma once

#include "ir/module.hpp"
#include "qir/exporter.hpp"

#include <cstdint>
#include <memory>
#include <string_view>

namespace qirkit::qasm {

enum class SourceFormat : std::uint8_t { Qir, Qasm2, Qasm3 };

/// Classify program text by its first token, after whitespace and `//` or
/// `/* */` comments: `OPENQASM` with version 3 or 3.x means OpenQASM 3,
/// with any other version OpenQASM 2. A text without that header (or one
/// the OpenQASM lexer cannot start on) is OpenQASM 2 when \p path ends in
/// `.qasm` and QIR otherwise. \p path is empty for daemon submissions.
[[nodiscard]] SourceFormat classifySource(std::string_view text,
                                          std::string_view path = {}) noexcept;

/// Load \p text into a module owned by \p context. OpenQASM 2 goes through
/// the circuit IR and is exported with \p addressing; OpenQASM 3 lowers
/// straight to QIR; QIR text is parsed under the module name \p path
/// ("module" when empty). The module is then run through the classical
/// pipeline (qir::transformDirect), so every consumer executes, analyses
/// and compiles the optimized program. An OpenQASM 3 call whose constant
/// qubit or result address, once the pipeline has folded it, lies past
/// the entry point's required_num_qubits or required_num_results is an
/// error[semantic]. Frontend errors propagate as qirkit::Error.
[[nodiscard]] std::unique_ptr<ir::Module>
loadProgram(ir::Context& context, std::string_view text, std::string_view path,
            qir::Addressing addressing);

} // namespace qirkit::qasm
