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

/// Classify program text: an `OPENQASM 3` header means OpenQASM 3; any
/// other `OPENQASM` header, or a \p path ending in `.qasm`, OpenQASM 2;
/// anything else QIR. \p path is empty for daemon submissions.
[[nodiscard]] SourceFormat classifySource(std::string_view text,
                                          std::string_view path = {}) noexcept;

/// Load \p text into a module owned by \p context. OpenQASM 2 goes through
/// the circuit IR and is exported with \p addressing; OpenQASM 3 lowers
/// straight to QIR; QIR text is parsed under the module name \p path
/// ("module" when empty). The module is then run through the classical
/// pipeline (qir::transformDirect), so every consumer executes, analyses
/// and compiles the optimized program. Frontend errors propagate as
/// qirkit::Error.
[[nodiscard]] std::unique_ptr<ir::Module>
loadProgram(ir::Context& context, std::string_view text, std::string_view path,
            qir::Addressing addressing);

} // namespace qirkit::qasm
