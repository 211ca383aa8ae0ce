/// \file names.hpp
/// The QIR vocabulary: the `__quantum__qis__*` (quantum instruction set)
/// and `__quantum__rt__*` (runtime) functions with their signatures, as
/// used by the paper (Ex. 2, Ex. 5, Ex. 6) and the QIR specification.
#pragma once

#include "circuit/circuit.hpp"
#include "ir/module.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>

namespace qirkit::qir {

// -- quantum instruction set (gates) ----------------------------------------
inline constexpr std::string_view kQisH = "__quantum__qis__h__body";
inline constexpr std::string_view kQisX = "__quantum__qis__x__body";
inline constexpr std::string_view kQisY = "__quantum__qis__y__body";
inline constexpr std::string_view kQisZ = "__quantum__qis__z__body";
inline constexpr std::string_view kQisS = "__quantum__qis__s__body";
inline constexpr std::string_view kQisSAdj = "__quantum__qis__s__adj";
inline constexpr std::string_view kQisT = "__quantum__qis__t__body";
inline constexpr std::string_view kQisTAdj = "__quantum__qis__t__adj";
inline constexpr std::string_view kQisRX = "__quantum__qis__rx__body";
inline constexpr std::string_view kQisRY = "__quantum__qis__ry__body";
inline constexpr std::string_view kQisRZ = "__quantum__qis__rz__body";
inline constexpr std::string_view kQisCNOT = "__quantum__qis__cnot__body";
inline constexpr std::string_view kQisCZ = "__quantum__qis__cz__body";
inline constexpr std::string_view kQisSwap = "__quantum__qis__swap__body";
inline constexpr std::string_view kQisCCX = "__quantum__qis__ccx__body";
inline constexpr std::string_view kQisMz = "__quantum__qis__mz__body";
inline constexpr std::string_view kQisReset = "__quantum__qis__reset__body";
inline constexpr std::string_view kQisReadResult = "__quantum__qis__read_result__body";

// -- runtime ------------------------------------------------------------------
inline constexpr std::string_view kRtInitialize = "__quantum__rt__initialize";
inline constexpr std::string_view kRtQubitAllocate = "__quantum__rt__qubit_allocate";
inline constexpr std::string_view kRtQubitRelease = "__quantum__rt__qubit_release";
inline constexpr std::string_view kRtQubitAllocateArray =
    "__quantum__rt__qubit_allocate_array";
inline constexpr std::string_view kRtQubitReleaseArray =
    "__quantum__rt__qubit_release_array";
inline constexpr std::string_view kRtArrayCreate1d = "__quantum__rt__array_create_1d";
inline constexpr std::string_view kRtArrayGetElementPtr1d =
    "__quantum__rt__array_get_element_ptr_1d";
inline constexpr std::string_view kRtArrayGetSize1d =
    "__quantum__rt__array_get_size_1d";
inline constexpr std::string_view kRtArrayUpdateRefCount =
    "__quantum__rt__array_update_reference_count";
inline constexpr std::string_view kRtResultRecordOutput =
    "__quantum__rt__result_record_output";
inline constexpr std::string_view kRtArrayRecordOutput =
    "__quantum__rt__array_record_output";
inline constexpr std::string_view kRtResultGetOne = "__quantum__rt__result_get_one";
inline constexpr std::string_view kRtResultGetZero = "__quantum__rt__result_get_zero";
inline constexpr std::string_view kRtResultEqual = "__quantum__rt__result_equal";

/// True for any `__quantum__qis__*` name.
[[nodiscard]] bool isQisFunction(std::string_view name) noexcept;
/// True for any `__quantum__rt__*` name.
[[nodiscard]] bool isRtFunction(std::string_view name) noexcept;
/// True for any `__quantum__*` name.
[[nodiscard]] bool isQuantumFunction(std::string_view name) noexcept;

/// True for a call whose value reads a measurement outcome: read_result
/// and result_equal.
[[nodiscard]] bool readsMeasurement(const ir::Instruction& inst);

/// Every instruction of \p fn whose value depends on a measurement
/// outcome: the readsMeasurement calls and, through the use lists, every
/// instruction that (transitively) uses one, phis and branches included.
[[nodiscard]] std::unordered_set<const ir::Value*>
measurementDependents(const ir::Function& fn);

/// Signature of a known QIR function in \p context, or nullptr for unknown
/// names.
[[nodiscard]] const ir::Type* qirFunctionType(ir::Context& context,
                                              std::string_view name);

/// Get-or-declare a known QIR function in \p module.
ir::Function* declareQIRFunction(ir::Module& module, std::string_view name);

/// The entry point's declared register width, its `required_num_qubits`
/// attribute (§IV.A: "infer the number of qubits required for the
/// simulation from the QIR program, such as via an attribute in the QIR
/// file"); 0 when there is no entry point or no such attribute. The
/// service's memory guard charges a request for this width, and the shot
/// executor reserves the statevector for it, so the reservation never
/// exceeds the charge.
[[nodiscard]] unsigned requiredNumQubits(const ir::Module& module);

/// What declaredWidth() answers for a width the entry point does not
/// declare: no bound.
inline constexpr std::uint64_t kUndeclaredWidth = ~std::uint64_t{0};

/// The entry point's \p attribute (`required_num_qubits` or
/// `required_num_results`) as a bound on static addresses, or
/// kUndeclaredWidth when there is no entry point or no such attribute.
/// The loader checks constant addresses against it and the runtime every
/// static address it meets (RuntimeAbi::bindDeclaredWidth).
[[nodiscard]] std::uint64_t declaredWidth(const ir::Module& module,
                                          std::string_view attribute);

/// The qis function implementing a circuit operation kind: each gate the
/// QIS has, and reset. Measure maps to nothing here (mz takes a result
/// operand, so it is not a gate of opKindParams angles and opKindArity
/// qubits), as do U3 and Barrier.
[[nodiscard]] std::optional<std::string_view> qisNameFor(circuit::OpKind kind) noexcept;

/// Inverse of qisNameFor, plus mz -> Measure: circuit OpKind for a qis
/// function name.
[[nodiscard]] std::optional<circuit::OpKind> opKindForQis(std::string_view name) noexcept;

} // namespace qirkit::qir
