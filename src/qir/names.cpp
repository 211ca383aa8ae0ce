#include "qir/names.hpp"

#include "support/source_location.hpp"

#include <utility>
#include <vector>

namespace qirkit::qir {

using circuit::OpKind;
using ir::Context;
using ir::Type;

bool isQisFunction(std::string_view name) noexcept {
  return name.starts_with("__quantum__qis__");
}

bool isRtFunction(std::string_view name) noexcept {
  return name.starts_with("__quantum__rt__");
}

bool isQuantumFunction(std::string_view name) noexcept {
  return name.starts_with("__quantum__");
}

namespace {

/// Each gate with its QIS function: the one pairing qisNameFor,
/// opKindForQis and the gate signatures of qirFunctionType read. mz is
/// not listed: its (qubit, result) signature is not a gate's.
constexpr std::pair<OpKind, std::string_view> kQisGates[] = {
    {OpKind::H, kQisH},       {OpKind::X, kQisX},       {OpKind::Y, kQisY},
    {OpKind::Z, kQisZ},       {OpKind::S, kQisS},       {OpKind::Sdg, kQisSAdj},
    {OpKind::T, kQisT},       {OpKind::Tdg, kQisTAdj},  {OpKind::RX, kQisRX},
    {OpKind::RY, kQisRY},     {OpKind::RZ, kQisRZ},     {OpKind::CX, kQisCNOT},
    {OpKind::CZ, kQisCZ},     {OpKind::Swap, kQisSwap}, {OpKind::CCX, kQisCCX},
    {OpKind::Reset, kQisReset}};

} // namespace

const Type* qirFunctionType(Context& ctx, std::string_view name) {
  const Type* voidTy = ctx.voidTy();
  const Type* ptr = ctx.ptrTy();
  const Type* i64 = ctx.i64();
  const Type* i32 = ctx.i32();
  const Type* i1 = ctx.i1();

  // Gates: their angles, then their qubits.
  if (const auto kind = opKindForQis(name); kind && *kind != OpKind::Measure) {
    std::vector<const Type*> params(circuit::opKindParams(*kind), ctx.doubleTy());
    params.insert(params.end(), circuit::opKindArity(*kind), ptr);
    return ctx.functionTy(voidTy, std::move(params));
  }
  if (name == kQisMz) {
    return ctx.functionTy(voidTy, {ptr, ptr});
  }
  if (name == kQisReadResult) {
    return ctx.functionTy(i1, {ptr});
  }
  if (name == kRtInitialize) {
    return ctx.functionTy(voidTy, {ptr});
  }
  if (name == kRtQubitAllocate || name == kRtResultGetOne || name == kRtResultGetZero) {
    return ctx.functionTy(ptr, {});
  }
  if (name == kRtQubitRelease || name == kRtQubitReleaseArray) {
    return ctx.functionTy(voidTy, {ptr});
  }
  if (name == kRtQubitAllocateArray) {
    return ctx.functionTy(ptr, {i64});
  }
  if (name == kRtArrayCreate1d) {
    return ctx.functionTy(ptr, {i32, i64});
  }
  if (name == kRtArrayGetElementPtr1d) {
    return ctx.functionTy(ptr, {ptr, i64});
  }
  if (name == kRtArrayGetSize1d) {
    return ctx.functionTy(i64, {ptr});
  }
  if (name == kRtArrayUpdateRefCount) {
    return ctx.functionTy(voidTy, {ptr, i32});
  }
  if (name == kRtResultRecordOutput) {
    return ctx.functionTy(voidTy, {ptr, ptr});
  }
  if (name == kRtArrayRecordOutput) {
    return ctx.functionTy(voidTy, {i64, ptr});
  }
  if (name == kRtResultEqual) {
    return ctx.functionTy(i1, {ptr, ptr});
  }
  return nullptr;
}

ir::Function* declareQIRFunction(ir::Module& module, std::string_view name) {
  const Type* type = qirFunctionType(module.context(), name);
  if (type == nullptr) {
    throw SemanticError("unknown QIR function '" + std::string(name) + "'");
  }
  return module.getOrInsertFunction(name, type);
}

std::optional<std::string_view> qisNameFor(OpKind kind) noexcept {
  for (const auto& [gate, name] : kQisGates) {
    if (gate == kind) {
      return name;
    }
  }
  return std::nullopt;
}

std::optional<OpKind> opKindForQis(std::string_view name) noexcept {
  if (name == kQisMz) {
    return OpKind::Measure;
  }
  for (const auto& [gate, qisName] : kQisGates) {
    if (qisName == name) {
      return gate;
    }
  }
  return std::nullopt;
}

} // namespace qirkit::qir
