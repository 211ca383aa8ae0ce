#include "ir/context.hpp"

#include "ir/constant.hpp"

#include <bit>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

namespace qirkit::ir {

struct Context::TypeStore {
  std::vector<std::unique_ptr<Type>> all;
  std::map<unsigned, const Type*> ints;
  std::map<std::pair<const Type*, std::uint64_t>, const Type*> arrays;
  std::map<std::pair<const Type*, std::vector<const Type*>>, const Type*> functions;

  Type* add(std::unique_ptr<Type> t) {
    all.push_back(std::move(t));
    return all.back().get();
  }
};

struct Context::ConstantStore {
  std::map<std::pair<unsigned, std::int64_t>, std::unique_ptr<ConstantInt>> ints;
  // Keyed by bit pattern: -0.0 and 0.0 are distinct constants, and a NaN
  // key would break the map's ordering.
  std::map<std::uint64_t, std::unique_ptr<ConstantFP>> doubles;
  std::unique_ptr<ConstantPointerNull> nullPtr;
  std::map<std::uint64_t, std::unique_ptr<ConstantIntToPtr>> intToPtrs;
  std::map<const Type*, std::unique_ptr<UndefValue>> undefs;
};

Context::Context()
    : types_(std::make_unique<TypeStore>()),
      constants_(std::make_unique<ConstantStore>()) {
  voidTy_ = types_->add(std::unique_ptr<Type>(
      new Type(Type::Kind::Void, 0, nullptr, 0, {})));
  labelTy_ = types_->add(std::unique_ptr<Type>(
      new Type(Type::Kind::Label, 0, nullptr, 0, {})));
  doubleTy_ = types_->add(std::unique_ptr<Type>(
      new Type(Type::Kind::Double, 0, nullptr, 0, {})));
  ptrTy_ = types_->add(std::unique_ptr<Type>(
      new Type(Type::Kind::Pointer, 0, nullptr, 0, {})));
}

Context::~Context() = default;

const Type* Context::intTy(unsigned bits) {
  auto& slot = types_->ints[bits];
  if (slot == nullptr) {
    slot = types_->add(std::unique_ptr<Type>(
        new Type(Type::Kind::Integer, bits, nullptr, 0, {})));
  }
  return slot;
}

const Type* Context::arrayTy(const Type* element, std::uint64_t count) {
  auto& slot = types_->arrays[{element, count}];
  if (slot == nullptr) {
    slot = types_->add(std::unique_ptr<Type>(
        new Type(Type::Kind::Array, 0, element, count, {})));
  }
  return slot;
}

const Type* Context::functionTy(const Type* ret, std::vector<const Type*> params) {
  auto& slot = types_->functions[{ret, params}];
  if (slot == nullptr) {
    slot = types_->add(std::unique_ptr<Type>(
        new Type(Type::Kind::Function, 0, ret, 0, std::move(params))));
  }
  return slot;
}

ConstantInt* Context::getInt(unsigned bits, std::int64_t value) {
  // Canonicalize to the sign-extended representative of value mod 2^bits.
  if (bits < 64) {
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    std::uint64_t u = static_cast<std::uint64_t>(value) & mask;
    // Sign-extend.
    if (bits > 0 && ((u >> (bits - 1)) & 1) != 0) {
      u |= ~mask;
    }
    value = static_cast<std::int64_t>(u);
  }
  auto& slot = constants_->ints[{bits, value}];
  if (slot == nullptr) {
    slot.reset(new ConstantInt(intTy(bits), value));
  }
  return slot.get();
}

ConstantFP* Context::getDouble(double value) {
  auto& slot = constants_->doubles[std::bit_cast<std::uint64_t>(value)];
  if (slot == nullptr) {
    slot.reset(new ConstantFP(doubleTy_, value));
  }
  return slot.get();
}

ConstantPointerNull* Context::getNullPtr() {
  if (constants_->nullPtr == nullptr) {
    constants_->nullPtr.reset(new ConstantPointerNull(ptrTy_));
  }
  return constants_->nullPtr.get();
}

ConstantIntToPtr* Context::getIntToPtr(std::uint64_t value) {
  auto& slot = constants_->intToPtrs[value];
  if (slot == nullptr) {
    slot.reset(new ConstantIntToPtr(ptrTy_, value));
  }
  return slot.get();
}

UndefValue* Context::getUndef(const Type* type) {
  auto& slot = constants_->undefs[type];
  if (slot == nullptr) {
    slot.reset(new UndefValue(type));
  }
  return slot.get();
}

} // namespace qirkit::ir
