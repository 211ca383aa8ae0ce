#include "ir/module.hpp"

#include "support/source_location.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <utility>

namespace qirkit::ir {

Function::Function(Module* parent, const Type* functionType, const Type* ptrType,
                   std::string name)
    : Value(Kind::Function, ptrType), parent_(parent), functionType_(functionType) {
  setName(std::move(name));
  const auto params = functionType->paramTypes();
  args_.reserve(params.size());
  for (unsigned i = 0; i < params.size(); ++i) {
    args_.push_back(std::unique_ptr<Argument>(new Argument(params[i], i, this)));
  }
}

Function::~Function() {
  for (const auto& block : blocks_) {
    for (const auto& inst : block->instructions()) {
      inst->dropAllOperands();
    }
  }
}

BasicBlock* Function::createBlock(std::string name) {
  auto block = std::unique_ptr<BasicBlock>(
      new BasicBlock(parent_->context().labelTy()));
  block->setName(std::move(name));
  block->parent_ = this;
  blocks_.push_back(std::move(block));
  return blocks_.back().get();
}

BasicBlock* Function::createBlockAfter(BasicBlock* after, std::string name) {
  auto block = std::unique_ptr<BasicBlock>(
      new BasicBlock(parent_->context().labelTy()));
  block->setName(std::move(name));
  block->parent_ = this;
  const std::size_t index = blockIndexOf(after);
  const auto it = blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(index) + 1,
                                 std::move(block));
  return it->get();
}

void Function::reorderBlocks(std::span<BasicBlock* const> order) {
  std::unordered_map<const BasicBlock*, std::size_t> rank;
  rank.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    rank.emplace(order[i], i);
  }
  std::vector<std::pair<std::size_t, std::unique_ptr<BasicBlock>>> ranked;
  ranked.reserve(blocks_.size());
  for (std::unique_ptr<BasicBlock>& block : blocks_) {
    const auto it = rank.find(block.get());
    ranked.emplace_back(it == rank.end() ? order.size() : it->second, std::move(block));
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    blocks_[i] = std::move(ranked[i].second);
  }
}

std::size_t Function::blockIndexOf(const BasicBlock* block) const {
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i].get() == block) {
      return i;
    }
  }
  assert(false && "block not in function");
  return blocks_.size();
}

std::size_t Function::instructionCount() const noexcept {
  std::size_t count = 0;
  for (const auto& block : blocks_) {
    count += block->size();
  }
  return count;
}

Function* Module::createFunction(std::string name, const Type* functionType) {
  if (functionsByName_.contains(name)) {
    throw SemanticError("duplicate function @" + name);
  }
  functions_.push_back(std::unique_ptr<Function>(
      new Function(this, functionType, context_->ptrTy(), std::move(name))));
  Function* fn = functions_.back().get();
  functionsByName_.emplace(fn->name(), fn);
  return fn;
}

Function* Module::getFunction(std::string_view name) const {
  const auto it = functionsByName_.find(name);
  return it == functionsByName_.end() ? nullptr : it->second;
}

Function* Module::getOrInsertFunction(std::string_view name, const Type* functionType) {
  if (Function* existing = getFunction(name)) {
    if (existing->functionType() != functionType) {
      throw SemanticError("conflicting types for function @" + std::string(name));
    }
    return existing;
  }
  return createFunction(std::string(name), functionType);
}

void Module::eraseFunction(Function* fn) {
  // Release block contents first: calls inside fn may reference other
  // functions' use lists.
  fn->eraseBlocksIf([](BasicBlock*) { return true; });
  const auto it = std::find_if(functions_.begin(), functions_.end(),
                               [fn](const auto& f) { return f.get() == fn; });
  assert(it != functions_.end());
  assert(!fn->hasUses() && "erasing a function that is still called");
  functionsByName_.erase(fn->name());
  functions_.erase(it);
}

Function* Module::entryPoint() const {
  for (const auto& fn : functions_) {
    if (fn->hasAttribute("entry_point")) {
      return fn.get();
    }
  }
  return nullptr;
}

Function* Module::entryFunction() const {
  Function* entry = entryPoint();
  if (entry == nullptr) {
    entry = getFunction("main");
  }
  return entry == nullptr || entry->isDeclaration() ? nullptr : entry;
}

GlobalVariable* Module::createGlobalString(std::string name, std::string bytes) {
  if (globalsByName_.contains(name)) {
    throw SemanticError("duplicate global @" + name);
  }
  const Type* arrayType = context_->arrayTy(context_->i8(), bytes.size());
  globals_.push_back(std::unique_ptr<GlobalVariable>(
      new GlobalVariable(context_->ptrTy(), arrayType, std::move(bytes), true)));
  GlobalVariable* global = globals_.back().get();
  global->setName(std::move(name));
  globalsByName_.emplace(global->name(), global);
  return global;
}

GlobalVariable* Module::getGlobal(std::string_view name) const {
  const auto it = globalsByName_.find(name);
  return it == globalsByName_.end() ? nullptr : it->second;
}

std::size_t Module::instructionCount() const noexcept {
  std::size_t count = 0;
  for (const auto& fn : functions_) {
    count += fn->instructionCount();
  }
  return count;
}

} // namespace qirkit::ir
