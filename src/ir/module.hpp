/// \file module.hpp
/// Functions, globals, and the Module that owns them.
#pragma once

#include "ir/context.hpp"
#include "ir/instruction.hpp"

#include <cassert>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace qirkit::ir {

class Module;

/// A formal parameter of a Function.
class Argument final : public Value {
public:
  [[nodiscard]] unsigned index() const noexcept { return index_; }
  [[nodiscard]] Function* parent() const noexcept { return parent_; }

  static bool classof(const Value* v) noexcept { return v->kind() == Kind::Argument; }

private:
  friend class Function;
  Argument(const Type* type, unsigned index, Function* parent)
      : Value(Kind::Argument, type), index_(index), parent_(parent) {}
  unsigned index_;
  Function* parent_;
};

/// A global variable. The subset models what QIR output recording needs:
/// internal constant byte arrays (string labels). The Value's type is ptr.
class GlobalVariable final : public Value {
public:
  [[nodiscard]] const Type* valueType() const noexcept { return valueType_; }
  /// Raw initializer bytes (the c"..." payload, including any trailing NUL).
  [[nodiscard]] const std::string& initializer() const noexcept { return init_; }
  [[nodiscard]] bool isConstant() const noexcept { return isConstant_; }

  static bool classof(const Value* v) noexcept {
    return v->kind() == Kind::GlobalVariable;
  }

private:
  friend class Module;
  GlobalVariable(const Type* ptrType, const Type* valueType, std::string init,
                 bool isConstant)
      : Value(Kind::GlobalVariable, ptrType), valueType_(valueType),
        init_(std::move(init)), isConstant_(isConstant) {}
  const Type* valueType_;
  std::string init_;
  bool isConstant_;
};

/// A function: declaration (no body) or definition (entry block first).
/// Attributes are an open string map; QIR entry points carry
/// "entry_point", "qir_profiles", "required_num_qubits",
/// "required_num_results", etc.
class Function final : public Value {
public:
  /// Detaches every instruction from its operands before the blocks are
  /// destroyed — back edges (and phis) reference earlier blocks, which
  /// would otherwise be freed while still in use lists.
  ~Function() override;

  [[nodiscard]] Module* parent() const noexcept { return parent_; }
  [[nodiscard]] const Type* functionType() const noexcept { return functionType_; }
  [[nodiscard]] const Type* returnType() const noexcept {
    return functionType_->returnType();
  }

  [[nodiscard]] bool isDeclaration() const noexcept { return blocks_.empty(); }

  // -- Arguments --------------------------------------------------------
  [[nodiscard]] unsigned numArgs() const noexcept {
    return static_cast<unsigned>(args_.size());
  }
  [[nodiscard]] Argument* arg(unsigned i) const { return args_.at(i).get(); }

  // -- Blocks ------------------------------------------------------------
  [[nodiscard]] const std::vector<std::unique_ptr<BasicBlock>>& blocks()
      const noexcept {
    return blocks_;
  }
  [[nodiscard]] BasicBlock* entry() const {
    return blocks_.empty() ? nullptr : blocks_.front().get();
  }
  /// Create a new block appended at the end. \p name may be empty.
  BasicBlock* createBlock(std::string name = {});
  /// Create a new block inserted after \p after.
  BasicBlock* createBlockAfter(BasicBlock* after, std::string name = {});
  /// Destroy every block for which \p pred returns true, in one compaction
  /// pass: erasing blocks one at a time is quadratic in the block count,
  /// which dominated simplify-cfg on fully unrolled loops. The doomed
  /// blocks may branch to each other and use each other's values (every
  /// operand among them is released before any is destroyed); nothing
  /// that survives may.
  template <typename Pred> void eraseBlocksIf(Pred pred) {
    std::vector<bool> doomed(blocks_.size());
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      doomed[i] = pred(blocks_[i].get());
      if (doomed[i]) {
        for (const auto& inst : blocks_[i]->instructions()) {
          inst->dropAllOperands();
        }
      }
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      if (doomed[i]) {
        blocks_[i]->eraseIf([](Instruction*) { return true; });
        assert(!blocks_[i]->hasUses() && "erasing a block that is still branched to");
        blocks_[i].reset();
      } else {
        if (kept != i) {
          blocks_[kept] = std::move(blocks_[i]);
        }
        ++kept;
      }
    }
    blocks_.resize(kept);
  }
  /// Lay the blocks out in \p order; blocks it does not list follow, in
  /// their current order.
  void reorderBlocks(std::span<BasicBlock* const> order);
  [[nodiscard]] std::size_t blockIndexOf(const BasicBlock* block) const;

  // -- Attributes --------------------------------------------------------
  [[nodiscard]] const std::map<std::string, std::string>& attributes() const noexcept {
    return attrs_;
  }
  void setAttribute(std::string key, std::string value = {}) {
    attrs_[std::move(key)] = std::move(value);
  }
  [[nodiscard]] bool hasAttribute(std::string_view key) const {
    return attrs_.find(std::string(key)) != attrs_.end();
  }
  [[nodiscard]] std::string getAttribute(std::string_view key) const {
    const auto it = attrs_.find(std::string(key));
    return it == attrs_.end() ? std::string{} : it->second;
  }

  /// Total instruction count across all blocks.
  [[nodiscard]] std::size_t instructionCount() const noexcept;

  static bool classof(const Value* v) noexcept { return v->kind() == Kind::Function; }

private:
  friend class Module;
  Function(Module* parent, const Type* functionType, const Type* ptrType,
           std::string name);

  Module* parent_;
  const Type* functionType_;
  std::vector<std::unique_ptr<Argument>> args_;
  std::vector<std::unique_ptr<BasicBlock>> blocks_;
  std::map<std::string, std::string> attrs_;
};

/// A translation unit: globals plus functions, owned, with name lookup.
/// Functions and globals are two name spaces, each kept in creation order
/// (for iteration and printing) and indexed by name, so a lookup costs
/// the same however many symbols the module has.
class Module {
public:
  explicit Module(Context& context, std::string name = "module")
      : context_(&context), name_(std::move(name)) {}

  [[nodiscard]] Context& context() const noexcept { return *context_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // -- Functions --------------------------------------------------------
  /// Create a function (declaration until blocks are added). Fails if the
  /// name is taken.
  Function* createFunction(std::string name, const Type* functionType);
  /// Find a function by name, or nullptr.
  [[nodiscard]] Function* getFunction(std::string_view name) const;
  /// Find a function by name or create a declaration with \p functionType.
  Function* getOrInsertFunction(std::string_view name, const Type* functionType);
  [[nodiscard]] const std::vector<std::unique_ptr<Function>>& functions()
      const noexcept {
    return functions_;
  }
  /// Remove \p fn from the module; it must have no uses (no remaining calls).
  void eraseFunction(Function* fn);

  /// First function carrying the "entry_point" attribute, or nullptr.
  [[nodiscard]] Function* entryPoint() const;
  /// The function a run of the module starts in: entryPoint(), else
  /// @main; nullptr when that function is missing or only declared.
  [[nodiscard]] Function* entryFunction() const;

  // -- Globals ------------------------------------------------------------
  /// Create a constant byte-array global (e.g. an output label).
  GlobalVariable* createGlobalString(std::string name, std::string bytes);
  [[nodiscard]] GlobalVariable* getGlobal(std::string_view name) const;
  [[nodiscard]] const std::vector<std::unique_ptr<GlobalVariable>>& globals()
      const noexcept {
    return globals_;
  }

  /// Total instruction count across all functions.
  [[nodiscard]] std::size_t instructionCount() const noexcept;

private:
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };
  template <typename T>
  using NameIndex = std::unordered_map<std::string, T*, NameHash, std::equal_to<>>;

  Context* context_;
  std::string name_;
  // Note: globals_ is declared before functions_ so that it is destroyed
  // *after* them — instructions hold use-list edges into globals, which
  // must stay alive while the instructions detach.
  std::vector<std::unique_ptr<GlobalVariable>> globals_;
  std::vector<std::unique_ptr<Function>> functions_;
  NameIndex<GlobalVariable> globalsByName_;
  NameIndex<Function> functionsByName_;
};

} // namespace qirkit::ir
