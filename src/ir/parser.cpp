#include "ir/parser.hpp"

#include "ir/builder.hpp"
#include "support/source_location.hpp"
#include "support/string_utils.hpp"
#include "support/telemetry/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <unordered_set>
#include <vector>

namespace qirkit::ir {
namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokKind : std::uint8_t {
  Eof,
  Ident,     // bare word: define, i64, add, entry, ...
  LocalVar,  // %name / %42 / %"quoted"
  GlobalVar, // @name / @"quoted"
  AttrRef,   // #42
  Int,       // 123, -7
  Float,     // 1.0, 2.5e-3, 0x3FF0000000000000
  CString,   // c"..."
  String,    // "..."
  Metadata,  // !anything
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Comma,
  Equal,
  Colon,
  Star,
  Ellipsis,
};

struct Token {
  TokKind kind = TokKind::Eof;
  std::string text;    // decoded payload (without sigils/quotes)
  std::int64_t intVal = 0;
  double floatVal = 0.0;
  SourceLoc loc;
};

class Lexer {
public:
  explicit Lexer(std::string_view text) : text_(text) {}

  std::vector<Token> lexAll() {
    std::vector<Token> tokens;
    while (true) {
      Token tok = next();
      const bool done = tok.kind == TokKind::Eof;
      tokens.push_back(std::move(tok));
      if (done) {
        return tokens;
      }
    }
  }

private:
  [[nodiscard]] SourceLoc loc() const noexcept { return {line_, col_}; }
  [[nodiscard]] bool atEnd() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const noexcept {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }
  char advance() noexcept {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skipTrivia() {
    while (!atEnd()) {
      const char c = peek();
      if (c == ';') { // comment to end of line
        while (!atEnd() && peek() != '\n') {
          advance();
        }
      } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        advance();
      } else {
        return;
      }
    }
  }

  Token make(TokKind kind, std::string text = {}) {
    Token tok;
    tok.kind = kind;
    tok.text = std::move(text);
    tok.loc = startLoc_;
    return tok;
  }

  [[noreturn]] void fail(const std::string& message) {
    throw qirkit::ParseError(loc(), message);
  }

  std::string lexQuoted() {
    assert(peek() == '"');
    advance();
    std::string out;
    while (true) {
      if (atEnd()) {
        fail("unterminated string");
      }
      const char c = advance();
      if (c == '"') {
        return out;
      }
      if (c == '\\') {
        if (peek() == '\\') {
          advance();
          out.push_back('\\');
          continue;
        }
        // \xx hex escape
        const auto hex = [this](char h) -> int {
          if (h >= '0' && h <= '9') {
            return h - '0';
          }
          if (h >= 'a' && h <= 'f') {
            return h - 'a' + 10;
          }
          if (h >= 'A' && h <= 'F') {
            return h - 'A' + 10;
          }
          fail("invalid hex escape in string");
        };
        const int hi = hex(advance());
        const int lo = hex(advance());
        out.push_back(static_cast<char>(hi * 16 + lo));
      } else {
        out.push_back(c);
      }
    }
  }

  std::string lexName() {
    // name after a sigil: bare ident, number, or quoted.
    if (peek() == '"') {
      return lexQuoted();
    }
    std::string out;
    while (!atEnd() && isIdentChar(peek())) {
      out.push_back(advance());
    }
    if (out.empty()) {
      fail("expected name after sigil");
    }
    return out;
  }

  Token lexNumber() {
    std::string text;
    if (peek() == '-' || peek() == '+') {
      text.push_back(advance());
    }
    // Hex float: 0x<16 hex digits> encodes a double's bit pattern.
    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
      advance();
      advance();
      std::uint64_t bits = 0;
      int digits = 0;
      while (!atEnd() && std::isxdigit(static_cast<unsigned char>(peek())) != 0) {
        const char h = advance();
        bits = bits * 16 +
               static_cast<std::uint64_t>(h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
        ++digits;
      }
      if (digits == 0) {
        fail("malformed hex constant");
      }
      double value = 0.0;
      std::memcpy(&value, &bits, sizeof value);
      if (!text.empty() && text[0] == '-') {
        value = -value;
      }
      Token tok = make(TokKind::Float);
      tok.floatVal = value;
      return tok;
    }
    bool isFloat = false;
    while (!atEnd()) {
      const char c = peek();
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        text.push_back(advance());
      } else if (c == '.' || c == 'e' || c == 'E') {
        isFloat = true;
        text.push_back(advance());
        if ((c == 'e' || c == 'E') && (peek() == '+' || peek() == '-')) {
          text.push_back(advance());
        }
      } else {
        break;
      }
    }
    if (isFloat) {
      const auto value = parseDouble(text);
      if (!value) {
        fail("malformed float literal '" + text + "'");
      }
      Token tok = make(TokKind::Float);
      tok.floatVal = *value;
      return tok;
    }
    const auto value = parseInt(text);
    if (!value) {
      fail("malformed integer literal '" + text + "'");
    }
    Token tok = make(TokKind::Int);
    tok.intVal = *value;
    return tok;
  }

  Token next() {
    skipTrivia();
    startLoc_ = loc();
    if (atEnd()) {
      return make(TokKind::Eof);
    }
    const char c = peek();
    switch (c) {
    case '(': advance(); return make(TokKind::LParen);
    case ')': advance(); return make(TokKind::RParen);
    case '{': advance(); return make(TokKind::LBrace);
    case '}': advance(); return make(TokKind::RBrace);
    case '[': advance(); return make(TokKind::LBracket);
    case ']': advance(); return make(TokKind::RBracket);
    case ',': advance(); return make(TokKind::Comma);
    case '=': advance(); return make(TokKind::Equal);
    case ':': advance(); return make(TokKind::Colon);
    case '*': advance(); return make(TokKind::Star);
    case '%': advance(); return make(TokKind::LocalVar, lexName());
    case '@': advance(); return make(TokKind::GlobalVar, lexName());
    case '"': return make(TokKind::String, lexQuoted());
    case '#': {
      advance();
      Token tok = lexNumber();
      if (tok.kind != TokKind::Int) {
        fail("expected number after '#'");
      }
      tok.kind = TokKind::AttrRef;
      return tok;
    }
    case '!': {
      advance();
      // Consume the metadata payload: an ident, number, or quoted string.
      std::string text;
      if (peek() == '"') {
        text = lexQuoted();
      } else if (peek() == '{') {
        // metadata node !{...}: consume balanced braces
        int depth = 0;
        do {
          const char m = advance();
          if (m == '{') {
            ++depth;
          } else if (m == '}') {
            --depth;
          }
        } while (!atEnd() && depth > 0);
      } else {
        while (!atEnd() && isIdentChar(peek())) {
          text.push_back(advance());
        }
      }
      return make(TokKind::Metadata, std::move(text));
    }
    default:
      break;
    }
    if (c == '.' && peek(1) == '.' && peek(2) == '.') {
      advance();
      advance();
      advance();
      return make(TokKind::Ellipsis);
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '-' && std::isdigit(static_cast<unsigned char>(peek(1))) != 0)) {
      return lexNumber();
    }
    if (c == 'c' && peek(1) == '"') {
      advance();
      return make(TokKind::CString, lexQuoted());
    }
    if (isIdentStart(c)) {
      std::string text;
      while (!atEnd() && isIdentChar(peek())) {
        text.push_back(advance());
      }
      return make(TokKind::Ident, std::move(text));
    }
    fail(std::string("unexpected character '") + c + "'");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  std::uint32_t col_ = 1;
  SourceLoc startLoc_;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Placeholder for a local value referenced before its definition.
class ForwardRefValue final : public Value {
public:
  explicit ForwardRefValue(const Type* type) : Value(Kind::ForwardRef, type) {}
};

/// Keywords that may decorate parameters/operands and carry no meaning in
/// the subset.
const std::set<std::string_view> kParamAttrs = {
    "writeonly", "readonly",  "readnone",   "nocapture",       "noundef",
    "nonnull",   "signext",   "zeroext",    "returned",        "noalias",
    "nofree",    "immarg",    "byval",      "sret",            "inreg",
    "captures",  "dead_on_return"};

/// Linkage/visibility/etc. keywords to skip in global & function headers.
const std::set<std::string_view> kHeaderSkip = {
    "private",   "internal",    "external", "linkonce", "linkonce_odr",
    "weak",      "weak_odr",    "common",   "appending", "extern_weak",
    "dso_local", "dso_preemptable", "hidden", "protected", "default",
    "unnamed_addr", "local_unnamed_addr", "global", "constant",
    "tail", "musttail", "notail", "fastcc", "ccc", "coldcc"};

class Parser {
public:
  Parser(Context& context, std::vector<Token> tokens, std::string moduleName)
      : ctx_(context), tokens_(std::move(tokens)),
        module_(std::make_unique<Module>(context, std::move(moduleName))) {}

  std::unique_ptr<Module> run() {
    registerSignatures();
    while (!at(TokKind::Eof)) {
      parseTopLevel();
    }
    applyPendingAttributes();
    return std::move(module_);
  }

private:
  // -- token cursor ---------------------------------------------------------
  [[nodiscard]] const Token& cur() const { return tokens_[pos_]; }
  [[nodiscard]] const Token& peek(std::size_t ahead = 1) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  [[nodiscard]] bool at(TokKind kind) const { return cur().kind == kind; }
  [[nodiscard]] bool atIdent(std::string_view text) const {
    return cur().kind == TokKind::Ident && cur().text == text;
  }
  Token take() { return tokens_[pos_++]; }
  void expect(TokKind kind, const char* what) {
    if (!at(kind)) {
      fail(std::string("expected ") + what);
    }
    ++pos_;
  }
  bool accept(TokKind kind) {
    if (at(kind)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool acceptIdent(std::string_view text) {
    if (atIdent(text)) {
      ++pos_;
      return true;
    }
    return false;
  }
  [[noreturn]] void fail(const std::string& message) const {
    throw qirkit::ParseError(cur().loc, message + " (got '" +
                                            (cur().kind == TokKind::Eof ? "<eof>"
                                                                        : cur().text) +
                                            "')");
  }

  // -- pre-pass: register type aliases and all function signatures ------------
  void registerSignatures() {
    const std::size_t saved = pos_;
    while (!at(TokKind::Eof)) {
      if (at(TokKind::LocalVar) && peek().kind == TokKind::Equal &&
          peek(2).kind == TokKind::Ident && peek(2).text == "type") {
        opaqueAliases_.insert(cur().text);
        pos_ += 3;
      } else if (atIdent("declare") || atIdent("define")) {
        ++pos_;
        skipHeaderKeywords();
        const Type* retType = parseType();
        skipParamAttrs();
        if (!at(TokKind::GlobalVar)) {
          fail("expected function name");
        }
        const std::string name = take().text;
        expect(TokKind::LParen, "'('");
        std::vector<const Type*> params;
        if (!at(TokKind::RParen)) {
          do {
            if (at(TokKind::Ellipsis)) {
              fail("varargs functions are outside the supported QIR subset");
            }
            params.push_back(parseType());
            skipParamAttrs();
            if (at(TokKind::LocalVar)) {
              ++pos_; // parameter name; re-read in pass 2
            }
          } while (accept(TokKind::Comma));
        }
        expect(TokKind::RParen, "')'");
        module_->getOrInsertFunction(name, ctx_.functionTy(retType, std::move(params)));
      } else {
        ++pos_;
      }
    }
    pos_ = saved;
  }

  // -- top level ---------------------------------------------------------
  void parseTopLevel() {
    if (acceptIdent("source_filename")) {
      expect(TokKind::Equal, "'='");
      ++pos_; // the filename string
      return;
    }
    if (acceptIdent("target")) {
      ++pos_; // 'datalayout' / 'triple'
      expect(TokKind::Equal, "'='");
      ++pos_; // the value string
      return;
    }
    if (at(TokKind::Metadata)) {
      // module-level metadata: `!name = !{...}` — payload already consumed
      ++pos_;
      if (accept(TokKind::Equal)) {
        while (at(TokKind::Metadata)) {
          ++pos_;
        }
      }
      return;
    }
    if (atIdent("attributes")) {
      parseAttributeGroup();
      return;
    }
    if (atIdent("declare")) {
      parseFunctionHeader(/*isDefine=*/false);
      return;
    }
    if (atIdent("define")) {
      parseFunctionHeader(/*isDefine=*/true);
      return;
    }
    if (at(TokKind::GlobalVar)) {
      parseGlobal();
      return;
    }
    if (at(TokKind::LocalVar)) {
      parseTypeAlias();
      return;
    }
    fail("unexpected top-level construct");
  }

  void parseTypeAlias() {
    // %Name = type opaque   (legacy QIR spelling for %Qubit / %Result)
    const std::string name = take().text;
    expect(TokKind::Equal, "'='");
    if (!acceptIdent("type")) {
      fail("expected 'type' in type alias");
    }
    if (acceptIdent("opaque")) {
      opaqueAliases_.insert(name);
      return;
    }
    fail("only opaque type aliases are supported");
  }

  void parseGlobal() {
    const std::string name = take().text;
    expect(TokKind::Equal, "'='");
    skipHeaderKeywords();
    const Type* valueType = parseType();
    if (at(TokKind::CString)) {
      const std::string bytes = take().text;
      if (!valueType->isArray() || !valueType->elementType()->isInteger(8) ||
          valueType->arrayCount() != bytes.size()) {
        fail("global initializer size does not match its type");
      }
      module_->createGlobalString(name, bytes);
    } else if (acceptIdent("zeroinitializer")) {
      if (!valueType->isArray() || !valueType->elementType()->isInteger(8)) {
        fail("only byte-array globals are supported");
      }
      module_->createGlobalString(name, std::string(valueType->arrayCount(), '\0'));
    } else {
      fail("unsupported global initializer (subset supports c\"...\" byte arrays)");
    }
    skipInstructionSuffix();
  }

  void parseAttributeGroup() {
    acceptIdent("attributes");
    if (!at(TokKind::AttrRef)) {
      fail("expected '#N' after 'attributes'");
    }
    const int id = static_cast<int>(take().intVal);
    expect(TokKind::Equal, "'='");
    expect(TokKind::LBrace, "'{'");
    std::map<std::string, std::string>& attrs = attrGroups_[id];
    while (!accept(TokKind::RBrace)) {
      std::string key;
      if (at(TokKind::String)) {
        key = take().text;
      } else if (at(TokKind::Ident)) {
        key = take().text;
      } else {
        fail("expected attribute");
      }
      std::string value;
      if (accept(TokKind::Equal)) {
        if (at(TokKind::String)) {
          value = take().text;
        } else if (at(TokKind::Int)) {
          value = std::to_string(take().intVal);
        } else {
          fail("expected attribute value");
        }
      } else if (accept(TokKind::LParen)) { // e.g. allockind("...")
        while (!accept(TokKind::RParen)) {
          ++pos_;
        }
      }
      attrs.emplace(std::move(key), std::move(value));
    }
  }

  void skipHeaderKeywords() {
    while (at(TokKind::Ident) && kHeaderSkip.count(cur().text) != 0) {
      ++pos_;
    }
  }

  void skipParamAttrs() {
    while (true) {
      if (at(TokKind::Ident) && kParamAttrs.count(cur().text) != 0) {
        ++pos_;
        if (accept(TokKind::LParen)) { // e.g. captures(none), byval(ty)
          int depth = 1;
          while (depth > 0) {
            if (at(TokKind::LParen)) {
              ++depth;
            } else if (at(TokKind::RParen)) {
              --depth;
            } else if (at(TokKind::Eof)) {
              fail("unterminated attribute argument list");
            }
            ++pos_;
          }
        }
        continue;
      }
      if (atIdent("align") &&
          (peek().kind == TokKind::Int)) {
        pos_ += 2;
        continue;
      }
      if (atIdent("dereferenceable") && peek().kind == TokKind::LParen) {
        pos_ += 3; // dereferenceable ( N
        expect(TokKind::RParen, "')'");
        continue;
      }
      return;
    }
  }

  // -- types ------------------------------------------------------------
  const Type* parseType() {
    if (at(TokKind::Ident)) {
      const std::string& text = cur().text;
      if (text == "void") {
        ++pos_;
        return ctx_.voidTy();
      }
      if (text == "double") {
        ++pos_;
        return maybePointer(ctx_.doubleTy());
      }
      if (text == "float") {
        fail("float is outside the supported subset (use double)");
      }
      if (text == "ptr") {
        ++pos_;
        return ctx_.ptrTy();
      }
      if (text == "label") {
        ++pos_;
        return ctx_.labelTy();
      }
      if (text.size() > 1 && text[0] == 'i') {
        const auto bits = parseInt(std::string_view(text).substr(1));
        if (bits && *bits > 0 && *bits <= 64) {
          ++pos_;
          return maybePointer(ctx_.intTy(static_cast<unsigned>(*bits)));
        }
      }
      fail("unknown type '" + text + "'");
    }
    if (at(TokKind::LBracket)) {
      ++pos_;
      if (!at(TokKind::Int)) {
        fail("expected array length");
      }
      const std::uint64_t count = static_cast<std::uint64_t>(take().intVal);
      if (!acceptIdent("x")) {
        fail("expected 'x' in array type");
      }
      const Type* element = parseType();
      expect(TokKind::RBracket, "']'");
      return maybePointer(ctx_.arrayTy(element, count));
    }
    if (at(TokKind::LocalVar)) {
      // Legacy named opaque type, e.g. %Qubit; must be used as a pointer.
      const std::string name = take().text;
      if (opaqueAliases_.count(name) == 0) {
        fail("unknown named type %" + name);
      }
      if (!accept(TokKind::Star)) {
        fail("opaque named types may only appear as pointers (%" + name + "*)");
      }
      return ctx_.ptrTy();
    }
    fail("expected type");
  }

  /// Accept trailing '*' (legacy typed-pointer syntax) mapping to ptr.
  const Type* maybePointer(const Type* type) {
    if (accept(TokKind::Star)) {
      while (accept(TokKind::Star)) {
      }
      return ctx_.ptrTy();
    }
    return type;
  }

  // -- function bodies --------------------------------------------------------
  void parseFunctionHeader(bool isDefine) {
    ++pos_; // 'declare' / 'define'
    skipHeaderKeywords();
    const Type* retType = parseType();
    skipParamAttrs();
    if (!at(TokKind::GlobalVar)) {
      fail("expected function name");
    }
    const std::string name = take().text;
    Function* fn = module_->getFunction(name);
    assert(fn != nullptr && "pre-pass registered every signature");
    (void)retType;
    expect(TokKind::LParen, "'('");
    std::vector<std::string> paramNames;
    if (!at(TokKind::RParen)) {
      do {
        (void)parseType();
        skipParamAttrs();
        std::string paramName;
        if (at(TokKind::LocalVar)) {
          paramName = take().text;
        }
        paramNames.push_back(std::move(paramName));
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RParen, "')'");
    // Trailing function attributes: #N refs and inline keywords.
    while (true) {
      if (at(TokKind::AttrRef)) {
        const Token ref = take();
        pendingAttrRefs_.push_back(
            {fn, static_cast<int>(ref.intVal), ref.loc});
        continue;
      }
      if (at(TokKind::Ident) && cur().text != "define" && cur().text != "declare" &&
          cur().text != "attributes" && !at(TokKind::LBrace)) {
        // e.g. nounwind; also "section" "..." pairs
        const std::string kw = take().text;
        if (kw == "section" || kw == "comdat" || kw == "gc") {
          if (at(TokKind::String)) {
            ++pos_;
          }
        } else {
          fn->setAttribute(kw);
        }
        continue;
      }
      break;
    }
    if (!isDefine) {
      return;
    }
    for (unsigned i = 0; i < fn->numArgs() && i < paramNames.size(); ++i) {
      if (!paramNames[i].empty()) {
        fn->arg(i)->setName(paramNames[i]);
      }
    }
    parseBody(fn, paramNames);
  }

  void parseBody(Function* fn, const std::vector<std::string>& paramNames) {
    expect(TokKind::LBrace, "'{'");
    locals_.clear();
    forwardRefs_.clear();
    blocksByName_.clear();
    valueRefLocs_.clear();
    blockRefLocs_.clear();
    definedBlocks_.clear();
    definedSet_.clear();
    fn_ = fn;
    for (unsigned i = 0; i < fn->numArgs(); ++i) {
      if (i < paramNames.size() && !paramNames[i].empty()) {
        locals_[paramNames[i]] = fn->arg(i);
      }
    }

    BasicBlock* current = nullptr;
    while (!accept(TokKind::RBrace)) {
      if (at(TokKind::Eof)) {
        fail("unterminated function body");
      }
      // Block label?
      if ((at(TokKind::Ident) || at(TokKind::Int) || at(TokKind::String)) &&
          peek().kind == TokKind::Colon) {
        std::string label = at(TokKind::Int) ? std::to_string(cur().intVal) : cur().text;
        ++pos_;
        expect(TokKind::Colon, "':'");
        current = defineBlock(label);
        continue;
      }
      if (current == nullptr) {
        // Implicit entry block without a label.
        current = fn->createBlock();
        definedSet_.insert(current);
        definedBlocks_.push_back(current);
      }
      parseInstruction(current);
    }

    finalizeBlocks();
    resolveForwardRefs();
    fn_ = nullptr;
  }

  BasicBlock* getOrCreateBlock(const std::string& name, SourceLoc loc = {}) {
    auto& slot = blocksByName_[name];
    if (slot == nullptr) {
      slot = fn_->createBlock(name);
      blockRefLocs_[name] = loc;
    }
    return slot;
  }

  BasicBlock* defineBlock(const std::string& name) {
    BasicBlock* block = getOrCreateBlock(name);
    if (!definedSet_.insert(block).second) {
      fail("redefinition of label '" + name + "'");
    }
    definedBlocks_.push_back(block);
    return block;
  }

  void finalizeBlocks() {
    // Every referenced block must have been defined; lay the function's
    // blocks out in source order.
    for (const auto& [name, block] : blocksByName_) {
      if (!definedSet_.contains(block)) {
        throw qirkit::ParseError(blockRefLocs_[name],
                                 "use of undefined label '%" + name + "'");
      }
    }
    fn_->reorderBlocks(definedBlocks_);
  }

  void resolveForwardRefs() {
    for (auto& [name, placeholder] : forwardRefs_) {
      if (placeholder == nullptr) {
        continue; // already resolved
      }
      throw qirkit::ParseError(valueRefLocs_[name],
                               "use of undefined value '%" + name + "'");
    }
    forwardRefOwner_.clear();
  }

  Value* defineLocal(const std::string& name, Value* value) {
    value->setName(name);
    auto [it, inserted] = locals_.emplace(name, value);
    if (!inserted) {
      fail("redefinition of '%" + name + "'");
    }
    const auto fwd = forwardRefs_.find(name);
    if (fwd != forwardRefs_.end() && fwd->second != nullptr) {
      fwd->second->replaceAllUsesWith(value);
      fwd->second = nullptr;
    }
    return value;
  }

  Value* lookupLocal(const std::string& name, const Type* type,
                     SourceLoc loc = {}) {
    const auto it = locals_.find(name);
    if (it != locals_.end()) {
      return it->second;
    }
    auto& slot = forwardRefs_[name];
    if (slot == nullptr) {
      auto owned = std::make_unique<ForwardRefValue>(type);
      slot = owned.get();
      forwardRefOwner_.push_back(std::move(owned));
      valueRefLocs_[name] = loc;
    }
    return slot;
  }

  // -- operands ----------------------------------------------------------
  Value* parseValueRef(const Type* type) {
    skipParamAttrs();
    if (at(TokKind::LocalVar)) {
      const Token ref = take();
      return lookupLocal(ref.text, type, ref.loc);
    }
    if (at(TokKind::GlobalVar)) {
      const std::string name = take().text;
      if (Function* fn = module_->getFunction(name)) {
        return fn;
      }
      if (GlobalVariable* g = module_->getGlobal(name)) {
        return g;
      }
      fail("use of undefined global '@" + name + "'");
    }
    if (at(TokKind::Int)) {
      if (type->isDouble()) {
        const double v = static_cast<double>(take().intVal);
        return ctx_.getDouble(v);
      }
      if (!type->isInteger()) {
        fail("integer literal for non-integer type " + type->str());
      }
      return ctx_.getInt(type->bits(), take().intVal);
    }
    if (at(TokKind::Float)) {
      if (!type->isDouble()) {
        fail("float literal for non-double type " + type->str());
      }
      return ctx_.getDouble(take().floatVal);
    }
    if (atIdent("true") || atIdent("false")) {
      if (!type->isInteger(1)) {
        fail("boolean literal for non-i1 type");
      }
      return ctx_.getI1(take().text == "true");
    }
    if (acceptIdent("null")) {
      if (!type->isPointer()) {
        fail("'null' literal for non-pointer type");
      }
      return ctx_.getNullPtr();
    }
    if (acceptIdent("undef") || acceptIdent("poison")) {
      return ctx_.getUndef(type);
    }
    if (atIdent("inttoptr")) {
      // inttoptr (i64 N to ptr)
      ++pos_;
      expect(TokKind::LParen, "'('");
      const Type* srcType = parseType();
      if (!srcType->isInteger()) {
        fail("expected integer type in inttoptr expression");
      }
      std::int64_t raw = 0;
      if (at(TokKind::Int)) {
        raw = take().intVal;
      } else if (at(TokKind::LocalVar)) {
        // The paper's Ex. 4 writes `inttoptr (i64 %2 to ptr)` informally;
        // a non-constant operand is not a constant expression.
        fail("inttoptr constant expression requires a constant operand; use "
             "an inttoptr instruction for dynamic values");
      } else {
        fail("expected integer constant in inttoptr expression");
      }
      if (!acceptIdent("to")) {
        fail("expected 'to' in inttoptr expression");
      }
      const Type* dstType = parseType();
      if (!dstType->isPointer()) {
        fail("inttoptr must produce ptr");
      }
      expect(TokKind::RParen, "')'");
      return ctx_.getIntToPtr(static_cast<std::uint64_t>(raw));
    }
    fail("expected value");
  }

  BasicBlock* parseBlockRef() {
    if (!acceptIdent("label")) {
      fail("expected 'label'");
    }
    if (!at(TokKind::LocalVar)) {
      fail("expected label name");
    }
    const Token label = take();
    return getOrCreateBlock(label.text, label.loc);
  }

  void skipInstructionSuffix() {
    // `, align N`, `, !dbg !7`, ... until something that is not a known
    // suffix.
    while (at(TokKind::Comma)) {
      if (peek().kind == TokKind::Metadata) {
        ++pos_; // comma
        ++pos_; // !name
        if (at(TokKind::Metadata)) {
          ++pos_; // !N
        }
        continue;
      }
      if (peek().kind == TokKind::Ident && peek().text == "align") {
        pos_ += 2; // , align
        expect(TokKind::Int, "alignment");
        continue;
      }
      break;
    }
    while (at(TokKind::Metadata)) {
      ++pos_;
    }
  }

  // -- instructions --------------------------------------------------------
  void parseInstruction(BasicBlock* block) {
    IRBuilder builder(block);
    std::string resultName;
    bool hasResult = false;
    if (at(TokKind::LocalVar) && peek().kind == TokKind::Equal) {
      resultName = take().text;
      ++pos_; // '='
      hasResult = true;
    }

    // Optional call markers.
    while (atIdent("tail") || atIdent("musttail") || atIdent("notail")) {
      ++pos_;
    }

    if (!at(TokKind::Ident)) {
      fail("expected instruction");
    }
    const std::string op = take().text;
    Instruction* inst = nullptr;

    const auto binOp = binOpFromName(op);
    const auto castOp = castOpFromName(op);

    if (op == "ret") {
      if (acceptIdent("void")) {
        inst = builder.createRetVoid();
      } else {
        const Type* type = parseType();
        inst = builder.createRet(parseValueRef(type));
      }
    } else if (op == "br") {
      if (atIdent("label")) {
        inst = builder.createBr(parseBlockRef());
      } else {
        const Type* type = parseType();
        if (!type->isInteger(1)) {
          fail("br condition must be i1");
        }
        Value* cond = parseValueRef(type);
        expect(TokKind::Comma, "','");
        BasicBlock* ifTrue = parseBlockRef();
        expect(TokKind::Comma, "','");
        BasicBlock* ifFalse = parseBlockRef();
        inst = builder.createCondBr(cond, ifTrue, ifFalse);
      }
    } else if (op == "switch") {
      const Type* type = parseType();
      Value* cond = parseValueRef(type);
      expect(TokKind::Comma, "','");
      BasicBlock* defaultDest = parseBlockRef();
      Instruction* sw = builder.createSwitch(cond, defaultDest);
      expect(TokKind::LBracket, "'['");
      while (!accept(TokKind::RBracket)) {
        const Type* caseType = parseType();
        Value* caseValue = parseValueRef(caseType);
        if (caseValue->kind() != Value::Kind::ConstantInt) {
          fail("switch case value must be an integer constant");
        }
        expect(TokKind::Comma, "','");
        BasicBlock* dest = parseBlockRef();
        sw->addOperand(caseValue);
        sw->addOperand(dest);
      }
      inst = sw;
    } else if (op == "unreachable") {
      inst = builder.createUnreachable();
    } else if (binOp) {
      // Skip wrap/exactness flags.
      while (atIdent("nuw") || atIdent("nsw") || atIdent("exact") ||
             atIdent("disjoint") || atIdent("fast") || atIdent("reassoc") ||
             atIdent("nnan") || atIdent("ninf") || atIdent("nsz") ||
             atIdent("arcp") || atIdent("contract") || atIdent("afn")) {
        ++pos_;
      }
      const Type* type = parseType();
      Value* lhs = parseValueRef(type);
      expect(TokKind::Comma, "','");
      Value* rhs = parseValueRef(type);
      inst = builder.createBinOp(*binOp, lhs, rhs);
    } else if (op == "alloca") {
      const Type* allocated = parseType();
      inst = builder.createAlloca(allocated);
    } else if (op == "load") {
      const Type* type = parseType();
      expect(TokKind::Comma, "','");
      const Type* ptrType = parseType();
      if (!ptrType->isPointer()) {
        fail("load pointer operand must be ptr");
      }
      inst = builder.createLoad(type, parseValueRef(ptrType));
    } else if (op == "store") {
      const Type* valueType = parseType();
      Value* value = parseValueRef(valueType);
      expect(TokKind::Comma, "','");
      const Type* ptrType = parseType();
      if (!ptrType->isPointer()) {
        fail("store pointer operand must be ptr");
      }
      inst = builder.createStore(value, parseValueRef(ptrType));
    } else if (op == "icmp") {
      const ICmpPred pred = parseICmpPred();
      const Type* type = parseType();
      Value* lhs = parseValueRef(type);
      expect(TokKind::Comma, "','");
      inst = builder.createICmp(pred, lhs, parseValueRef(type));
    } else if (op == "fcmp") {
      const FCmpPred pred = parseFCmpPred();
      const Type* type = parseType();
      Value* lhs = parseValueRef(type);
      expect(TokKind::Comma, "','");
      inst = builder.createFCmp(pred, lhs, parseValueRef(type));
    } else if (castOp) {
      const Type* srcType = parseType();
      Value* value = parseValueRef(srcType);
      if (!acceptIdent("to")) {
        fail("expected 'to' in cast");
      }
      const Type* dstType = parseType();
      inst = builder.createCast(*castOp, value, dstType);
    } else if (op == "phi") {
      const Type* type = parseType();
      Instruction* phi = builder.createPhi(type);
      do {
        expect(TokKind::LBracket, "'['");
        Value* value = parseValueRef(type);
        expect(TokKind::Comma, "','");
        if (!at(TokKind::LocalVar)) {
          fail("expected incoming block label");
        }
        const Token incomingLabel = take();
        BasicBlock* incoming =
            getOrCreateBlock(incomingLabel.text, incomingLabel.loc);
        expect(TokKind::RBracket, "']'");
        phi->addIncoming(value, incoming);
      } while (accept(TokKind::Comma) && at(TokKind::LBracket));
      inst = phi;
    } else if (op == "select") {
      const Type* condType = parseType();
      Value* cond = parseValueRef(condType);
      expect(TokKind::Comma, "','");
      const Type* valueType = parseType();
      Value* ifTrue = parseValueRef(valueType);
      expect(TokKind::Comma, "','");
      (void)parseType();
      Value* ifFalse = parseValueRef(valueType);
      inst = builder.createSelect(cond, ifTrue, ifFalse);
    } else if (op == "call") {
      inst = parseCall(builder);
    } else if (op == "getelementptr") {
      fail("getelementptr is outside the supported QIR subset (QIR arrays "
           "use __quantum__rt__array_get_element_ptr_1d)");
    } else {
      fail("unknown instruction '" + op + "'");
    }

    skipInstructionSuffix();

    if (hasResult) {
      if (inst->type()->isVoid()) {
        fail("instruction does not produce a value");
      }
      defineLocal(resultName, inst);
    }
  }

  Instruction* parseCall(IRBuilder& builder) {
    skipHeaderKeywords(); // calling conventions
    skipParamAttrs();     // return attrs
    const Type* retType = parseType();
    // Function-type form `call void (i64, ...) @f(...)` is rejected with
    // the varargs error inside parseType when it appears.
    if (at(TokKind::LParen)) {
      fail("indirect or varargs calls are outside the supported QIR subset");
    }
    if (!at(TokKind::GlobalVar)) {
      fail("expected callee");
    }
    const std::string calleeName = take().text;
    Function* callee = module_->getFunction(calleeName);
    if (callee == nullptr) {
      fail("call to undeclared function '@" + calleeName + "'");
    }
    if (callee->returnType() != retType) {
      fail("call return type mismatch for '@" + calleeName + "'");
    }
    expect(TokKind::LParen, "'('");
    std::vector<Value*> args;
    if (!at(TokKind::RParen)) {
      do {
        const Type* argType = parseType();
        skipParamAttrs();
        args.push_back(parseValueRef(argType));
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RParen, "')'");
    if (args.size() != callee->functionType()->paramTypes().size()) {
      fail("call arity mismatch for '@" + calleeName + "'");
    }
    return builder.createCall(callee, std::span<Value* const>(args.data(), args.size()));
  }

  ICmpPred parseICmpPred() {
    static const std::map<std::string_view, ICmpPred> preds = {
        {"eq", ICmpPred::EQ},   {"ne", ICmpPred::NE},   {"slt", ICmpPred::SLT},
        {"sle", ICmpPred::SLE}, {"sgt", ICmpPred::SGT}, {"sge", ICmpPred::SGE},
        {"ult", ICmpPred::ULT}, {"ule", ICmpPred::ULE}, {"ugt", ICmpPred::UGT},
        {"uge", ICmpPred::UGE}};
    if (!at(TokKind::Ident)) {
      fail("expected icmp predicate");
    }
    const auto it = preds.find(cur().text);
    if (it == preds.end()) {
      fail("unknown icmp predicate '" + cur().text + "'");
    }
    ++pos_;
    return it->second;
  }

  FCmpPred parseFCmpPred() {
    static const std::map<std::string_view, FCmpPred> preds = {
        {"oeq", FCmpPred::OEQ}, {"one", FCmpPred::ONE}, {"olt", FCmpPred::OLT},
        {"ole", FCmpPred::OLE}, {"ogt", FCmpPred::OGT}, {"oge", FCmpPred::OGE},
        {"une", FCmpPred::UNE}};
    if (!at(TokKind::Ident)) {
      fail("expected fcmp predicate");
    }
    const auto it = preds.find(cur().text);
    if (it == preds.end()) {
      fail("unsupported fcmp predicate '" + cur().text + "'");
    }
    ++pos_;
    return it->second;
  }

  static std::optional<Opcode> binOpFromName(std::string_view name) {
    static const std::map<std::string_view, Opcode> ops = {
        {"add", Opcode::Add},   {"sub", Opcode::Sub},   {"mul", Opcode::Mul},
        {"sdiv", Opcode::SDiv}, {"udiv", Opcode::UDiv}, {"srem", Opcode::SRem},
        {"urem", Opcode::URem}, {"and", Opcode::And},   {"or", Opcode::Or},
        {"xor", Opcode::Xor},   {"shl", Opcode::Shl},   {"lshr", Opcode::LShr},
        {"ashr", Opcode::AShr}, {"fadd", Opcode::FAdd}, {"fsub", Opcode::FSub},
        {"fmul", Opcode::FMul}, {"fdiv", Opcode::FDiv}, {"frem", Opcode::FRem}};
    const auto it = ops.find(name);
    return it == ops.end() ? std::nullopt : std::optional<Opcode>(it->second);
  }

  static std::optional<Opcode> castOpFromName(std::string_view name) {
    static const std::map<std::string_view, Opcode> ops = {
        {"zext", Opcode::ZExt},         {"sext", Opcode::SExt},
        {"trunc", Opcode::Trunc},       {"ptrtoint", Opcode::PtrToInt},
        {"inttoptr", Opcode::IntToPtr}, {"sitofp", Opcode::SIToFP},
        {"fptosi", Opcode::FPToSI},     {"uitofp", Opcode::UIToFP},
        {"fptoui", Opcode::FPToUI},     {"bitcast", Opcode::Bitcast}};
    const auto it = ops.find(name);
    return it == ops.end() ? std::nullopt : std::optional<Opcode>(it->second);
  }

  void applyPendingAttributes() {
    for (const auto& [fn, groupId, refLoc] : pendingAttrRefs_) {
      const auto it = attrGroups_.find(groupId);
      if (it == attrGroups_.end()) {
        throw qirkit::ParseError(refLoc,
                                 "reference to undefined attribute group #" +
                                     std::to_string(groupId));
      }
      for (const auto& [key, value] : it->second) {
        fn->setAttribute(key, value);
      }
    }
  }

  Context& ctx_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  // Declared before module_ so that on error-path unwinding the
  // placeholders outlive the instructions that still reference them.
  std::vector<std::unique_ptr<ForwardRefValue>> forwardRefOwner_;
  std::unique_ptr<Module> module_;

  std::set<std::string> opaqueAliases_;
  std::map<int, std::map<std::string, std::string>> attrGroups_;
  struct PendingAttrRef {
    Function* fn;
    int groupId;
    SourceLoc loc;
  };
  std::vector<PendingAttrRef> pendingAttrRefs_;

  // per-function state
  Function* fn_ = nullptr;
  std::map<std::string, Value*> locals_;
  std::map<std::string, ForwardRefValue*> forwardRefs_;
  std::map<std::string, BasicBlock*> blocksByName_;
  /// Where each forward-referenced value / label was first mentioned, so
  /// undefined-reference errors point at the use site.
  std::map<std::string, SourceLoc> valueRefLocs_;
  std::map<std::string, SourceLoc> blockRefLocs_;
  std::vector<BasicBlock*> definedBlocks_; // in source order
  std::unordered_set<const BasicBlock*> definedSet_;
};

} // namespace

namespace {
// The "full IR parser" adoption route (paper §III.A, route a2).
telemetry::Stage g_parseFull{"parse.full"};
telemetry::Counter g_parseFullLines{"parse.full.lines"};
telemetry::Counter g_parseFullInstructions{"parse.full.instructions"};
} // namespace

std::unique_ptr<Module> parseModule(Context& context, std::string_view text,
                                    std::string moduleName) {
  const telemetry::Span span(g_parseFull);
  Lexer lexer(text);
  Parser parser(context, lexer.lexAll(), std::move(moduleName));
  std::unique_ptr<Module> module = parser.run();
  if (telemetry::enabled()) {
    g_parseFullLines.addUnchecked(static_cast<std::uint64_t>(
        std::count(text.begin(), text.end(), '\n') + 1));
    g_parseFullInstructions.addUnchecked(module->instructionCount());
  }
  return module;
}

} // namespace qirkit::ir
