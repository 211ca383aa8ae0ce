/// \file program_generator.hpp
/// Random classical IR functions for differential testing, shared by
/// differential_test (interpreter and VM, as written and optimized) and
/// vm_test (VM against the interpreter).
///
/// Each program is `define i64 @f(i64 %arg0, i64 %arg1)` over four i64
/// memory slots: an entry block that seeds the slots, a chain of body
/// blocks ending in data-dependent branches and switches, one bounded
/// counted loop, and a final block that folds the slots into the return
/// value. A computation loads two slots, combines them and stores the
/// result. Half of them detour through a narrow type (i1, i8 or i32: a
/// trunc or an icmp, an iN operation) and come back to i64 through one of
/// the ten casts, doubles, pointers or a select, so every cast meets
/// values with the top bit set, past-range doubles and i1 trues.
#pragma once

#include "support/rng.hpp"

#include <cstdint>
#include <iterator>
#include <string>

namespace qirkit::test {

class ProgramGenerator {
public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    const unsigned bodyBlocks = 2 + static_cast<unsigned>(rng_.below(4));
    std::string s = "define i64 @f(i64 %arg0, i64 %arg1) {\nentry:\n";
    for (unsigned slot = 0; slot < kSlots; ++slot) {
      s += "  %s" + std::to_string(slot) + " = alloca i64, align 8\n";
      s += "  store i64 " + pickSeedValue() + ", ptr %s" + std::to_string(slot) +
           ", align 8\n";
    }
    s += "  br label %b0\n";
    for (unsigned block = 0; block < bodyBlocks; ++block) {
      s += emitBodyBlock(block, bodyBlocks);
    }
    s += emitLoop(bodyBlocks);
    s += emitFinal();
    s += "}\n";
    return s;
  }

private:
  static constexpr unsigned kSlots = 4;

  template <std::size_t N> const char* pick(const char* const (&options)[N]) {
    return options[rng_.below(N)];
  }

  std::string pickSeedValue() {
    switch (rng_.below(3)) {
    case 0: return std::to_string(static_cast<std::int64_t>(rng_.below(100)) - 50);
    case 1: return "%arg0";
    default: return "%arg1";
    }
  }

  std::string slot() { return "%s" + std::to_string(rng_.below(kSlots)); }

  std::string freshValue() { return "%v" + std::to_string(nextValue_++); }

  /// Append `%r = <op> <type> lhs, rhs` to \p s and return %r. Division-
  /// free; shifts get an amount masked below the width, so none traps.
  std::string emitBinOp(std::string& s, const std::string& type, unsigned bits,
                        const std::string& lhs, const std::string& rhs) {
    static const char* const ops[] = {"add", "sub", "mul", "and", "or",
                                      "xor", "shl", "ashr", "lshr"};
    const std::string op = pick(ops);
    const std::string r = freshValue();
    if (op == "shl" || op == "ashr" || op == "lshr") {
      const std::string amount = freshValue();
      s += "  " + amount + " = and " + type + " " + rhs + ", " +
           std::to_string(bits == 64 ? 7 : bits - 1) + "\n";
      s += "  " + r + " = " + op + " " + type + " " + lhs + ", " + amount + "\n";
    } else {
      s += "  " + r + " = " + op + " " + type + " " + lhs + ", " + rhs + "\n";
    }
    return r;
  }

  /// Append `%r = <cast> <from> value to <to>` to \p s and return %r.
  std::string emitCast(std::string& s, const std::string& cast,
                       const std::string& from, const std::string& value,
                       const std::string& to) {
    const std::string r = freshValue();
    s += "  " + r + " = " + cast + " " + from + " " + value + " to " + to + "\n";
    return r;
  }

  /// i64 \p a and \p b through an iN operation and back to i64.
  std::string emitNarrowed(std::string& s, const std::string& a, const std::string& b) {
    static const unsigned widths[] = {1, 8, 32};
    const unsigned bits = widths[rng_.below(std::size(widths))];
    const std::string type = "i" + std::to_string(bits);
    std::string na;
    if (bits == 1 && rng_.below(2) == 0) {
      static const char* const preds[] = {"slt", "ult", "eq", "sgt"};
      na = freshValue();
      s += "  " + na + " = icmp " + pick(preds) + " i64 " + a + ", " + b + "\n";
    } else {
      na = emitCast(s, "trunc", "i64", a, type);
    }
    const std::string nb = emitCast(s, "trunc", "i64", b, type);
    const std::string n = emitBinOp(s, type, bits, na, nb);
    switch (rng_.below(6)) {
    case 0: return emitCast(s, "zext", type, n, "i64");
    case 1: return emitCast(s, "sext", type, n, "i64");
    case 2:
    case 3: {
      // Through a double: scaled so fptosi/fptoui meet exact, fractional
      // and past-range values.
      static const char* const scales[] = {"0.5", "-3.0", "1.0e10", "1.0e-3",
                                           "6.5e18", "1.0e300"};
      static const char* const toFloat[] = {"sitofp", "uitofp"};
      static const char* const toInt[] = {"fptosi", "fptoui"};
      static const char* const intTypes[] = {"i1", "i8", "i32", "i64"};
      const std::string d = emitCast(s, pick(toFloat), type, n, "double");
      const std::string scaled = freshValue();
      s += "  " + scaled + " = fmul double " + d + ", " + pick(scales) + "\n";
      const std::string same = emitCast(s, "bitcast", "double", scaled, "double");
      const std::string intType = pick(intTypes);
      const std::string i = emitCast(s, pick(toInt), "double", same, intType);
      return intType == "i64" ? i : emitCast(s, "sext", intType, i, "i64");
    }
    case 4: {
      static const char* const ptrIntTypes[] = {"i8", "i32", "i64"};
      const std::string p = emitCast(s, "inttoptr", type, n, "ptr");
      const std::string intType = pick(ptrIntTypes);
      const std::string i = emitCast(s, "ptrtoint", "ptr", p, intType);
      return intType == "i64" ? i : emitCast(s, "zext", intType, i, "i64");
    }
    default: {
      const std::string c = freshValue();
      s += "  " + c + " = icmp slt " + type + " " + n + ", " +
           (bits == 1 ? "false" : "3") + "\n";
      const std::string r = freshValue();
      s += "  " + r + " = select i1 " + c + ", i64 " + a + ", i64 " + b + "\n";
      return r;
    }
    }
  }

  /// Emit: load two slots, combine, store into a slot.
  std::string emitComputation() {
    const std::string a = freshValue();
    const std::string b = freshValue();
    std::string s;
    s += "  " + a + " = load i64, ptr " + slot() + ", align 8\n";
    s += "  " + b + " = load i64, ptr " + slot() + ", align 8\n";
    const std::string r =
        rng_.below(2) == 0 ? emitBinOp(s, "i64", 64, a, b) : emitNarrowed(s, a, b);
    s += "  store i64 " + r + ", ptr " + slot() + ", align 8\n";
    return s;
  }

  std::string emitBodyBlock(unsigned index, unsigned bodyBlocks) {
    std::string s = "b" + std::to_string(index) + ":\n";
    const unsigned computations = 1 + static_cast<unsigned>(rng_.below(4));
    for (unsigned i = 0; i < computations; ++i) {
      s += emitComputation();
    }
    // Branch: either fall through, or a data-dependent choice between the
    // next block and a later block (or the loop preheader).
    const std::string next = "b" + std::to_string(index + 1);
    const std::string later =
        index + 2 < bodyBlocks
            ? "b" + std::to_string(index + 2 + rng_.below(bodyBlocks - index - 2 + 1))
            : next;
    const std::string target =
        later == "b" + std::to_string(bodyBlocks) ? next : later; // clamp
    const std::string v = freshValue();
    switch (next == target ? 0 : rng_.below(4)) {
    case 0:
      s += "  br label %" + next + "\n";
      break;
    case 1: {
      // A switch on a narrow view of a slot. i1 has one case (true is -1
      // in an engine register, as in a ConstantInt); wider types two.
      static const unsigned widths[] = {1, 8, 32};
      const unsigned bits = widths[rng_.below(std::size(widths))];
      const std::string type = "i" + std::to_string(bits);
      s += "  " + v + " = load i64, ptr " + slot() + ", align 8\n";
      const std::string n = emitCast(s, "trunc", "i64", v, type);
      s += "  switch " + type + " " + n + ", label %" + next + " [\n";
      if (bits == 1) {
        s += "    i1 true, label %" + target + "\n";
      } else {
        const std::int64_t c = static_cast<std::int64_t>(rng_.below(256)) - 128;
        s += "    " + type + " " + std::to_string(c) + ", label %" + target + "\n";
        s += "    " + type + " " + std::to_string(c ^ 1) + ", label %" + target + "\n";
      }
      s += "  ]\n";
      break;
    }
    default: {
      const std::string c = freshValue();
      s += "  " + v + " = load i64, ptr " + slot() + ", align 8\n";
      s += "  " + c + " = icmp " + (rng_.below(2) == 0 ? "slt" : "sge") + " i64 " +
           v + ", " + std::to_string(static_cast<std::int64_t>(rng_.below(20)) - 10) +
           "\n";
      s += "  br i1 " + c + ", label %" + next + ", label %" + target + "\n";
      break;
    }
    }
    return s;
  }

  std::string emitLoop(unsigned bodyBlocks) {
    const std::string pre = "b" + std::to_string(bodyBlocks);
    const unsigned trips = 1 + static_cast<unsigned>(rng_.below(8));
    std::string s = pre + ":\n";
    s += "  %lc = alloca i64, align 8\n";
    s += "  store i64 0, ptr %lc, align 8\n";
    s += "  br label %loop.header\n";
    s += "loop.header:\n";
    s += "  %li = load i64, ptr %lc, align 8\n";
    s += "  %lcond = icmp slt i64 %li, " + std::to_string(trips) + "\n";
    s += "  br i1 %lcond, label %loop.body, label %final\n";
    s += "loop.body:\n";
    s += emitComputation();
    s += "  %li2 = load i64, ptr %lc, align 8\n";
    s += "  %lnext = add i64 %li2, 1\n";
    s += "  store i64 %lnext, ptr %lc, align 8\n";
    s += "  br label %loop.header\n";
    return s;
  }

  std::string emitFinal() {
    std::string s = "final:\n";
    std::string acc;
    for (unsigned slotIndex = 0; slotIndex < kSlots; ++slotIndex) {
      const std::string v = freshValue();
      s += "  " + v + " = load i64, ptr %s" + std::to_string(slotIndex) +
           ", align 8\n";
      if (acc.empty()) {
        acc = v;
      } else {
        const std::string sum = freshValue();
        s += "  " + sum + " = xor i64 " + acc + ", " + v + "\n";
        acc = sum;
      }
    }
    s += "  ret i64 " + acc + "\n";
    return s;
  }

  SplitMix64 rng_;
  unsigned nextValue_ = 0;
};

} // namespace qirkit::test
