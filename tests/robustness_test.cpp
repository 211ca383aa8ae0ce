/// Fault-tolerance test suite: the structured error taxonomy, the
/// malformed-input corpus (every frontend must reject garbage with a
/// classified, located diagnostic — never crash), a seeded mutation sweep
/// over the OpenQASM a tenant can send, deterministic fault
/// injection, per-shot fault isolation in the batched executor, transient
/// retry, graceful VM -> interpreter degradation, and trap parity between
/// the two engines under injected faults.
#include "workloads.hpp"

#include "circuit/generators.hpp"
#include "interp/interpreter.hpp"
#include "ir/parser.hpp"
#include "qasm/load.hpp"
#include "qasm/parser.hpp"
#include "qasm/qasm3.hpp"
#include "qir/exporter.hpp"
#include "qir/importer.hpp"
#include "runtime/runtime.hpp"
#include "sim/statevector.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/faultinject.hpp"
#include "support/rng.hpp"
#include "vm/executor.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace qirkit {
namespace {

// A plan that is armed (probes are counted) but can never fire: `at` is
// beyond any probe count a test reaches. Used to measure probes-per-shot.
fault::Plan countingPlan(fault::Site site) {
  fault::Plan plan;
  plan.site = site;
  plan.at = std::numeric_limits<std::uint64_t>::max();
  return plan;
}

/// RuntimeCall probes one shot of \p module makes on the interpreter
/// engine (identical on the VM engine — that is the parity the probes
/// are keyed on).
///
/// Every test built on this probe arithmetic pins ExecMode::Resim: the
/// per-shot probe numbering it measures only holds on the per-shot resim
/// path, not under the single-simulation sampling fast path that the
/// default auto mode would pick for these terminal circuits.
std::uint64_t runtimeCallsPerShot(const ir::Module& module) {
  const fault::ScopedPlan counting(countingPlan(fault::Site::RuntimeCall));
  vm::ShotOptions opts;
  opts.shots = 1;
  opts.engine = vm::Engine::Interp;
  opts.execMode = vm::ExecMode::Resim;
  (void)vm::runShots(module, opts);
  return fault::FaultInjector::instance().probeCount(fault::Site::RuntimeCall);
}

// ---------------------------------------------------------------------------
// Error taxonomy.
// ---------------------------------------------------------------------------

TEST(ErrorTaxonomy, CodesHaveStableNames) {
  EXPECT_STREQ(errorCodeName(ErrorCode::Parse), "parse");
  EXPECT_STREQ(errorCodeName(ErrorCode::Trap), "trap");
  EXPECT_STREQ(errorCodeName(ErrorCode::TrapOutOfBounds), "trap-out-of-bounds");
  EXPECT_STREQ(errorCodeName(ErrorCode::InjectedFault), "injected-fault");
  EXPECT_STREQ(errorCodeName(ErrorCode::CompileFail), "compile-fail");
  EXPECT_STREQ(errorCodeName(ErrorCode::Deadline), "deadline");
  EXPECT_STREQ(errorCodeName(ErrorCode::Usage), "usage");
  EXPECT_STREQ(errorCodeName(ErrorCode::Internal), "internal");
}

TEST(ErrorTaxonomy, EveryCodeNameMapsBackToItsCode) {
  for (std::size_t i = 0; i < kNumErrorCodes; ++i) {
    const auto code = static_cast<ErrorCode>(i);
    EXPECT_EQ(errorCodeFromName(errorCodeName(code)), code) << errorCodeName(code);
  }
  EXPECT_EQ(kNumErrorCodes, static_cast<std::size_t>(ErrorCode::Internal) + 1);
  EXPECT_EQ(errorCodeFromName("never-heard-of-it"), ErrorCode::Internal);
}

TEST(ErrorTaxonomy, FormattedIncludesCodeAndLocation) {
  const Error located(ErrorCode::Parse, "bad token", {7, 3});
  EXPECT_EQ(located.formatted(), "error[parse]: bad token at 7:3");
  const Error unlocated(ErrorCode::Trap, "division by zero");
  EXPECT_EQ(unlocated.formatted(), "error[trap]: division by zero");
}

TEST(ErrorTaxonomy, ClassifyExceptionRecoversCodeAndTransience) {
  try {
    throw interp::TrapError("boom", ErrorCode::TrapArithmetic, true);
  } catch (const std::exception& e) {
    const ClassifiedError c = classifyException(e);
    EXPECT_EQ(c.code, ErrorCode::TrapArithmetic);
    EXPECT_TRUE(c.transient);
    EXPECT_EQ(c.message, "boom");
  }
  try {
    throw std::runtime_error("anonymous failure");
  } catch (const std::exception& e) {
    const ClassifiedError c = classifyException(e);
    EXPECT_EQ(c.code, ErrorCode::Internal);
    EXPECT_FALSE(c.transient);
  }
}

TEST(ErrorTaxonomy, LegacyWrappersAreStructuredErrors) {
  const ParseError parse({2, 5}, "oops");
  EXPECT_EQ(parse.code(), ErrorCode::Parse);
  EXPECT_EQ(parse.loc().line, 2U);
  EXPECT_STREQ(parse.what(), "2:5: oops"); // historical what() format
  const interp::TrapError trap("out of qubits");
  EXPECT_EQ(trap.code(), ErrorCode::Trap);
  EXPECT_FALSE(trap.transient());
}

// ---------------------------------------------------------------------------
// Malformed-input corpus: classified errors, never crashes.
// ---------------------------------------------------------------------------

TEST(MalformedInput, IrParserRejectsGarbageWithParseErrors) {
  const std::vector<std::string> corpus = {
      "",                                       // empty module is fine...
      "define",                                 // truncated
      "define i64 @f(",                         // unterminated signature
      "define i64 @f() {",                      // unterminated body
      "define i64 @f() {\nentry:\n  ret i64\n", // truncated operand + body
      "@@@",                                    // lexer garbage
      "define i64 @f() {\n  %x = frobnicate i64 1\n  ret i64 %x\n}\n",
      "define i64 @f() {\n  ret i64 9999999999999999999999999\n}\n",
  };
  for (const std::string& text : corpus) {
    ir::Context ctx;
    try {
      (void)ir::parseModule(ctx, text);
      // Some corpus entries (the empty module) legitimately parse.
    } catch (const std::exception& e) {
      const ClassifiedError c = classifyException(e);
      EXPECT_EQ(c.code, ErrorCode::Parse) << text;
    }
  }
}

TEST(MalformedInput, UndefinedReferencesCarrySourceLocations) {
  {
    ir::Context ctx;
    try {
      (void)ir::parseModule(ctx, "define void @f() {\nentry:\n"
                                 "  br label %missing\n}\n");
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("undefined label"), std::string::npos);
      EXPECT_EQ(e.loc().line, 3U); // points at the '%missing' reference
    }
  }
  {
    ir::Context ctx;
    try {
      (void)ir::parseModule(ctx, "define i64 @f() {\nentry:\n"
                                 "  %x = add i64 %ghost, 1\n  ret i64 %x\n}\n");
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("undefined value"), std::string::npos);
      EXPECT_EQ(e.loc().line, 3U); // points at the '%ghost' use
    }
  }
  {
    ir::Context ctx;
    try {
      (void)ir::parseModule(ctx, "define void @f() #9 {\nentry:\n  ret void\n}\n");
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("attribute group"), std::string::npos);
      EXPECT_EQ(e.loc().line, 1U); // points at the '#9' reference
    }
  }
}

TEST(MalformedInput, QirImporterRejectsGarbageWithLocatedParseErrors) {
  const std::vector<std::string> corpus = {
      "this is not QIR at all",
      "define void @main() {\n  call void @unknown_thing()\n  ret void\n}",
      "define void @main() {\n  br i1 true, label %a, label %b\n}",
      "define void @main() {\n  call void @__quantum__qis__h__body(ptr",
  };
  for (const std::string& text : corpus) {
    try {
      (void)qir::importBaseProfileText(text);
      // A text the pattern parser tolerates (e.g. it skips unknown
      // prologue lines) is acceptable; a crash or unclassified throw is
      // not.
    } catch (const ParseError& e) {
      EXPECT_EQ(e.code(), ErrorCode::Parse) << text;
    }
  }
  // Failures inside a function body report the offending line.
  try {
    (void)qir::importBaseProfileText(
        "define void @main() #0 {\n"
        "entry:\n"
        "  call void @__quantum__rt__unknown_fn(ptr null)\n"
        "  ret void\n"
        "}\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_GT(e.loc().line, 0U);
  }
}

TEST(MalformedInput, QasmFrontendsRejectGarbageWithParseErrors) {
  const std::vector<std::string> corpus = {
      "OPENQASM 2.0",               // missing ';'
      "OPENQASM 2.0;\nqreg q[;",    // truncated decl
      "OPENQASM 2.0;\nfrob q[2];",  // unknown statement
      "\x01\x02\x03",               // binary junk
  };
  for (const std::string& text : corpus) {
    try {
      (void)qasm::parse(text);
      FAIL() << "expected a parse failure for: " << text;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.code(), ErrorCode::Parse) << text;
    }
  }
  const std::vector<std::string> corpus3 = {
      "OPENQASM 3;\nqubit[2 q;",
      "OPENQASM 3;\nfor int i in [1:] { }",
      "OPENQASM 3;\nif (creg[0] == { h q[0]; }",
  };
  for (const std::string& text : corpus3) {
    ir::Context ctx;
    try {
      (void)qasm::compileQasm3(ctx, text);
      FAIL() << "expected a parse failure for: " << text;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.code(), ErrorCode::Parse) << text;
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation sweep: the OpenQASM a tenant sends, 1-3 byte edits at a time.
// ---------------------------------------------------------------------------

/// The sweep's seeds: programs that load, and each class the loader
/// rejects (indices past a register, widths past the budget, gate
/// expansion past the budget).
std::vector<std::string> qasmMutationSeeds() {
  std::string doubling = "OPENQASM 2.0;\nqreg q[1];\ngate g0 a { h a; h a; }\n";
  for (int k = 1; k <= 40; ++k) {
    const std::string inner = "g" + std::to_string(k - 1) + " a; ";
    doubling += "gate g" + std::to_string(k) + " a { " + inner + inner + "}\n";
  }
  doubling += "g40 q[0];\n";
  const std::string twoQubitsOneBit = "OPENQASM 3;\nqubit[2] q;\nbit[1] c;\n";
  return {
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ngate bell(theta) a, b {\n  h a;\n"
      "  cx a, b;\n  rz(-theta / 2) b;\n}\nqreg q[3];\ncreg c[3];\n"
      "bell(pi / 4) q[0], q[1];\nh q;\nmeasure q -> c;\nif (c == 3) x q[2];\n",
      "OPENQASM 3;\nqubit[3] q;\nbit[3] c;\nh q[0];\nfor int i in [0:1] {\n"
      "  cx q[i], q[i+1];\n}\nfor int i in [0:2] {\n  c[i] = measure q[i];\n}\n",
      bench::layeredQasm3(16, 3),
      twoQubitsOneBit + "x q[0];\nc[3] = measure q[0];\n",
      twoQubitsOneBit + "h q[5];\n",
      twoQubitsOneBit + "for int i in [0:5] {\n  h q[i];\n}\n",
      "OPENQASM 2.0;\nqreg q[4294967297];\ncreg c[1];\n",
      "OPENQASM 3;\nqubit[1] q;\nbit[32769] c;\n",
      doubling,
      "OPENQASM 2.0;\nqreg q[20000];\nh q;\nx q;\n",
  };
}

/// \p text with one replaced, inserted, deleted or duplicated span. A
/// replaced digit is mostly another digit, so indices, widths and loop
/// bounds change while the program still parses.
void mutate(std::string& text, SplitMix64& rng) {
  static constexpr std::string_view kGrammar = "[](){};:,.=-+*/^>\" \nqcxhi";
  const auto pick = [&](std::size_t n) { return n == 0 ? 0 : rng() % n; };
  const auto digit = [&] { return static_cast<char>('0' + rng() % 10); };
  const auto anyByte = [&] {
    return rng() % 2 == 0 ? kGrammar[pick(kGrammar.size())]
                          : static_cast<char>(rng() % 256);
  };
  const std::size_t at = pick(text.size() + 1);
  const std::size_t span = std::min<std::size_t>(1 + pick(8), text.size() - at);
  switch (rng() % 4) {
  case 0:
    if (at < text.size()) {
      const bool isDigit = std::isdigit(static_cast<unsigned char>(text[at])) != 0;
      text[at] = isDigit && rng() % 4 != 0 ? digit() : anyByte();
    }
    break;
  case 1:
    text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                rng() % 2 == 0 ? digit() : anyByte());
    break;
  case 2:
    text.erase(at, span);
    break;
  default:
    text.insert(at, text.substr(at, span));
    break;
  }
}

TEST(MalformedInput, QasmMutantsLoadOrFailWithAClassifiedError) {
  const std::vector<std::string> seeds = qasmMutationSeeds();
  SplitMix64 rng(0x51a7e5eedULL);
  std::size_t loaded = 0;
  std::set<ErrorCode> codes;
  for (int i = 0; i < 2000; ++i) {
    std::string text = seeds[rng() % seeds.size()];
    for (std::uint64_t edits = 1 + rng() % 3; edits > 0; --edits) {
      mutate(text, rng);
    }
    ir::Context ctx;
    try {
      (void)qasm::loadProgram(ctx, text, "", qir::Addressing::Static);
      ++loaded;
    } catch (const Error& e) {
      EXPECT_NE(e.code(), ErrorCode::Internal) << e.what() << "\n" << text;
      codes.insert(e.code());
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unclassified " << e.what() << "\n" << text;
    }
  }
  // Most mutants die in the reader, but the sweep also reaches the
  // loader's checks past it and the pipeline.
  EXPECT_GT(loaded, 10U);
  EXPECT_TRUE(codes.count(ErrorCode::Parse) != 0 && codes.count(ErrorCode::Semantic) != 0);
}

// ---------------------------------------------------------------------------
// Deterministic fault injection.
// ---------------------------------------------------------------------------

TEST(FaultInjection, AtModeFiresExactlyOnceAtTheNamedProbe) {
  fault::Plan plan;
  plan.site = fault::Site::RuntimeCall;
  plan.at = 3;
  const fault::ScopedPlan scoped(plan);
  fault::FaultInjector& injector = fault::FaultInjector::instance();
  injector.onProbe(fault::Site::RuntimeCall);
  injector.onProbe(fault::Site::RuntimeCall);
  EXPECT_EQ(injector.firedCount(), 0U);
  try {
    injector.onProbe(fault::Site::RuntimeCall);
    FAIL() << "probe #3 must fire";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::InjectedFault);
    EXPECT_TRUE(e.transient());
  }
  injector.onProbe(fault::Site::RuntimeCall); // #4: past `at`, silent again
  EXPECT_EQ(injector.firedCount(), 1U);
  // Probes at other sites are counted but never fire.
  injector.onProbe(fault::Site::VmDispatch);
  EXPECT_EQ(injector.probeCount(fault::Site::VmDispatch), 1U);
  EXPECT_EQ(injector.firedCount(), 1U);
}

TEST(FaultInjection, EveryModeIsSeededAndReproducible) {
  const auto firesOf = [](std::uint64_t seed) {
    fault::Plan plan;
    plan.site = fault::Site::RuntimeCall;
    plan.every = 4;
    plan.seed = seed;
    const fault::ScopedPlan scoped(plan);
    std::vector<std::uint64_t> fires;
    for (std::uint64_t i = 1; i <= 64; ++i) {
      try {
        fault::FaultInjector::instance().onProbe(fault::Site::RuntimeCall);
      } catch (const Error&) {
        fires.push_back(i);
      }
    }
    return fires;
  };
  const auto a = firesOf(11);
  EXPECT_EQ(a, firesOf(11)); // identical plan => identical fire pattern
  EXPECT_NE(a, firesOf(12)); // seeded, not a fixed stride
  EXPECT_FALSE(a.empty());
}

TEST(FaultInjection, DisabledInjectorCountsNothing) {
  fault::FaultInjector::instance().disable();
  fault::probe(fault::Site::RuntimeCall);
  EXPECT_EQ(fault::FaultInjector::instance().probeCount(fault::Site::RuntimeCall),
            0U);
}

// ---------------------------------------------------------------------------
// Per-shot fault isolation.
// ---------------------------------------------------------------------------

TEST(ShotIsolation, OneInjectedTrapFailsOneShotAndCompletesTheRest) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::bellPair(true), {});
  const std::uint64_t callsPerShot = runtimeCallsPerShot(*m);
  ASSERT_GT(callsPerShot, 0U);

  // Fire inside shot 42's external-call sequence (shots are 0-based and
  // sequential without a pool, so probe numbering is exact).
  fault::Plan plan;
  plan.site = fault::Site::RuntimeCall;
  plan.at = 42 * callsPerShot + 1;
  const fault::ScopedPlan scoped(plan);

  vm::ShotOptions opts;
  opts.shots = 100;
  opts.seed = 5;
  opts.engine = vm::Engine::Interp;
  opts.execMode = vm::ExecMode::Resim;
  opts.maxFailedShots = 1;
  const vm::ShotBatchResult batch = vm::runShots(*m, opts);

  EXPECT_EQ(batch.completedShots, 99U);
  EXPECT_EQ(batch.failedShots, 1U);
  std::uint64_t histogramTotal = 0;
  for (const auto& [bits, count] : batch.histogram) {
    histogramTotal += count;
  }
  EXPECT_EQ(histogramTotal, 99U);
  ASSERT_EQ(batch.failureCounts.count(ErrorCode::InjectedFault), 1U);
  EXPECT_EQ(batch.failureCounts.at(ErrorCode::InjectedFault), 1U);
  ASSERT_EQ(batch.failures.size(), 1U);
  EXPECT_EQ(batch.failures[0].shot, 42U);
  EXPECT_EQ(batch.failures[0].code, ErrorCode::InjectedFault);
  EXPECT_TRUE(batch.failures[0].transient);
}

TEST(ShotIsolation, DefaultThresholdPreservesAnyTrapAborts) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::bellPair(true), {});
  const std::uint64_t callsPerShot = runtimeCallsPerShot(*m);

  fault::Plan plan;
  plan.site = fault::Site::RuntimeCall;
  plan.at = 3 * callsPerShot + 1;
  const fault::ScopedPlan scoped(plan);

  vm::ShotOptions opts;
  opts.shots = 10;
  opts.engine = vm::Engine::Interp; // maxFailedShots stays 0
  opts.execMode = vm::ExecMode::Resim;
  try {
    (void)vm::runShots(*m, opts);
    FAIL() << "expected the batch to abort";
  } catch (const interp::TrapError& e) {
    EXPECT_EQ(e.code(), ErrorCode::InjectedFault);
    EXPECT_NE(std::string(e.what()).find("shot 3"), std::string::npos);
  }
}

TEST(ShotIsolation, TransientFaultIsRetriedWithDerivedSeed) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::bellPair(true), {});
  const std::uint64_t callsPerShot = runtimeCallsPerShot(*m);

  fault::Plan plan;
  plan.site = fault::Site::RuntimeCall;
  plan.at = 7 * callsPerShot + 1; // fires once, during shot 7's first try
  const fault::ScopedPlan scoped(plan);

  vm::ShotOptions opts;
  opts.shots = 20;
  opts.engine = vm::Engine::Interp;
  opts.execMode = vm::ExecMode::Resim;
  opts.retries = 2;
  const vm::ShotBatchResult batch = vm::runShots(*m, opts);

  EXPECT_EQ(batch.completedShots, 20U);
  EXPECT_EQ(batch.failedShots, 0U);
  EXPECT_EQ(batch.retryAttempts, 1U); // the retry succeeded immediately
  EXPECT_TRUE(batch.failures.empty());
}

TEST(ShotIsolation, PermanentFaultIsNeverRetried) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::bellPair(true), {});
  const std::uint64_t callsPerShot = runtimeCallsPerShot(*m);

  fault::Plan plan;
  plan.site = fault::Site::RuntimeCall;
  plan.at = 2 * callsPerShot + 1;
  plan.transient = false;
  const fault::ScopedPlan scoped(plan);

  vm::ShotOptions opts;
  opts.shots = 10;
  opts.engine = vm::Engine::Interp;
  opts.execMode = vm::ExecMode::Resim;
  opts.retries = 5;
  opts.maxFailedShots = 1;
  const vm::ShotBatchResult batch = vm::runShots(*m, opts);

  EXPECT_EQ(batch.failedShots, 1U);
  EXPECT_EQ(batch.retryAttempts, 0U);
  ASSERT_EQ(batch.failures.size(), 1U);
  EXPECT_FALSE(batch.failures[0].transient);
}

TEST(ShotIsolation, RetrySeedsAreDeterministicAndDecorrelated) {
  const std::uint64_t a = vm::deriveRetrySeed(5, 42, 1);
  EXPECT_EQ(a, vm::deriveRetrySeed(5, 42, 1));
  EXPECT_NE(a, vm::deriveRetrySeed(5, 42, 2));
  EXPECT_NE(a, vm::deriveRetrySeed(5, 43, 1));
  EXPECT_NE(a, vm::deriveRetrySeed(6, 42, 1));
  EXPECT_NE(a, 5U + 42U); // not a first-attempt shot seed
}

// ---------------------------------------------------------------------------
// Graceful VM -> interpreter degradation.
// ---------------------------------------------------------------------------

TEST(Degradation, CompileFailureDegradesBatchToInterpreterIdentically) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::ghz(3, true), {});

  vm::ShotOptions opts;
  opts.shots = 64;
  opts.seed = 9;

  opts.engine = vm::Engine::Interp;
  const vm::ShotBatchResult reference = vm::runShots(*m, opts);

  fault::Plan plan;
  plan.site = fault::Site::BytecodeCompile;
  plan.at = 1;
  const fault::ScopedPlan scoped(plan);
  opts.engine = vm::Engine::Vm;
  const vm::ShotBatchResult degraded = vm::runShots(*m, opts);

  EXPECT_TRUE(degraded.degradedToInterp);
  EXPECT_EQ(degraded.engineUsed, vm::Engine::Interp);
  EXPECT_NE(degraded.degradeReason.find("injected-fault"), std::string::npos);
  EXPECT_EQ(degraded.completedShots, 64U);
  EXPECT_EQ(degraded.failedShots, 0U);
  // The acceptance bar: the degraded batch answers exactly what the
  // reference engine answers (shot seeds are engine-independent).
  EXPECT_EQ(degraded.histogram, reference.histogram);
}

TEST(Degradation, CompileFailureWithFallbackDisabledPropagates) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::ghz(3, true), {});

  fault::Plan plan;
  plan.site = fault::Site::BytecodeCompile;
  plan.at = 1;
  const fault::ScopedPlan scoped(plan);

  vm::ShotOptions opts;
  opts.shots = 4;
  opts.engine = vm::Engine::Vm;
  opts.interpFallback = false;
  try {
    (void)vm::runShots(*m, opts);
    FAIL() << "expected the compile failure to propagate";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::InjectedFault);
  }
}

TEST(Degradation, VmDispatchFaultIsRescuedPerShotByTheInterpreter) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::ghz(3, true), {});

  vm::ShotOptions opts;
  opts.shots = 32;
  opts.seed = 13;
  opts.execMode = vm::ExecMode::Resim;

  opts.engine = vm::Engine::Interp;
  const vm::ShotBatchResult reference = vm::runShots(*m, opts);

  // Measure VM dispatch probes per shot, then aim at a mid-batch shot.
  std::uint64_t dispatchPerShot = 0;
  {
    const fault::ScopedPlan counting(countingPlan(fault::Site::VmDispatch));
    vm::ShotOptions one = opts;
    one.engine = vm::Engine::Vm;
    one.shots = 1;
    (void)vm::runShots(*m, one);
    dispatchPerShot =
        fault::FaultInjector::instance().probeCount(fault::Site::VmDispatch);
  }
  ASSERT_GT(dispatchPerShot, 0U);

  fault::Plan plan;
  plan.site = fault::Site::VmDispatch;
  plan.at = 10 * dispatchPerShot + 1; // fires during shot 10 on the VM only
  const fault::ScopedPlan scoped(plan);
  opts.engine = vm::Engine::Vm;
  const vm::ShotBatchResult rescued = vm::runShots(*m, opts);

  // The interpreter rerun has no VM dispatch loop, so the shot completes
  // there: no failures, one rescue, and the reference histogram.
  EXPECT_EQ(rescued.failedShots, 0U);
  EXPECT_EQ(rescued.completedShots, 32U);
  EXPECT_EQ(rescued.interpFallbackShots, 1U);
  EXPECT_EQ(rescued.histogram, reference.histogram);
  EXPECT_FALSE(rescued.degradedToInterp); // per-shot rescue, not batch-wide
}

// ---------------------------------------------------------------------------
// Deadlines and cooperative cancellation.
// ---------------------------------------------------------------------------

TEST(Cancellation, TokenStatesAndCheckpointTaxonomy) {
  CancelToken token;
  // Unarmed: the fast path answers false with one relaxed load.
  EXPECT_FALSE(token.armed());
  EXPECT_FALSE(token.expired());
  token.checkpoint("nowhere"); // must not throw

  // A future deadline arms the token without expiring it.
  token.setTimeoutNs(60'000'000'000ULL); // one minute out
  EXPECT_TRUE(token.armed());
  EXPECT_FALSE(token.expired());

  // Explicit cancel dominates any deadline.
  token.cancel();
  EXPECT_TRUE(token.expired());
  EXPECT_TRUE(token.cancelled());
  try {
    token.checkpoint("unit test");
    FAIL() << "checkpoint of a cancelled token must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Deadline);
    EXPECT_NE(std::string(e.what()).find("unit test"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cancelled"), std::string::npos);
  }

  // An already-lapsed deadline (without cancel) reports expiry, and the
  // checkpoint message names the deadline, not a cancellation.
  CancelToken lapsed;
  lapsed.setTimeoutNs(0);
  EXPECT_TRUE(lapsed.expired());
  EXPECT_FALSE(lapsed.cancelled());
  try {
    lapsed.checkpoint("shot loop");
    FAIL() << "checkpoint past the deadline must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Deadline);
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
}

TEST(Cancellation, PreExpiredBatchReturnsEverythingUnstarted) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::bellPair(true), {});

  CancelToken token;
  token.cancel();
  vm::ShotOptions opts;
  opts.shots = 100;
  opts.cancel = &token;
  const vm::ShotBatchResult batch = vm::runShots(*m, opts);

  // No exception: partial-results semantics, with zero partial results.
  EXPECT_TRUE(batch.deadlineExceeded);
  EXPECT_EQ(batch.completedShots, 0U);
  EXPECT_EQ(batch.failedShots, 0U);
  EXPECT_EQ(batch.unstartedShots, 100U);
  EXPECT_TRUE(batch.histogram.empty());
}

TEST(Cancellation, DeadlineMidBatchKeepsCompletedShots) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::bellPair(true), {});

  CancelToken token;
  token.setTimeoutNs(20'000'000); // 20ms: a fraction of the full batch
  vm::ShotOptions opts;
  opts.shots = 5'000'000; // minutes of per-shot resimulation if uncut
  opts.seed = 7;
  opts.execMode = vm::ExecMode::Resim;
  opts.cancel = &token;
  const vm::ShotBatchResult batch = vm::runShots(*m, opts);

  EXPECT_TRUE(batch.deadlineExceeded);
  EXPECT_GT(batch.completedShots, 0U);
  EXPECT_GT(batch.unstartedShots, 0U);
  // The aborted in-flight shot counts as unstarted, never failed: the
  // batch invariant covers every shot exactly once.
  EXPECT_EQ(batch.failedShots, 0U);
  EXPECT_EQ(batch.completedShots + batch.unstartedShots, opts.shots);
  std::uint64_t histogramTotal = 0;
  for (const auto& [bits, count] : batch.histogram) {
    histogramTotal += count;
  }
  EXPECT_EQ(histogramTotal, batch.completedShots);
}

TEST(Cancellation, DeadlineIsNeverRetriedOrRescued) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::bellPair(true), {});

  CancelToken token;
  token.setTimeoutNs(15'000'000);
  vm::ShotOptions opts;
  opts.shots = 5'000'000;
  opts.execMode = vm::ExecMode::Resim;
  opts.engine = vm::Engine::Vm;
  opts.retries = 5;          // transient-fault machinery must not engage
  opts.interpFallback = true; // nor the interpreter rescue
  opts.cancel = &token;
  const vm::ShotBatchResult batch = vm::runShots(*m, opts);

  EXPECT_TRUE(batch.deadlineExceeded);
  // A deadline is not a fault: no retry burn, no engine switch, no
  // degradation — the batch just stops.
  EXPECT_EQ(batch.retryAttempts, 0U);
  EXPECT_EQ(batch.interpFallbackShots, 0U);
  EXPECT_FALSE(batch.degradedToInterp);
  EXPECT_EQ(batch.failedShots, 0U);
}

TEST(ResourceGuards, PredictedStateBytesMatchAndClamp) {
  // The service's memory-admission guard and the simulator must agree on
  // footprint arithmetic: 2^n amplitudes x sizeof(complex<double>).
  EXPECT_EQ(sim::StateVector::predictedBytes(0), sizeof(sim::Complex));
  EXPECT_EQ(sim::StateVector::predictedBytes(10),
            (1ULL << 10U) * sizeof(sim::Complex));
  // Widths past the simulator's hard cap clamp instead of overflowing the
  // shift, so a hostile 300-qubit request still predicts a finite (and
  // budget-busting) number.
  EXPECT_EQ(sim::StateVector::predictedBytes(300),
            sim::StateVector::predictedBytes(sim::StateVector::kMaxQubits));
}

// ---------------------------------------------------------------------------
// Trap parity: both engines fault at the same point under injection.
// ---------------------------------------------------------------------------

TEST(TrapParity, EnginesFailTheSameShotUnderRuntimeCallInjection) {
  ir::Context ctx;
  const auto m = qir::exportCircuit(ctx, circuit::ghz(4, true), {});
  const std::uint64_t callsPerShot = runtimeCallsPerShot(*m);
  ASSERT_GT(callsPerShot, 0U);

  fault::Plan plan;
  plan.site = fault::Site::RuntimeCall;
  plan.at = 5 * callsPerShot + 2; // second external call of shot 5

  const auto runWith = [&](vm::Engine engine) {
    const fault::ScopedPlan scoped(plan); // re-arming resets probe counts
    vm::ShotOptions opts;
    opts.shots = 12;
    opts.seed = 3;
    opts.engine = engine;
    opts.execMode = vm::ExecMode::Resim;
    opts.interpFallback = false; // surface the raw VM fault
    opts.maxFailedShots = 12;
    return vm::runShots(*m, opts);
  };

  const vm::ShotBatchResult interp = runWith(vm::Engine::Interp);
  const vm::ShotBatchResult vmRes = runWith(vm::Engine::Vm);

  // Both engines issue the identical external-call sequence, so the
  // injected fault lands in the identical shot with the identical code.
  ASSERT_EQ(interp.failures.size(), 1U);
  ASSERT_EQ(vmRes.failures.size(), 1U);
  EXPECT_EQ(interp.failures[0].shot, 5U);
  EXPECT_EQ(vmRes.failures[0].shot, 5U);
  EXPECT_EQ(interp.failures[0].code, vmRes.failures[0].code);
  EXPECT_EQ(interp.failedShots, vmRes.failedShots);
  EXPECT_EQ(interp.histogram, vmRes.histogram); // surviving shots agree too
}

} // namespace
} // namespace qirkit
