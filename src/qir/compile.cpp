#include "qir/compile.hpp"

#include "circuit/optimizer.hpp"
#include "qir/importer.hpp"
#include "support/telemetry/telemetry.hpp"

namespace qirkit::qir {

namespace {
telemetry::Stage g_optPipeline{"opt.pipeline"};
telemetry::Stage g_compileToTarget{"compile.to_target"};
} // namespace

std::size_t transformDirect(ir::Module& module, std::size_t maxUnrollTripCount) {
  const telemetry::Span span(g_optPipeline);
  passes::PassManager pm;
  passes::addFullPipeline(pm, maxUnrollTripCount);
  return pm.runToFixpoint(module);
}

CompileResult compileToTarget(ir::Context& context, ir::Module& module,
                              const CompileOptions& options) {
  const telemetry::Span span(g_compileToTarget);
  CompileResult result;
  if (options.runClassicalPipeline) {
    result.passSweeps = transformDirect(module, options.maxUnrollTripCount);
  }
  result.circuit = importFromModule(module);
  if (options.optimizeCircuit) {
    result.circuitStats = circuit::optimizeCircuit(result.circuit);
  }
  if (options.deferMeasurements) {
    (void)circuit::deferMeasurements(result.circuit);
  }
  if (options.target) {
    result.circuit = circuit::decomposeToCXBasis(result.circuit);
    circuit::MappingResult mapping = circuit::mapCircuit(result.circuit, *options.target);
    result.swapsInserted = mapping.swapsInserted;
    result.circuit = std::move(mapping.mapped);
    if (options.optimizeCircuit) {
      circuit::optimizeCircuit(result.circuit);
    }
  }
  ExportOptions exportOptions;
  exportOptions.addressing = options.outputAddressing;
  exportOptions.recordOutput = options.recordOutput;
  result.module = exportCircuit(context, result.circuit, exportOptions);
  result.profile = detectProfile(*result.module);
  return result;
}

} // namespace qirkit::qir
