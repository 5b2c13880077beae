//===- ledger/replica.h - Compile pipeline with a span per layer -------------===//
//
// Traced runs cannot put spans inside `Compiler::compile`, so the
// benchmark drives the same public layer entry points itself, in
// `Compiler::compileImpl`'s order (prelude-snapshot layering included),
// with one span around each call. The output must be byte-identical to
// `Compiler::compile`'s; every traced run checks that.
//
//===----------------------------------------------------------------------===//

#ifndef SMLTC_LEDGER_REPLICA_H
#define SMLTC_LEDGER_REPLICA_H

#include "support.h"

#include "driver/Compiler.h"

namespace ledger {

/// Compiles \p Source with the prelude, as `Compiler::compile` does,
/// inside a "driver.compile" span with one child span per layer call:
/// ast.parse, elab.elaborate, elab.mtd, lexp.translate, lexp.check,
/// cps.cps_convert, cps.check (twice), cps.cps_opt, closure.closure and
/// codegen.codegen. Each layer's per-layer metric is its name + "_ms".
/// Must run on a thread with a big stack (BigStackThread). Fills the
/// output's metrics that are layer outputs (node counts, optimizer and
/// closure stats, code size); its phase seconds stay zero.
smltc::CompileOutput compileTraced(const std::string &Source,
                                   const smltc::CompilerOptions &Opts,
                                   Tracer &T);

} // namespace ledger

#endif // SMLTC_LEDGER_REPLICA_H
