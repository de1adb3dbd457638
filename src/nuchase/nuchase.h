#ifndef NUCHASE_NUCHASE_H_
#define NUCHASE_NUCHASE_H_

/// nuchase public facade — parse once, run many, observe everything.
///
///   #include "nuchase/nuchase.h"
///
///   auto program = nuchase::api::Program::Parse(
///       "Emp(alice, sales).  Emp(x, d) -> Dept(d).");
///   if (!program.ok()) { /* program.status() */ }
///
///   // Cheap per-run handles over the shared, immutable artifact; safe
///   // to create on N threads at once against one `const Program`.
///   nuchase::api::Session session(*program);
///   auto run = session.Chase();
///   std::cout << run->ToSortedString();
///
/// The facade exposes the paper's machinery (Calautti–Gottlob–Pieris,
/// PODS 2022) behind three nouns:
///
///   api::Program  — immutable parse/validate/classify/join-plan artifact
///                   carrying the static analysis (lint diagnostics,
///                   memoized acyclicity ladder, and syntactic(): the one
///                   static ChTrm verdict with its method string)
///   api::Session  — per-run options + Chase/Decide/Classify/Analyze/
///                   Advise; Analyze, Decide and Advise read
///                   Program::syntactic(), chasing D only for a general
///                   Σ no ladder rung certifies
///   api::ChaseObserver / api::CancelToken — progress and interruption
///
/// Lower-level layers (core, tgd, chase, termination, ...) remain public
/// headers for callers that need the internals; the facade never
/// requires threading a raw SymbolTable* through application code.

#include "analysis/diagnostics.h"
#include "api/program.h"
#include "api/session.h"
#include "chase/chase.h"
#include "chase/observer.h"
#include "util/status.h"

namespace nuchase {
namespace api {

// The observation/interruption vocabulary is defined in the chase layer
// (the engine polls it); re-exported here so facade users write
// api::ChaseObserver / api::CancelToken throughout.
using chase::CancelToken;
using chase::ChaseObserver;
using chase::ChaseOutcome;
using chase::ChaseStats;
using chase::ChaseVariant;
using chase::RoundProgress;

using util::Status;
using util::StatusCode;
template <typename T>
using StatusOr = util::StatusOr<T>;

}  // namespace api
}  // namespace nuchase

#endif  // NUCHASE_NUCHASE_H_
